"""The failure lines of the verification catalogue: each check, fed a
library function patched through its module attribute to give a wrong
result, fails and names the input where it first went wrong."""

import pytest

from quotcells import cells, cli, localization, pullback, series, suites
from quotcells.ring import RingContext

LABEL = {"grid": "patched"}


def failed(cases, check):
    """The one case of `cases` named `check`, asserted failed and labelled."""
    [case] = [c for c in cases if c["inputs"]["check"] == check]
    assert not case["pass"], case
    assert case["inputs"]["grid"] == "patched"
    return case["got"]


def test_pullback_invariance(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    classes = list(pullback.pullback_classes(ctx, [((1, 0), 0)]))
    monkeypatch.setattr(pullback, "is_invariant", lambda x: False)
    got = failed(suites.check_pullback_invariance(LABEL, ctx, classes),
                 "pullback-invariance")
    assert got == "u=[1, 0] a=1 * [one|one]"


def test_span_equals_invariants(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    monkeypatch.setattr(pullback, "invariant_dimension", lambda ctx, d: -1)
    got = failed(suites.check_span_rank(LABEL, ctx, [0, 2]),
                 "span-equals-invariants")
    assert got == "degree=0 rank=1 invariant=-1"


def test_diagonal_product_classification(monkeypatch):
    ctx = RingContext(genus=1, factors=2)
    monkeypatch.setattr(pullback, "diagonal_class",
                        lambda ctx, members, b1: ctx.zero())
    got = failed(suites.check_diagonal_products(LABEL, ctx, [(0b110,)]),
                 "diagonal-product-classification")
    assert got.startswith("sets=[[1, 2]] residual=")


def test_cross_index_step(monkeypatch):
    ctx = RingContext(genus=1, factors=2)
    monkeypatch.setattr(cells, "lower_index_step_residual",
                        lambda ctx, v, m: ctx.one())
    got = failed(suites.check_cross_index(LABEL, [(ctx, (0, 1), 1)]),
                 "cross-index-step")
    assert got == "genus=1 v=[0, 1] m=1 residual=1 * [one|one]"


def test_homogeneity_and_leading_omega_term(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    monkeypatch.setattr(cells, "cell_class", lambda ctx, v: ctx.one() + ctx.pt(1))
    cases = suites.check_cell_classes(LABEL, ctx, [(1, 0)])
    assert failed(cases, "homogeneity") == "v=[1, 0]"
    assert failed(cases, "leading-omega-term") \
        == "v=[1, 0] got=1 * [one|one] + 1 * [pt|one]"


def test_filtration_product_law(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    monkeypatch.setattr(cells, "to_cell_basis", lambda x: {})
    got = failed(suites.check_product_filtration(LABEL, ctx, [((1, 0), (0, 1))]),
                 "filtration-product-law")
    assert got == "v=[1, 0] w=[0, 1] leading=0"


def test_filtration_support_too_deep(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    monkeypatch.setattr(cells, "to_cell_basis",
                        lambda x: {(1, 1): ctx.one(), (2, 1): ctx.one()})
    got = failed(suites.check_product_filtration(LABEL, ctx, [((1, 0), (0, 1))]),
                 "filtration-product-law")
    assert got == "v=[1, 0] w=[0, 1] support too deep"


def test_module_recursion(monkeypatch):
    ctx = RingContext(genus=0, factors=2)
    monkeypatch.setattr(cells, "module_recursion_residual",
                        lambda ctx, u, l, a: ctx.one())
    got = failed(suites.check_module_recursion(LABEL, ctx, [((0,), 1)]),
                 "module-recursion")
    assert got == "u=[0] l=1 residual=1 * [one|one]"


@pytest.mark.parametrize("attr, wrong, check, pair", [
    ("top_term_residual", lambda ctx, v, w: ctx.one(),
     "top-term-product", "v=[1, 0] w=[1, 0]"),
    # a t-degree of co(v) = 1 at every w, also where w does not dominate v
    ("t_degree", lambda x: 1, "top-degree-implies-domination", "v=[1, 0] w=[0, 0]"),
    ("vanishing_check", lambda ctx, v, w: False,
     "vanishing-criterion", "v=[1, 0] w=[1, 0]"),
    ("degree_bound_check", lambda ctx, v, w: False,
     "t-degree-bound", "v=[1, 0] w=[1, 0]"),
], ids=["top-term", "domination", "vanishing", "degree-bound"])
def test_localization_lemmas(monkeypatch, attr, wrong, check, pair):
    ctx = RingContext(genus=0, factors=2, rank=2)
    monkeypatch.setattr(localization, attr, wrong)
    cases = suites.check_localization(LABEL, ctx, [(1, 0)],
                                      [(1, 0), (0, 0), (0, 1)])
    assert failed(cases, check).startswith(pair + " got=")


def test_infinite_limits_not_stable(monkeypatch):
    quot_poincare = series.quot_poincare
    # the constant term grows with the rank, so no power 0 coefficient settles
    monkeypatch.setattr(series, "quot_poincare", lambda g, r, length, max_t=None:
                        series.poly_add(quot_poincare(g, r, length, max_t), [r]))
    report = series.infinite_limits_check(0, 4)
    assert (report["stable"], report["matches_limit"]) == (False, True)
    assert report["failures"] == [{"power": 0, "values": [2, 3, 4]}]
    [case] = suites.check_infinite_limits(0, 4)
    assert not case["pass"]
    assert case["got"] == "[{'power': 0, 'values': [2, 3, 4]}]"


def test_infinite_limits_not_matching_the_limit(monkeypatch):
    limit = series.infinite_quot_series
    monkeypatch.setattr(series, "infinite_quot_series", lambda g, max_t:
                        [c + (k == 2) for k, c in enumerate(limit(g, max_t))])
    report = series.infinite_limits_check(0, 4)
    assert (report["stable"], report["matches_limit"]) == (True, False)
    # the tensor model names the power first, then the stable diagonal value
    assert report["failures"] == [{"power": 2, "limit": 3, "tensor": 2},
                                  {"power": 2, "limit": 3}]
    [case] = suites.check_infinite_limits(0, 4)
    assert not case["pass"]


def test_symmetric_product_dimensions(monkeypatch):
    monkeypatch.setattr(series, "symmetric_product_poincare", lambda g, m: [2])
    [case] = suites.check_symmetric_dimensions(1, (0, 1))
    assert not case["pass"]
    assert case["got"] == "m=0 got=[1] expected=[2]"


def test_a_failed_identity_is_exit_code_1(monkeypatch, capsys):
    """A check that fails under the patch is an identity error, not an
    internal one."""
    monkeypatch.setattr(localization, "vanishing_check", lambda ctx, v, w: False)
    code = cli.main(["verify", "--suite", "localization", "--n", "1",
                     "--genus", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "vanishing-criterion" in out and "FAIL" in out
