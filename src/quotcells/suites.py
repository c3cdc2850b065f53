"""The verification catalogue: the checks behind both `verify` and the
acceptance criteria A1-A9 (tests/test_acceptance.py).

Each check takes its grid as explicit inputs built by the caller (and a
`label` describing the grid, copied into the case's inputs) and returns
cases: inputs, expected and obtained values (elements in the canonical
grammar), a pass flag, the first counterexample on failure, and the
number of inputs actually checked.  A case that checked nothing
fails, so an empty grid never passes.  The suite_* functions build the
default grids of `verify`; grids are iterated in sorted order and the
randomized cases of suite_recursion draw from a generator seeded with
params["seed"], so identical invocations produce identical reports.
"""

from __future__ import annotations

import itertools
import random
import time
from math import prod

from . import cells, localization, pullback, series
from .grammar import format_element
from .ring import RingContext, cohomological_degree, small_diagonal, top_part
from .weights import decreasing_vectors, mask_components, mask_elements

DEFAULTS = {
    "n_values": (2, 3),
    "genus_values": (0, 1, 2),
    "max_co": 3,
    "rank": 3,
    "max_degree": 6,
    "series_max_t": 10,
    "random_cases": 25,
    "seed": 0,
}

# The keys `verify` reports; "checked" and "finished" stay internal, so
# reports keep their form.
REPORTED = ("inputs", "expected", "got", "pass")

# the largest twist degree of the pullback and rank grids
MAX_TWIST_DEGREE = 4


def _case(inputs, expected, got, ok, checked):
    """Every case is built here: a case that checked nothing fails.  The
    `finished` clock reading times the case for `verify --stats`."""
    if not checked:
        got, ok = "no cases checked", False
    return {"inputs": inputs, "expected": expected, "got": got,
            "pass": bool(ok), "checked": checked,
            "finished": time.perf_counter()}


# -- pullbacks ------------------------------------------------------------------

def check_pullback_routes(label, ctx, classes):
    """The combinatorial route reproduces every pullback of the grid,
    counted as it is read."""
    bad, count = None, 0
    for count, (u, a, x) in enumerate(classes, 1):
        other = pullback.quot_pullback_combinatorial(ctx, u, a)
        if x != other and bad is None:
            bad = "u=%s a=%s residual=%s" % (
                list(u), format_element(a), format_element(x - other))
    return [_case({"check": "combinatorial-vs-symmetrization", **label,
                   "classes": count}, "0", bad or "0", bad is None, count)]


def check_pullback_invariance(label, ctx, classes):
    """Pullbacks are invariant under the omega-twisted action; one test per
    class and adjacent transposition (none below two factors).  No class
    is 0: its terms with omega vector exactly w come from cell(w)'s
    leading term w^w alone, so they are the twist's nonzero sigma_w(a)."""
    bad = None
    checked = 0
    for u, a, x in classes:
        checked += max(ctx.factors - 1, 0)
        if not pullback.is_invariant(x) and bad is None:
            bad = "u=%s a=%s" % (list(u), format_element(a))
    return [_case({"check": "pullback-invariance", **label},
                  "invariant", bad or "ok", bad is None, checked)]


def check_span_rank(label, ctx, degrees):
    """Degreewise span rank of the pullbacks == invariant dimension."""
    bad = None
    for d in degrees:
        rank = pullback.span_rank(pullback.quot_pullback_spanning_classes(ctx, d), d)
        dim = pullback.invariant_dimension(ctx, d)
        if rank != dim and bad is None:
            bad = "degree=%d rank=%d invariant=%d" % (d, rank, dim)
    return [_case({"check": "span-equals-invariants", **label},
                  "rank == dim", bad or "ok", bad is None, len(degrees))]


def check_generator_span(label, ctx, max_degree):
    """Single-row pullbacks generate the invariant subring up to max_degree."""
    rows = pullback.generator_span_check(ctx, max_degree)["per_degree"]
    bad = next((str(row) for row in rows if not row["pass"]), None)
    return [_case({"check": "generator-span", **label}, "full rank",
                  bad or "ok", bad is None, len(rows))]


# -- diagonals ------------------------------------------------------------------

def check_incidence_betti(figures):
    """First Betti number of each (masks, expected) incidence figure, a
    connected subset tuple, read from its one component."""
    cases = []
    for masks, expected in figures:
        [(_members, _union, b1)] = mask_components(masks)
        cases.append(_case({"check": "incidence-betti",
                            "sets": list(map(mask_elements, masks))},
                           expected, b1, b1 == expected, 1))
    return cases


def connected_subset_tuples(ground, max_sets):
    """The connected tuples of 1 to max_sets non-empty subsets of
    {1, ..., ground} as bitmasks: the grid of the diagonal-product check."""
    subsets = [sum(1 << i for i in s) for size in range(1, ground + 1)
               for s in itertools.combinations(range(1, ground + 1), size)]
    return [masks for count in range(1, max_sets + 1)
            for masks in itertools.product(subsets, repeat=count)
            if len(mask_components(masks)) == 1]


def check_diagonal_products(label, ctx, tuples):
    """Diagonal products over connected subset tuples of bitmasks against
    pullback.diagonal_class of their one component, the function that the
    combinatorial pullback route applies to each incidence component."""
    bad = None
    for masks in tuples:
        product = prod((small_diagonal(ctx, mask_elements(m)) for m in masks),
                       start=ctx.one())
        [(_members, union, b1)] = mask_components(masks)
        expected = pullback.diagonal_class(ctx, mask_elements(union), b1)
        if product != expected and bad is None:
            bad = "sets=%s residual=%s" % (list(map(mask_elements, masks)),
                                           format_element(product - expected))
    return [_case({"check": "diagonal-product-classification", **label,
                   "tuples": len(tuples)},
                  "0", bad or "0", bad is None, len(tuples))]


# -- cell classes ---------------------------------------------------------------

def check_series_closed_form(label, ctx, order):
    """Cell-class series of index n == closed product form, up to t^order."""
    n = ctx.factors  # there is no series of index 0, so n = 0 checks nothing
    direct = cells.cell_class_series(ctx, n, order) if n else []
    closed = cells.cell_class_series_closed_form(ctx, n, order) if n else []
    bad = next(("power=%d residual=%s" % (l, format_element(x - y))
                for l, (x, y) in enumerate(zip(direct, closed)) if x != y), None)
    return [_case({"check": "series-vs-closed-form", **label},
                  "0", bad or "0", bad is None, len(direct))]


def check_cross_index(label, steps):
    """The lower-index step residual vanishes at each (ctx, v, m)."""
    bad = None
    for ctx, v, m in steps:
        residual = cells.lower_index_step_residual(ctx, v, m)
        if residual and bad is None:
            bad = "genus=%d v=%s m=%d residual=%s" % (
                ctx.genus, list(v), m, format_element(residual))
    return [_case({"check": "cross-index-step", **label, "cases": len(steps)},
                  "0", bad or "0", bad is None, len(steps))]


def check_cell_classes(label, ctx, vectors):
    """cell(v) is homogeneous of degree 2 co(v) with leading term w^v."""
    bad_hom = bad_top = None
    for v in vectors:
        x = cells.cell_class(ctx, v)
        if cohomological_degree(x) != 2 * sum(v) and bad_hom is None:
            bad_hom = "v=%s" % (list(v),)
        if top_part(x, 1) != ctx.monomial(omega=v) and bad_top is None:
            bad_top = "v=%s got=%s" % (list(v), format_element(top_part(x, 1)))
    return [_case({"check": "homogeneity", **label, "vectors": len(vectors)},
                  "degree == 2 co(v)", bad_hom or "ok", bad_hom is None, len(vectors)),
            _case({"check": "leading-omega-term", **label},
                  "w^v", bad_top or "ok", bad_top is None, len(vectors))]


def check_product_filtration(label, ctx, pairs):
    """cell(v) cell(w) has cell-basis coefficient 1 at v + w, nothing deeper."""
    bad = None
    for v, w in pairs:
        target = tuple(a + b for a, b in zip(v, w))
        decomposition = cells.to_cell_basis(
            cells.cell_class(ctx, v) * cells.cell_class(ctx, w))
        top = decomposition.get(target)
        if top != ctx.one() and bad is None:
            bad = "v=%s w=%s leading=%s" % (
                list(v), list(w), format_element(top or ctx.zero()))
        if any(sum(u) > sum(v) + sum(w) for u in decomposition) and bad is None:
            bad = "v=%s w=%s support too deep" % (list(v), list(w))
    return [_case({"check": "filtration-product-law", **label},
                  "leading 1 at v+w", bad or "ok", bad is None, len(pairs))]


def check_module_recursion(label, ctx, steps):
    """Module recursion residual == 0 at each (u, l) and curve class."""
    bad = None
    checked = 0
    for u, l in steps:
        for code in ctx.curve_basis():
            checked += 1
            residual = cells.module_recursion_residual(ctx, u, l, ctx.letter_at(1, code))
            if residual and bad is None:
                bad = "u=%s l=%d residual=%s" % (list(u), l, format_element(residual))
    return [_case({"check": "module-recursion", **label},
                  "0", bad or "0", bad is None, checked)]


# -- localization ---------------------------------------------------------------

def check_localization(label, ctx, grid_v, grid_w):
    """The localization lemmas on the pairs (v, w) each applies to: the
    top-term product formula when w dominates v, its converse, the
    vanishing criterion, and the t-degree bound when w reorders v."""
    bad = dict.fromkeys(("top-term-product", "top-degree-implies-domination",
                         "vanishing-criterion", "t-degree-bound"))
    checked = dict.fromkeys(bad, 0)
    for v in grid_v:
        x = cells.cell_class_equivariant(ctx, v)
        for w in grid_w:
            restricted = localization.restrict_to_fixed_point(x, w)
            degree = localization.t_degree(restricted)
            failed = {}
            if all(a <= b for a, b in zip(v, w)):
                failed["top-term-product"] = degree != sum(v) or bool(
                    localization.top_term_residual(ctx, v, w))
            else:
                failed["top-degree-implies-domination"] = degree == sum(v)
            failed["vanishing-criterion"] = not localization.vanishing_check(ctx, v, w)
            if sorted(v) == sorted(w):
                failed["t-degree-bound"] = not localization.degree_bound_check(ctx, v, w)
            for name, fail in failed.items():
                checked[name] += 1
                if fail and bad[name] is None:
                    bad[name] = "v=%s w=%s got=%s" % (
                        list(v), list(w), format_element(restricted))
    return [_case({"check": name, **label}, "ok", bad[name] or "ok",
                  bad[name] is None, checked[name]) for name in bad]


# -- series ---------------------------------------------------------------------

def check_quot_series(g, r, max_length, max_t):
    """Quot-scheme stratum sums == product formula, s-power by s-power."""
    residuals = series.quot_series_check(g, r, max_length, max_t)
    bad = next((i for i, p in enumerate(residuals) if p), None)
    return [_case({"check": "quot-series-product", "genus": g, "rank": r,
                   "max_length": max_length, "max_t": max_t},
                  "0", "0" if bad is None else "s^%d: %s" % (bad, residuals[bad]),
                  bad is None, len(residuals))]


def check_filt_presentation(g, r, n):
    """Filt-scheme strata sum == projective-bundle presentation."""
    residual = series.filt_presentation_check(g, r, n)
    return [_case({"check": "filt-presentation", "genus": g, "rank": r, "factors": n},
                  "0", "0" if not residual else str(residual), not residual, 1)]


def check_infinite_limits(g, max_t):
    """The diagonal quot series stabilize to their limit, up to t^max_t."""
    report = series.infinite_limits_check(g, max_t)
    return [_case({"check": "infinite-limit-stabilization", "genus": g, "max_t": max_t},
                  "stable and matching",
                  "ok" if report["pass"] else str(report["failures"]),
                  report["pass"], max(max_t + 1, 0))]


def check_symmetric_dimensions(g, lengths):
    """Betti numbers of Sym^m C == the number of nonzero S_m orbit sums of
    letter monomials, degreewise: their supports are disjoint, so they
    are a basis of the symmetric invariants and the twists of the
    pullback grids."""
    bad = None
    for m in lengths:
        ctx = RingContext(genus=g, factors=m)
        dims = [len(pullback.invariant_letter_classes(ctx, d))
                for d in range(2 * m + 1)]
        poly = series.symmetric_product_poincare(g, m)
        if series.poly_trim(dims) != poly and bad is None:
            bad = "m=%d got=%s expected=%s" % (m, dims, poly)
    return [_case({"check": "symmetric-product-dimensions", "genus": g},
                  "projector dims", bad or "ok", bad is None, len(lengths))]


# -- the default grids of `verify` ----------------------------------------------

def _vectors(n, max_co):
    return [v for v in itertools.product(range(max_co + 1), repeat=n)
            if sum(v) <= max_co]


def _pullback_grid(ctx, params):
    """The (u, twist) classes of the pullback and rank grids over ctx: each
    decreasing u with co(u) <= max_co, with each twist of degree at most
    MAX_TWIST_DEGREE."""
    return pullback.pullback_classes(ctx, (
        (u, d) for u in decreasing_vectors(ctx.factors, None, max_co=params["max_co"])
        for d in range(MAX_TWIST_DEGREE + 1)))


def suite_pullback(params):
    cases = []
    for g in params["genus_values"]:
        for n in params["n_values"]:
            ctx = RingContext(genus=g, factors=n)
            cases += check_pullback_routes(
                {"genus": g, "factors": n, "max_co": params["max_co"]}, ctx,
                _pullback_grid(ctx, params))
    cases += check_incidence_betti([((0b0110, 0b1100), 0),  # {1, 2}, {2, 3}
                                    ((0b0110, 0b1100, 0b1010), 1),  # and {1, 3}
                                    ((0b0110, 0b1100, 0b1110), 2)])  # and {1, 2, 3}
    ground = 4
    tuples = connected_subset_tuples(ground, 3)
    for g in params["genus_values"]:
        cases += check_diagonal_products({"genus": g, "ground": ground},
                                         RingContext(genus=g, factors=ground), tuples)
    return cases


def suite_recursion(params):
    rng = random.Random(params["seed"])
    max_co = params["max_co"]
    order = min(params["series_max_t"], 6)
    grid = [(g, n, RingContext(genus=g, factors=n))
            for g in params["genus_values"] for n in params["n_values"]]
    cases = []
    for g, n, ctx in grid:
        cases += check_series_closed_form({"genus": g, "factors": n, "order": order},
                                          ctx, order)
    for g, n, ctx in grid:
        steps = [(ctx, v, m) for v in _vectors(n, max_co) if v and v[-1] >= 1
                 for m in range(1, n)]
        cases += check_cross_index({"genus": g, "factors": n, "max_co": max_co}, steps)
    if params["random_cases"]:
        steps = []
        for g in params["genus_values"]:
            ctx = RingContext(genus=g, factors=4)
            for _ in range(params["random_cases"]):
                v = tuple(rng.randrange(0, 3) for _ in range(3)) + (rng.randrange(1, 3),)
                steps.append((ctx, v, rng.randrange(1, 4)))
        cases += check_cross_index({"check": "cross-index-step-random", "factors": 4},
                                   steps)
    for g, n, ctx in grid:
        label = {"genus": g, "factors": n}
        vectors = _vectors(n, max_co)
        cases += check_cell_classes(label, ctx, vectors)
        budget = min(max_co + 2, 5)
        positive = [v for v in vectors if sum(v)]
        cases += check_product_filtration(
            dict(label, budget=budget), ctx,
            [(v, w) for v in positive for w in positive if sum(v) + sum(w) <= budget])
        cases += check_module_recursion(  # no factor 1 to recurse on at n = 0
            label, ctx, [(u, l) for u in itertools.product(range(3), repeat=n - 1)
                         if sum(u) <= max_co - 1
                         for l in range(1, max_co - sum(u) + 1)] if n else [])
    return cases


def suite_localization(params):
    cases = []
    r = params["rank"]
    for g in [g for g in params["genus_values"] if g <= 1]:
        for n in params["n_values"]:
            grid_v = [v for v in itertools.product(range(r), repeat=n)
                      if sum(v) <= params["max_co"]]
            grid_w = list(itertools.product(range(r), repeat=n))
            cases += check_localization({"genus": g, "factors": n, "rank": r},
                                        RingContext(genus=g, factors=n, rank=r),
                                        grid_v, grid_w)
    return cases


def suite_series(params):
    cases = []
    max_t = params["series_max_t"]
    for g in params["genus_values"]:
        for r in (1, 2, 3):
            cases += check_quot_series(g, r, 4, max_t)
        for r in (1, 2, 3):
            for n in (1, 2, 3, 4):
                cases += check_filt_presentation(g, r, n)
    for g in (0, 1):
        cases += check_infinite_limits(g, max_t)
    for g in params["genus_values"]:
        cases += check_symmetric_dimensions(g, (0, 1, 2, 3))
    return cases


def suite_ranks(params):
    cases = []
    max_degree = params["max_degree"]
    genera = [g for g in params["genus_values"] if g <= 1]
    for g in genera:
        for n in params["n_values"]:
            ctx = RingContext(genus=g, factors=n)
            cases += check_pullback_invariance({"genus": g, "factors": n}, ctx,
                                               _pullback_grid(ctx, params))
            cases += check_span_rank({"genus": g, "factors": n, "max_degree": max_degree},
                                     ctx, range(max_degree + 1))
    for g in genera:
        cases += check_generator_span({"genus": g, "factors": 2, "max_degree": max_degree},
                                      RingContext(genus=g, factors=2), max_degree)
    return cases


def run_suites(names, overrides=None, stats=None) -> dict:
    """Run the named suites with the DEFAULTS grids, as overridden; the
    suite named `name` is the function `suite_<name>`.

    When `stats` is a list, one entry per suite is appended to it: the
    suite's wall time and, per case, its inputs, its checked count and its
    wall time, counted from the end of the suite's previous case (so work
    that one check shares between its cases falls on the first of them).
    """
    params = dict(DEFAULTS)
    if overrides:
        params.update({k: v for k, v in overrides.items() if v is not None})
    reports = []
    for name in names:
        suite = globals().get("suite_%s" % name)
        if suite is None:
            raise ValueError("unknown suite %r" % name)
        started = time.perf_counter()
        # a suite left with no cases checks nothing and fails, as one
        # failed case that names the empty grid
        cases = suite(params) or [
            _case({"check": "non-empty-grid"}, "at least one case", None, False, 0)]
        if stats is not None:
            ends = [c["finished"] for c in cases]
            stats.append({
                "suite": name,
                "seconds": time.perf_counter() - started,
                "cases": [{"inputs": c["inputs"], "checked": c["checked"],
                           "seconds": end - begin}
                          for c, begin, end in zip(cases, [started] + ends, ends)],
            })
        passed = sum(1 for c in cases if c["pass"])
        reports.append({
            "suite": name,
            "cases": [{key: c[key] for key in REPORTED} for c in cases],
            "summary": {"total": len(cases), "passed": passed,
                        "failed": len(cases) - passed},
        })
    return {
        "reports": reports,
        "ok": not any(r["summary"]["failed"] for r in reports),
    }
