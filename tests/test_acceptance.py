"""Acceptance criteria: the checks of the verification catalogue
(quotcells.suites) run exactly (rational arithmetic, tolerance zero) on
the stated grids.  This module only builds the grids; the checks are the
ones `quotcells verify` runs.  One pass/fail line per criterion is
printed; run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
import random
import time

from quotcells import suites
from quotcells.ring import RingContext
from quotcells.weights import connected_components, decreasing_vectors

@functools.lru_cache(maxsize=None)
def _ctx(genus, factors, rank=0):
    return RingContext(genus=genus, factors=factors, rank=rank)


def _report(name, cases, started, checked):
    """Print one line for the criterion; every case must pass, and the
    inputs checked must add up to the size of the criterion's grid."""
    failed = [c for c in cases if not c["pass"]]
    total = sum(c["checked"] for c in cases)
    line = "%s %s (%.1fs) %d inputs checked%s" % (
        name, "FAIL" if failed else "PASS", time.time() - started, total,
        ", first failure: %s got %s" % (failed[0]["inputs"], failed[0]["got"])
        if failed else "")
    print(line)
    assert not failed, line
    assert total == checked, line


# A1 grid: decreasing u with co <= 4 at n in {2,3}, co <= 3 at n = 4,
# twists over stabilizer-invariant classes of degree <= 4, genus <= 2.
_A1_GRID = [(g, n, 4) for g in (0, 1, 2) for n in (2, 3)] + \
           [(g, 4, 3) for g in (0, 1, 2)]


@functools.lru_cache(maxsize=None)
def _a1_cases():
    """A1's route comparisons and A5's invariance tests over the same
    pullbacks, so that each pullback is computed once."""
    routes, invariance = [], []
    for g, n, max_co in _A1_GRID:
        ctx = _ctx(g, n)
        classes = suites.pullback_classes(
            ctx, decreasing_vectors(n, None, max_co=max_co), range(5))
        label = {"genus": g, "factors": n, "max_co": max_co}
        routes += suites.check_pullback_routes(label, ctx, classes)
        invariance += suites.check_pullback_invariance(label, ctx, classes)
    return routes, invariance


def test_a1_pullback_oracle_equivalence():
    started = time.time()
    _report("A1 combinatorial pullback == symmetrization oracle",
            _a1_cases()[0], started, 3275)


def test_a2_generating_function():
    started = time.time()
    cases = []
    for g in (0, 1, 2):
        for n in (1, 2, 3, 4):
            cases += suites.check_series_closed_form(
                {"genus": g, "factors": n, "order": 6}, _ctx(g, n), 6)
    _report("A2 cell-class series == closed product form up to t^6",
            cases, started, 84)


def test_a3_cross_index_identity():
    started = time.time()
    steps = [(_ctx(g, n), v, m) for g in (0, 1, 2) for n in (2, 3)
             for v in itertools.product(range(5), repeat=n)
             if sum(v) <= 4 and v[-1] >= 1 for m in range(1, n)]
    rng = random.Random(20260810)
    for _ in range(200):
        g = rng.choice((0, 1, 2))
        v = tuple(rng.randrange(0, 4) for _ in range(3)) + (rng.randrange(1, 4),)
        steps.append((_ctx(g, 4), v, rng.randrange(1, 4)))
    _report("A3 cross-index recursion residual == 0",
            suites.check_cross_index({"factors": "2-4"}, steps), started, 350)


def test_a4_diagonal_calculus():
    started = time.time()
    cases = suites.check_incidence_betti(
        [(({1, 2}, {2, 3}), 0),
         (({1, 2}, {2, 3}, {1, 3}), 1),
         (({1, 2}, {2, 3}, {1, 2, 3}), 2)])
    ground = 4
    subsets = [frozenset(s) for size in range(1, ground + 1)
               for s in itertools.combinations(range(1, ground + 1), size)]
    tuples = [sets for count in (1, 2, 3)
              for sets in itertools.product(subsets, repeat=count)
              if len(connected_components(sets)) == 1]
    for g in (0, 1, 2):
        cases += suites.check_diagonal_products(
            {"genus": g, "ground": ground}, _ctx(g, ground), tuples)
    _report("A4 diagonal products match the Betti classification",
            cases, started, 8772)


def test_a5_invariance_and_rank_equality():
    started = time.time()
    cases = list(_a1_cases()[1])
    for g in (0, 1):
        for n in (2, 3):
            cases += suites.check_span_rank({"genus": g, "factors": n},
                                            _ctx(g, n), range(9))
    _report("A5 pullbacks invariant; span rank == invariant dimension",
            cases, started, 7534)


def test_a6_localization_lemmas():
    started = time.time()
    cases = []
    for g in (0, 1):
        for n in (2, 3):
            for r in (2, 3):
                vs = [v for v in itertools.product(range(r), repeat=n)
                      if sum(v) <= 3]
                ws = list(itertools.product(range(r), repeat=n))
                cases += suites.check_localization(
                    {"genus": g, "factors": n, "rank": r}, _ctx(g, n, rank=r),
                    vs, ws)
    _report("A6 localization lemmas on the exhaustive grid", cases, started, 2654)


def test_a7_series_identities():
    started = time.time()
    cases = []
    for g in (0, 1, 2):
        for r in (1, 2, 3):
            cases += suites.check_quot_series(g, r, 4, 10)
            for n in (1, 2, 3, 4):
                cases += suites.check_filt_presentation(g, r, n)
    for g in (0, 1):
        cases += suites.check_infinite_limits(g, 10)
    _report("A7 Poincare series identities", cases, started, 103)


def test_a8_structural_invariants():
    started = time.time()
    cases = []
    for g in (0, 1, 2):
        for n in (2, 3):
            ctx = _ctx(g, n)
            label = {"genus": g, "factors": n}
            vectors = [v for v in itertools.product(range(5), repeat=n)
                       if sum(v) <= 4]
            cases += suites.check_cell_classes(label, ctx, vectors)
            positive = [v for v in vectors if sum(v)]
            cases += suites.check_product_filtration(
                label, ctx, [(v, w) for v in positive for w in positive
                             if sum(v) + sum(w) <= 5])
            cases += suites.check_module_recursion(
                label, ctx, [(u, l) for u in itertools.product(range(4), repeat=n - 1)
                             if sum(u) <= 3 for l in range(1, 5 - sum(u))])
    _report("A8 homogeneity, leading terms, product filtration, module "
            "recursion", cases, started, 1968)


def test_a9_generator_span():
    started = time.time()
    cases = []
    for g in (0, 1):
        cases += suites.check_generator_span({"genus": g, "factors": 2},
                                             _ctx(g, 2), 8)
    cases += suites.check_generator_span({"genus": 0, "factors": 3},
                                         _ctx(0, 3), 6)
    _report("A9 single-row pullbacks generate the invariant subring",
            cases, started, 25)
