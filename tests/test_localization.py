"""Fixed-point restriction and the localization lemma checks."""

import itertools
import random

import pytest

from quotcells import localization
from quotcells.cells import cell_class_equivariant
from quotcells.localization import (degree_bound_check, omega_at_fixed_point,
                                    restrict_to_fixed_point, t_degree,
                                    top_term, top_term_product,
                                    top_term_residual, vanishing_check)
from quotcells.ring import RingContext, RingElement, diagonal

from conftest import random_homogeneous


class TestRestriction:
    def test_single_factor_generic_point(self):
        ctx = RingContext(genus=0, factors=1, rank=4)
        x = cell_class_equivariant(ctx, (2,))
        got = restrict_to_fixed_point(x, (3,))
        t = ctx.t_var
        assert got == (t(3) - t(0)) * (t(3) - t(1))

    def test_single_factor_vanishing(self):
        # hits the (t_1 - t_1) factor
        ctx = RingContext(genus=0, factors=1, rank=4)
        x = cell_class_equivariant(ctx, (2,))
        assert restrict_to_fixed_point(x, (1,)).is_zero()

    def test_constants_fixed(self):
        ctx = RingContext(genus=1, factors=2, rank=2)
        assert restrict_to_fixed_point(ctx.one(), (1, 0)) == ctx.one()

    def test_equal_weight_diagonal_correction(self):
        ctx = RingContext(genus=1, factors=2, rank=2)
        image = omega_at_fixed_point(ctx, 2, (0, 0))
        assert image == ctx.t_var(0) - diagonal(ctx, 1, 2)

    def test_ring_homomorphism(self):
        ctx = RingContext(genus=1, factors=2, rank=2)
        rng = random.Random(41)
        w = (1, 0)
        for _ in range(8):
            x = random_homogeneous(ctx, rng.choice((2, 3)), rng)
            y = random_homogeneous(ctx, rng.choice((1, 2)), rng)
            assert restrict_to_fixed_point(x * y, w) == \
                restrict_to_fixed_point(x, w) * restrict_to_fixed_point(y, w)

    def test_non_equivariant_rejected(self):
        ctx = RingContext(genus=0, factors=1)
        with pytest.raises(ValueError):
            restrict_to_fixed_point(ctx.one(), (0,))

    def test_line_bundle_degrees_enter(self):
        ctx = RingContext(genus=0, factors=1, rank=2, degrees=(0, 3))
        image = omega_at_fixed_point(ctx, 1, (1,))
        assert image == ctx.t_var(1) + 3 * ctx.pt(1)

    @pytest.mark.parametrize("w", [(0,), (1, 0, 0), (-1, 0), (0, 2)])
    def test_bad_fixed_point_rejected(self, w):
        ctx = RingContext(genus=0, factors=2, rank=2)
        with pytest.raises(ValueError):
            restrict_to_fixed_point(ctx.one(), w)


def restrict_term_by_term(x, w):
    """Reference restriction: one product per input term and per nonzero
    omega exponent."""
    ctx = x.ctx
    acc = ctx.zero()
    for (letters, omega, t), c in x.coeffs.items():
        term = RingElement(ctx, {(letters, (0,) * ctx.factors, t): c})
        for i, e in enumerate(omega, start=1):
            if e:
                term = term * omega_at_fixed_point(ctx, i, w) ** e
        acc = acc + term
    return acc


class TestGroupedRestriction:
    """Restriction with the terms grouped by omega vector against the
    term-by-term reference, on every cell class and fixed point of small
    grids, with trivial and nonzero line-bundle degrees."""

    @pytest.mark.parametrize("g,n,rank,degrees", [
        (0, 2, 2, ()), (1, 2, 2, (0, 2)), (0, 2, 3, (1, -1, 2)),
        (1, 2, 3, (1, -1, 2)), (0, 3, 2, ()), (1, 3, 2, (0, 2)),
    ])
    def test_matches_term_by_term(self, g, n, rank, degrees):
        ctx = RingContext(genus=g, factors=n, rank=rank, degrees=degrees)
        points = list(itertools.product(range(rank), repeat=n))
        for v in points:
            x = cell_class_equivariant(ctx, v)
            for w in points:
                assert restrict_to_fixed_point(x, w) == restrict_term_by_term(x, w)


class TestTopTerm:
    def test_examples(self):
        ctx = RingContext(genus=1, factors=2, rank=2)
        f = ctx.t_var(0) ** 2 + ctx.t_var(1) * diagonal(ctx, 1, 2)
        assert t_degree(f) == 2
        assert top_term(f) == ctx.t_var(0) ** 2

    def test_zero(self):
        ctx = RingContext(genus=0, factors=1, rank=1)
        assert t_degree(ctx.zero()) == float("-inf")
        assert top_term(ctx.zero()).is_zero()

    def test_restricted_diagonal_weight(self):
        # n=1, v=(2), w=v: top term is (t_2-t_0)(t_2-t_1)
        ctx = RingContext(genus=0, factors=1, rank=3)
        x = cell_class_equivariant(ctx, (2,))
        restricted = restrict_to_fixed_point(x, (2,))
        assert top_term(restricted) == top_term_product(ctx, (2,), (2,))


class TestLemmaChecks:
    def test_worked_example(self):
        # v=(0,1), w=(1,2): top term is t_2 - t_0
        ctx = RingContext(genus=1, factors=2, rank=3)
        assert top_term_residual(ctx, (0, 1), (1, 2)).is_zero()

    def test_zero_weight(self):
        ctx = RingContext(genus=0, factors=2, rank=2)
        assert top_term_residual(ctx, (0, 0), (1, 1)).is_zero()

    def test_requires_domination(self):
        ctx = RingContext(genus=0, factors=2, rank=2)
        with pytest.raises(ValueError):
            top_term_residual(ctx, (1, 1), (0, 1))

    def test_vanishing_example(self):
        ctx = RingContext(genus=0, factors=1, rank=3)
        assert vanishing_check(ctx, (2,), (1,))

    def test_domination_test_matches_permutation_loop(self, monkeypatch):
        # vanishing_check restricts only when no reordering of v lies
        # under w; with a nonzero stub restriction it returns exactly that
        # test, compared here with a loop over every reordering of v
        monkeypatch.setattr(localization, "cell_class_equivariant",
                            lambda ctx, v: ctx.one())
        monkeypatch.setattr(localization, "restrict_to_fixed_point",
                            lambda x, w: x)
        pairs = 0
        for n in range(1, 5):
            ctx = RingContext(genus=0, factors=n, rank=4)
            vectors = list(itertools.product(range(4), repeat=n))
            for v in vectors:
                reorderings = set(itertools.permutations(v))
                for w in vectors:
                    expected = any(all(a <= b for a, b in zip(p, w))
                                   for p in reorderings)
                    assert vanishing_check(ctx, v, w) == expected, (v, w)
                    pairs += 1
        assert pairs == 69904

    def test_degree_bound_identity_permutation(self):
        ctx = RingContext(genus=1, factors=2, rank=3)
        assert degree_bound_check(ctx, (2, 1), (2, 1))
        assert degree_bound_check(ctx, (2, 1), (1, 2))

    def test_degree_bound_needs_reordering(self):
        ctx = RingContext(genus=0, factors=2, rank=3)
        with pytest.raises(ValueError):
            degree_bound_check(ctx, (1, 0), (2, 0))

    def test_exhaustive_small_grid(self):
        # all three lemma checks, n=2, r<=3, co(v)<=3, including the
        # converse top-degree direction
        for g in (0, 1):
            for r in (2, 3):
                ctx = RingContext(genus=g, factors=2, rank=r)
                for v in itertools.product(range(r), repeat=2):
                    if sum(v) > 3:
                        continue
                    x = cell_class_equivariant(ctx, v)
                    for w in itertools.product(range(r), repeat=2):
                        restricted = restrict_to_fixed_point(x, w)
                        dominated = all(a <= b for a, b in zip(v, w))
                        if dominated:
                            assert top_term_residual(ctx, v, w).is_zero()
                            assert t_degree(restricted) == sum(v)
                        else:
                            assert t_degree(restricted) != sum(v)
                        assert vanishing_check(ctx, v, w)
                        if sorted(v) == sorted(w):
                            assert degree_bound_check(ctx, v, w)
