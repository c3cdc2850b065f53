"""Ring arithmetic: product table, Koszul signs, diagonal calculus,
permutation actions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcells.ring import (RingContext, RingElement, alpha,
                            beta, cohomological_degree, diagonal,
                            permute_factors, permute_factors_omega,
                            point_class, project_invariant, small_diagonal)
from quotcells.weights import permutations, transposition

from conftest import embed, random_homogeneous


class TestProductTable:
    def test_unit_is_neutral(self, ctx_g1_n2):
        x = ctx_g1_n2.letter_at(1, alpha(1)) * ctx_g1_n2.omega(2)
        assert ctx_g1_n2.one() * x == x

    def test_symplectic_pairs(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        a = ctx.letter_at(1, alpha(1))
        b = ctx.letter_at(1, beta(1))
        assert a * b == ctx.pt(1)
        assert b * a == -ctx.pt(1)

    def test_point_kills_positive_degree(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        assert (ctx.pt(1) * ctx.pt(1)).is_zero()
        assert (ctx.pt(1) * ctx.letter_at(1, alpha(1))).is_zero()

    def test_mixed_indices_vanish(self):
        ctx = RingContext(genus=2, factors=1)
        a1 = ctx.letter_at(1, alpha(1))
        b2 = ctx.letter_at(1, beta(2))
        assert (a1 * b2).is_zero()
        assert (a1 * a1).is_zero()

    def test_koszul_sign_crossing(self, ctx_g1_n2):
        # (1 (x) a1) * (b1 (x) 1) = -(b1 (x) a1): two odd letters cross
        ctx = ctx_g1_n2
        x = ctx.letter_at(2, alpha(1))
        y = ctx.letter_at(1, beta(1))
        expected = RingElement(ctx, {((beta(1), alpha(1)), (0, 0), ()): Fraction(-1)})
        assert x * y == expected

    def test_context_mismatch(self, ctx_g0_n2, ctx_g1_n2):
        with pytest.raises(ValueError):
            ctx_g0_n2.one() * ctx_g1_n2.one()


class TestDiagonal:
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_square_is_euler_times_point(self, g):
        ctx = RingContext(genus=g, factors=2)
        D = diagonal(ctx, 1, 2)
        assert D * D == (2 - 2 * g) * point_class(ctx, (1, 2))

    def test_genus_zero_shape(self, ctx_g0_n2):
        assert diagonal(ctx_g0_n2, 1, 2) == ctx_g0_n2.pt(1) + ctx_g0_n2.pt(2)

    @pytest.mark.parametrize("g", [1, 2])
    def test_transfers_curve_classes(self, g):
        ctx = RingContext(genus=g, factors=2)
        D = diagonal(ctx, 1, 2)
        for code in ctx.curve_basis():
            assert D * ctx.letter_at(1, code) == D * ctx.letter_at(2, code)

    def test_swap_invariant(self, ctx_g1_n2):
        D = diagonal(ctx_g1_n2, 1, 2)
        assert permute_factors(transposition(2, 1, 2), D) == D

    def test_small_diagonal_tree_independence(self):
        ctx = RingContext(genus=2, factors=3)
        d12 = diagonal(ctx, 1, 2)
        d13 = diagonal(ctx, 1, 3)
        d23 = diagonal(ctx, 2, 3)
        chain = small_diagonal(ctx, (1, 2, 3))
        assert chain == d12 * d23
        assert chain == d13 * d23
        assert chain == d12 * d13

    def test_degenerate_subsets(self):
        ctx = RingContext(genus=1, factors=3)
        assert small_diagonal(ctx, (3,)) == ctx.one()
        assert small_diagonal(ctx, ()) == ctx.one()
        assert small_diagonal(ctx, (1, 2)) == diagonal(ctx, 1, 2)

    def test_small_diagonal_memo(self):
        ctx = RingContext(genus=1, factors=3)
        first = small_diagonal(ctx, (3, 1, 2))
        assert small_diagonal(ctx, [1, 2, 3, 3]) is first
        assert first == diagonal(ctx, 1, 2) * diagonal(ctx, 2, 3)
        for _ in range(2):  # a bad factor is refused on every call
            with pytest.raises(ValueError):
                small_diagonal(ctx, (1, 4))


class TestActions:
    def test_swap_two_odd_letters(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        x = RingElement(ctx, {((alpha(1), beta(1)), (0, 0), ()): Fraction(1)})
        swapped = permute_factors(transposition(2, 1, 2), x)
        assert swapped == RingElement(
            ctx, {((beta(1), alpha(1)), (0, 0), ()): Fraction(-1)})

    def test_swap_even_letters_no_sign(self, ctx_g0_n2):
        ctx = ctx_g0_n2
        assert permute_factors(transposition(2, 1, 2), ctx.pt(1)) == ctx.pt(2)

    def test_identity_action(self, ctx_g1_n2):
        x = diagonal(ctx_g1_n2, 1, 2) * ctx_g1_n2.omega(1)
        assert permute_factors((0, 1), x) == x

    def test_omega_action_moves_omega(self, ctx_g0_n2):
        # swap on p_1(pt) w_1^2 gives p_2(pt) w_2^2
        ctx = ctx_g0_n2
        x = ctx.pt(1) * ctx.omega(1, 2)
        moved = permute_factors_omega(transposition(2, 1, 2), x)
        assert moved == ctx.pt(2) * ctx.omega(2, 2)

    def test_omega_action_fixes_symmetrized_class(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        x = ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2)
        assert permute_factors_omega(transposition(2, 1, 2), x) == x

    def test_group_action_law(self):
        ctx = RingContext(genus=1, factors=3)
        rng = random.Random(11)
        x = random_homogeneous(ctx, 3, rng, terms=4)
        from conftest import compose
        for sigma in permutations(3):
            for tau in permutations(3):
                lhs = permute_factors(compose(sigma, tau), x)
                rhs = permute_factors(sigma, permute_factors(tau, x))
                assert lhs == rhs

    def test_omega_action_is_ring_automorphism(self):
        ctx = RingContext(genus=1, factors=3)
        rng = random.Random(5)
        for sigma in permutations(3):
            for _ in range(3):
                x = random_homogeneous(ctx, rng.choice((1, 2, 3)), rng)
                y = random_homogeneous(ctx, rng.choice((1, 2, 3)), rng)
                assert (permute_factors_omega(sigma, x * y)
                        == permute_factors_omega(sigma, x)
                        * permute_factors_omega(sigma, y))

    def test_project_invariant(self):
        ctx = RingContext(genus=1, factors=2)
        x = ctx.letter_at(1, alpha(1))
        averaged = project_invariant(permutations(2), x)
        expected = (ctx.letter_at(1, alpha(1)) + ctx.letter_at(2, alpha(1))) \
            * Fraction(1, 2)
        assert averaged == expected
        assert project_invariant(permutations(2), averaged) == averaged


class TestStructure:
    def test_embed(self):
        small = RingContext(genus=1, factors=1)
        big = RingContext(genus=1, factors=3)
        x = embed(small.omega(1), big)
        assert x == big.omega(1)
        y = embed(small.letter_at(1, alpha(1)), big)
        assert y == big.letter_at(1, alpha(1))

    def test_embed_is_ring_hom(self):
        small = RingContext(genus=1, factors=2)
        big = RingContext(genus=1, factors=4)
        a = small.letter_at(1, alpha(1)) * small.omega(2)
        b = diagonal(small, 1, 2)
        assert embed(a * b, big) == embed(a, big) * embed(b, big)

    def test_embed_rejects_mismatched_context(self):
        with pytest.raises(ValueError):
            embed(RingContext(genus=1, factors=1).one(),
                  RingContext(genus=2, factors=2))

    def test_degree(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        assert cohomological_degree(ctx.one()) == 0
        assert cohomological_degree(ctx.omega(1)) == 2
        assert cohomological_degree(ctx.letter_at(1, alpha(1))) == 1
        assert cohomological_degree(ctx.zero()) is None
        assert cohomological_degree(ctx.one() + ctx.omega(1)) == "inhomogeneous"

    def test_degree_additive(self):
        ctx = RingContext(genus=2, factors=2)
        rng = random.Random(3)
        for _ in range(10):
            x = random_homogeneous(ctx, rng.choice((1, 2, 3)), rng)
            y = random_homogeneous(ctx, rng.choice((1, 2, 3)), rng)
            if x.is_zero() or y.is_zero() or (x * y).is_zero():
                continue
            assert (cohomological_degree(x * y)
                    == cohomological_degree(x) + cohomological_degree(y))

    def test_letter_range_check(self):
        ctx = RingContext(genus=1, factors=1)
        with pytest.raises(ValueError):
            ctx.letter_at(1, alpha(2))

    def test_rank_zero_has_no_t(self):
        ctx = RingContext(genus=0, factors=1)
        with pytest.raises(ValueError):
            ctx.t_var(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.data())
def test_associativity_and_graded_commutativity(genus, data):
    ctx = RingContext(genus=genus, factors=2)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    degrees = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(0, 3)))
    x, y, z = (random_homogeneous(ctx, d, rng) for d in degrees)
    assert (x * y) * z == x * (y * z)
    sign = -1 if (degrees[0] * degrees[1]) % 2 else 1
    assert x * y == sign * (y * x)
