"""Ring arithmetic: product table, Koszul signs, diagonal calculus,
permutation actions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcells.ring import (UNBOUNDED, UNIT, RingContext, RingElement, alpha,
                            beta, cohomological_degree, diagonal,
                            permute_factors, point_class, small_diagonal)
from quotcells.weights import transposition

from conftest import (embed, permutations, project_invariant,
                      random_homogeneous)


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

    def test_needs_increasing_indices(self, ctx_g1_n2):
        with pytest.raises(ValueError, match="need i < j"):
            diagonal(ctx_g1_n2, 2, 1)

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

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_small_diagonal_and_point_class_of_every_subset(self, g):
        """The chain from the first pairwise diagonal equals the chain from
        1, and the one-monomial point class the product of point classes,
        on every subset of 0-4 factors."""
        for size in range(5):
            for subset in itertools.combinations(range(1, 5), size):
                ctx = RingContext(genus=g, factors=4)
                chain = ctx.one()
                for a, b in zip(subset, subset[1:]):
                    chain = chain * diagonal(ctx, a, b)
                assert small_diagonal(ctx, subset) == chain
                points = ctx.one()
                for i in subset:
                    points = points * ctx.pt(i)
                assert point_class(ctx, subset) == points

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
        moved = permute_factors(transposition(2, 1, 2), x)
        assert moved == ctx.pt(2) * ctx.omega(2, 2)

    def test_omega_action_fixes_symmetrized_class(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        x = ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2)
        assert permute_factors(transposition(2, 1, 2), x) == x

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
                assert (permute_factors(sigma, x * y)
                        == permute_factors(sigma, x)
                        * permute_factors(sigma, y))

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

    def test_subtracting_a_number_adds_its_negation(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        x = ctx.one() + ctx.pt(1)
        assert x - 1 == x + (-1) == ctx.pt(1)
        assert 1 - x == 1 + (-x) == -ctx.pt(1)
        assert x - Fraction(1, 2) == x + (-Fraction(1, 2)) \
            == ctx.scalar(Fraction(1, 2)) + ctx.pt(1)
        assert x - ctx.one() == x + (-ctx.one()) == ctx.pt(1)

    def test_monomial_rejects_bad_shapes(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        with pytest.raises(ValueError, match="must have length 2"):
            ctx.monomial(letters=(UNIT,))
        with pytest.raises(ValueError, match="must have length 2"):
            ctx.monomial(omega=(1, 0, 0))
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            ctx.monomial(omega=(0, -1))
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            RingContext(genus=1, factors=2, rank=2).monomial(t=(1, -1))

    def test_t_index_must_be_non_negative(self):
        with pytest.raises(ValueError, match="t index must be >= 0"):
            RingContext(genus=0, factors=1, rank=2).t_var(-1)

    def test_negative_power_is_refused(self, ctx_g1_n2):
        with pytest.raises(ValueError, match="negative powers"):
            ctx_g1_n2.omega(1) ** -1

    def test_repr_is_the_canonical_text(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        assert repr(ctx.pt(1) - ctx.omega(2)) \
            == "<-1 * [one|one] w^(0,1) + 1 * [pt|one]>"

    @pytest.mark.parametrize("other", [0.5, None, "1", [1]])
    def test_other_operands_are_a_type_error(self, other):
        x = RingContext(genus=0, factors=1).pt(1)
        for operation in (lambda: x * other, lambda: other * x,
                          lambda: x + other, lambda: other + x,
                          lambda: x - other, lambda: other - x):
            with pytest.raises(TypeError):
                operation()


class TestHash:
    """An element that equals a number hashes as that number, so sets and
    dict keys agree with ==."""

    def test_numbers(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        assert ctx.one() == 1 and hash(ctx.one()) == hash(1)
        assert len({ctx.one(), 1}) == 1
        assert {1: "a"}.get(ctx.one()) == "a"
        assert hash(ctx.zero()) == hash(0) and len({ctx.zero(), 0}) == 1
        half = ctx.scalar(Fraction(1, 2))
        assert hash(half) == hash(Fraction(1, 2))
        assert hash(ctx.scalar(Fraction(4, 2))) == hash(2)

    def test_equal_elements_hash_equal(self, ctx_g1_n2):
        ctx = ctx_g1_n2
        x = ctx.pt(1) + ctx.omega(2)
        y = ctx.omega(2) * Fraction(1) + ctx.pt(1)
        assert x == y and hash(x) == hash(y)
        assert {x: "a"}.get(y) == "a"
        other = RingContext(genus=1, factors=2)
        assert other is not ctx and hash(other.one()) == hash(ctx.one())


class TestRingContext:
    """A context is a value: built positionally or by keyword, equal and
    hashed by its four parameters, with a fixed repr and no assignment."""

    BUILDS = pytest.mark.parametrize("build", [
        lambda g, n, r, d: RingContext(g, n, r, d),
        lambda g, n, r, d: RingContext(genus=g, factors=n, rank=r, degrees=d),
    ], ids=["positional", "keyword"])

    @BUILDS
    @pytest.mark.parametrize("params, text", [
        ((0, 1, 0, ()), "RingContext(genus=0, factors=1, rank=0, degrees=())"),
        ((1, 2, 0, ()), "RingContext(genus=1, factors=2, rank=0, degrees=())"),
        ((2, 3, 2, [1, -1]),
         "RingContext(genus=2, factors=3, rank=2, degrees=(1, -1))"),
        ((1, 2, UNBOUNDED, (4,)),
         "RingContext(genus=1, factors=2, rank=None, degrees=(4,))"),
    ])
    def test_value_contract(self, build, params, text):
        ctx = build(*params)
        g, n, r, d = params
        d = tuple(d)
        assert ctx.degrees == d and type(ctx.degrees) is tuple
        assert ctx == build(*params) and ctx is not build(*params)
        assert hash(ctx) == hash(build(*params)) == hash((g, n, r, d))
        assert ctx == RingContext(g, n, r, d)
        assert ctx != build(g + 1, n, r, d)
        assert not ctx == (g, n, r, d)
        assert ctx.__eq__((g, n, r, d)) is NotImplemented
        assert repr(ctx) == text
        for name in ("genus", "degrees", "_memo", "other"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, 1)
            with pytest.raises(AttributeError):
                delattr(ctx, name)
        assert (ctx.genus, ctx.factors, ctx.rank, ctx.degrees) == (g, n, r, d)

    @BUILDS
    def test_degrees_differ(self, build):
        for r in (2, UNBOUNDED):
            assert build(1, 2, r, (1, 0)) != build(1, 2, r, (0, 1))
            assert build(1, 2, r, (1, 0)) != build(1, 2, r, ())
        assert build(0, 1, UNBOUNDED, (3,)) != build(0, 1, UNBOUNDED, (3, 0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"genus": -1}, "genus and factors must be non-negative"),
        ({"factors": -1}, "genus and factors must be non-negative"),
        ({"genus": -1, "rank": -1}, "genus and factors must be non-negative"),
        ({"rank": -1}, "rank must be >= 0 or UNBOUNDED"),
        ({"rank": -1, "degrees": (1,)}, "rank must be >= 0 or UNBOUNDED"),
        ({"degrees": (1,)}, "rank-0 context carries no line-bundle degrees"),
        ({"rank": 2, "degrees": (1,)},
         "degrees must have length rank (or be empty)"),
        ({"rank": 2, "degrees": [1, 2, 3]},
         "degrees must have length rank (or be empty)"),
    ])
    def test_invalid_parameters(self, kwargs, message):
        positional = [kwargs.get(k, default) for k, default in
                      (("genus", 0), ("factors", 1), ("rank", 0), ("degrees", ()))]
        for build in (lambda: RingContext(**kwargs),
                      lambda: RingContext(*positional)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message


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
