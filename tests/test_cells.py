"""Cell classes: recursion values, equivariant variant, symmetrization,
cell-basis conversion, checked identities and generating series."""

import itertools
import random

import pytest

from quotcells import suites
from quotcells.cells import (_step_pieces, cell_class, cell_class_equivariant,
                             cell_class_series,
                             cell_class_series_closed_form,
                             complete_homogeneous,
                             lower_index_step_residual,
                             module_recursion_residual, to_cell_basis)
from quotcells.grammar import format_element
from quotcells.ring import (UNBOUNDED, RingContext, RingElement, alpha,
                            cohomological_degree, diagonal, top_part)
from quotcells.weights import mover, swap_entries

from conftest import (assert_read_only, embed, from_cell_basis, permutations,
                      project_invariant, random_homogeneous,
                      specialize_t_zero, symmetrized_cell_class)


class TestCellCacheIsReadOnly:
    """cell_class hands out its cached element; writing through the
    returned element must not change later results."""

    @pytest.mark.parametrize("rank, cell", [(0, cell_class),
                                            (3, cell_class_equivariant)])
    def test_cached_class_cannot_be_poisoned(self, rank, cell):
        ctx = RingContext(genus=1, factors=2, rank=rank)
        x = cell(ctx, (0, 2))
        assert_read_only(x)
        assert cell(ctx, (0, 2)) is x
        assert x == cell(RingContext(genus=1, factors=2, rank=rank), (0, 2))
        assert x


@pytest.mark.parametrize("rank, v, message", [
    (3, (1, 5, 4), "entry 5 out of range for rank 3"),
    (3, (3, 0, -1), "weight entries must be non-negative"),
    (3, (-2, 7, 0), "weight entries must be non-negative"),
    (UNBOUNDED, (9, -1, 0), "weight entries must be non-negative"),
    (0, (0, -3, 0), "weight entries must be non-negative"),
])
def test_entry_check_names_the_first_bad_entry(rank, v, message):
    # one min/max test decides; the message is the per-entry loops'
    ctx = RingContext(genus=0, factors=3, rank=rank)
    with pytest.raises(ValueError, match="^%s$" % message):
        cell_class(ctx, v)
    cell_class(ctx, (0, 2, 1))
    if rank is UNBOUNDED:
        cell_class(ctx, (9, 0, 4))


def reference_cell(ctx, v, eq, memo):
    """The descent recursion in element arithmetic, memoized in `memo`:
    cell(v) = step * cell(u) + sum_k diag_{k,j} * cell(swap_{k,j} u), with
    step = omega_j - d_{u_j} pt_j [- t_{u_j}] built from the public
    generators."""
    if v not in memo:
        nonzero = [i for i, e in enumerate(v, 1) if e]
        if not nonzero:
            memo[v] = ctx.one()
        else:
            j = nonzero[-1]
            u = v[:j - 1] + (v[j - 1] - 1,) + v[j:]
            step = ctx.omega(j) - ctx.bundle_degree(u[j - 1]) * ctx.pt(j)
            if eq:
                step = step - ctx.t_var(u[j - 1])
            result = step * reference_cell(ctx, u, eq, memo)
            for k in range(1, j):
                if u[k - 1] <= u[j - 1]:
                    result = result + diagonal(ctx, k, j) * reference_cell(
                        ctx, swap_entries(u, k, j), eq, memo)
            memo[v] = result
    return memo[v]


# (rank, degrees): rank 0, bounded and unbounded, with degrees of both signs
_RECURSION_CONTEXTS = [(0, ()), (3, ()), (3, (2, -1, 3)), (UNBOUNDED, ()),
                       (UNBOUNDED, (-2, 1))]


class TestRecursionAgainstElementArithmetic:
    """The cold recursion, which multiplies the step's one-term pieces into
    one term dict, against the recursion written with element `*` and
    `+`."""

    @pytest.mark.parametrize("rank, degrees", _RECURSION_CONTEXTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("genus", [0, 1, 2])
    def test_cold_cell_matches_the_reference(self, genus, n, rank, degrees):
        top = 5 if rank in (0, UNBOUNDED) else rank
        ref_ctx = RingContext(genus=genus, factors=n, rank=rank, degrees=degrees)
        for eq in (False, True) if rank != 0 else (False,):
            cell = cell_class_equivariant if eq else cell_class
            memo = {}
            for v in itertools.product(range(top), repeat=n):
                if sum(v) > 4:
                    continue
                cold = RingContext(genus=genus, factors=n, rank=rank,
                                   degrees=degrees)
                got = cell(cold, v)
                expected = reference_cell(ref_ctx, v, eq, memo)
                assert got == expected, (v, eq)
                assert format_element(got) == format_element(expected), (v, eq)

    @pytest.mark.parametrize("rank, degrees", _RECURSION_CONTEXTS[1:])
    def test_step_factor_is_the_element_difference(self, rank, degrees):
        ctx = RingContext(genus=1, factors=3, rank=rank, degrees=degrees)
        for j in (1, 2, 3):
            for entry in (0, 1, 2):
                d = ctx.bundle_degree(entry)
                plain = ctx.omega(j) - d * ctx.pt(j)
                assert sum(_step_pieces(ctx, j, entry, False)) == plain
                assert (sum(_step_pieces(ctx, j, entry, True))
                        == plain - ctx.t_var(entry))

    def test_a_chain_without_swaps_makes_no_element_arithmetic(self, monkeypatch):
        # at n = 1 every step is step * cell(u) alone: the step's pieces go
        # through the kernel, with no RingElement *, + or -
        calls = []
        for name in ("__mul__", "__add__", "__sub__"):
            original = getattr(RingElement, name)

            def counted(self, other, name=name, original=original):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(RingElement, name, counted)
        ctx = RingContext(genus=1, factors=1, rank=4, degrees=(1, -2, 0, 3))
        got = cell_class_equivariant(ctx, (3,))
        assert calls == []
        monkeypatch.undo()
        assert got == reference_cell(ctx, (3,), True, {})


class TestCellClass:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_single_factor_is_omega_power(self, l):
        ctx = RingContext(genus=1, factors=1)
        assert cell_class(ctx, (l,)) == ctx.omega(1) ** l

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_two_factor_values(self, g):
        ctx = RingContext(genus=g, factors=2)
        w1, w2 = ctx.omega(1), ctx.omega(2)
        D = diagonal(ctx, 1, 2)
        assert cell_class(ctx, (0, 0)) == ctx.one()
        assert cell_class(ctx, (1, 0)) == w1
        assert cell_class(ctx, (0, 1)) == w2 + D
        assert cell_class(ctx, (1, 1)) == w1 * w2
        assert cell_class(ctx, (0, 2)) == w2 * w2 + D * (w1 + w2)

    def test_long_unit_weight_adds_no_mover_entries(self):
        """The descent swaps weight entries directly: the class of
        (0,)*300 + (1,), omega_n plus the diagonals of n with each earlier
        factor, grows weights.mover by at most one entry."""
        n = 301
        ctx = RingContext(genus=1, factors=n)
        size = mover.cache_info().currsize
        got = cell_class(ctx, (0,) * (n - 1) + (1,))
        assert mover.cache_info().currsize <= size + 1
        assert got == sum((diagonal(ctx, k, n) for k in range(1, n)),
                          ctx.omega(n))

    def test_trailing_zero_matches_embedding(self):
        small = RingContext(genus=1, factors=2)
        big = RingContext(genus=1, factors=4)
        assert cell_class(big, (0, 2, 0, 0)) == embed(cell_class(small, (0, 2)), big)

    def test_bounded_rank_rejects_large_entries(self):
        ctx = RingContext(genus=0, factors=2, rank=1)
        with pytest.raises(ValueError):
            cell_class(ctx, (0, 2))

    def test_line_bundle_degrees(self):
        # one factor: the recursion multiplies (w - d_i pt) over i < l
        ctx = RingContext(genus=0, factors=1, rank=None, degrees=(3, 5))
        w, pt = ctx.omega(1), ctx.pt(1)
        assert cell_class(ctx, (2,)) == (w - 5 * pt) * (w - 3 * pt)

    def test_homogeneity_and_leading_term(self):
        for g in (0, 1):
            ctx = RingContext(genus=g, factors=3)
            for v in itertools.product(range(3), repeat=3):
                if sum(v) > 4:
                    continue
                x = cell_class(ctx, v)
                assert cohomological_degree(x) == 2 * sum(v)
                assert top_part(x, 1) == ctx.monomial(omega=v)

    def test_homogeneity_four_factors(self):
        ctx = RingContext(genus=1, factors=4)
        for v in itertools.product(range(6), repeat=4):
            if sum(v) > 5:
                continue
            x = cell_class(ctx, v)
            assert cohomological_degree(x) == 2 * sum(v)
            assert top_part(x, 1) == ctx.monomial(omega=v)


class TestEquivariant:
    def test_single_factor(self):
        ctx = RingContext(genus=0, factors=1, rank=3)
        w = ctx.omega(1)
        assert cell_class_equivariant(ctx, (2,)) == \
            (w - ctx.t_var(0)) * (w - ctx.t_var(1))

    def test_t_zero_specialization(self):
        ctx = RingContext(genus=1, factors=2, rank=3)
        for v in itertools.product(range(3), repeat=2):
            assert specialize_t_zero(cell_class_equivariant(ctx, v)) \
                == cell_class(ctx, v)

    def test_zero_weight(self):
        ctx = RingContext(genus=2, factors=2, rank=2)
        assert cell_class_equivariant(ctx, (0, 0)) == ctx.one()

    def test_rank_zero_rejected(self):
        ctx = RingContext(genus=0, factors=1)
        with pytest.raises(ValueError):
            cell_class_equivariant(ctx, (1,))


class TestSymmetrized:
    def test_basic(self):
        ctx = RingContext(genus=1, factors=2)
        got = symmetrized_cell_class(ctx, (1, 0), ctx.one())
        assert got == ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2)

    def test_repeated_weight(self):
        ctx = RingContext(genus=0, factors=2)
        got = symmetrized_cell_class(ctx, (1, 1), ctx.one())
        assert got == 2 * ctx.omega(1) * ctx.omega(2)

    def test_zero_weight_gives_symmetrization(self):
        ctx = RingContext(genus=1, factors=2)
        a = ctx.letter_at(1, alpha(1))
        got = symmetrized_cell_class(ctx, (0, 0), a)
        assert got == 2 * project_invariant(permutations(2), a)

    def test_rejects_omega_twist(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            symmetrized_cell_class(ctx, (1, 0), ctx.omega(1))


class TestCellBasis:
    def test_round_trip_on_cell(self):
        ctx = RingContext(genus=1, factors=2)
        x = cell_class(ctx, (0, 2))
        assert to_cell_basis(x) == {(0, 2): ctx.one()}

    def test_single_omega(self):
        ctx = RingContext(genus=1, factors=2)
        got = to_cell_basis(ctx.omega(2))
        assert got == {(0, 1): ctx.one(), (0, 0): -diagonal(ctx, 1, 2)}

    def test_omega_free_input(self):
        ctx = RingContext(genus=1, factors=2)
        D = diagonal(ctx, 1, 2)
        assert to_cell_basis(D) == {(0, 0): D}

    def test_reconstruction_random(self):
        rng = random.Random(29)
        ctx = RingContext(genus=1, factors=2)
        for degree in (2, 3, 4, 5):
            x = random_homogeneous(ctx, degree, rng, terms=5)
            assert from_cell_basis(ctx, to_cell_basis(x)) == x

    def test_filtration_product_law(self):
        ctx = RingContext(genus=2, factors=2)
        vectors = [v for v in itertools.product(range(3), repeat=2)
                   if 0 < sum(v)]
        for v in vectors:
            for w in vectors:
                if sum(v) + sum(w) > 5:
                    continue
                target = tuple(a + b for a, b in zip(v, w))
                decomposition = to_cell_basis(cell_class(ctx, v) * cell_class(ctx, w))
                assert decomposition[target] == ctx.one()
                assert all(sum(u) <= sum(v) + sum(w) for u in decomposition)

    def test_coefficients_are_nonzero_and_rebuild_the_filtration_grid(self):
        """On the grid of verify's filtration-product law every coefficient
        is nonzero (each v is met once, with a whole omega layer) and the
        coefficients rebuild the product."""
        params = suites.DEFAULTS
        budget = min(params["max_co"] + 2, 5)
        pairs = 0
        for g in params["genus_values"]:
            for n in params["n_values"]:
                ctx = RingContext(genus=g, factors=n)
                positive = [v for v in suites._vectors(n, params["max_co"]) if sum(v)]
                for v, w in itertools.product(positive, repeat=2):
                    if sum(v) + sum(w) <= budget:
                        x = cell_class(ctx, v) * cell_class(ctx, w)
                        decomposition = to_cell_basis(x)
                        assert all(decomposition.values()), (g, v, w)
                        assert from_cell_basis(ctx, decomposition) == x, (g, v, w)
                        pairs += 1
        assert pairs == 978

    def test_rejects_t(self):
        ctx = RingContext(genus=0, factors=1, rank=2)
        with pytest.raises(ValueError, match="non-equivariant"):
            to_cell_basis(ctx.omega(1) + ctx.t_var(0))


class TestCheckedIdentities:
    def test_cross_index_basic(self):
        # n=2, v=(0,1), m=1: w_1 cell(0,1) = cell(1,1) + diag cell(1,0)
        ctx = RingContext(genus=1, factors=2)
        assert lower_index_step_residual(ctx, (0, 1), 1).is_zero()

    def test_cross_index_equal_entries(self):
        ctx = RingContext(genus=1, factors=2)
        assert lower_index_step_residual(ctx, (1, 1), 1).is_zero()

    def test_cross_index_exhaustive_small(self):
        for g in (0, 1, 2):
            ctx = RingContext(genus=g, factors=3)
            for v in itertools.product(range(4), repeat=3):
                if sum(v) > 3 or v[-1] < 1:
                    continue
                for m in (1, 2):
                    assert lower_index_step_residual(ctx, v, m).is_zero(), (g, v, m)

    def test_cross_index_equivariant(self):
        ctx = RingContext(genus=1, factors=2, rank=None)
        for v in ((0, 1), (1, 1), (0, 2), (2, 1)):
            assert lower_index_step_residual(ctx, v, 1, equivariant=True).is_zero()

    def test_cross_index_preconditions(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            lower_index_step_residual(ctx, (1, 0), 1)
        with pytest.raises(ValueError):
            lower_index_step_residual(ctx, (0, 1), 2)

    @pytest.mark.parametrize("v", [(1,), (0, 1, 1)])
    def test_cross_index_wrong_length(self, v):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            lower_index_step_residual(ctx, v, 1)

    def test_module_recursion_trivial_twist(self):
        ctx = RingContext(genus=1, factors=2)
        assert module_recursion_residual(ctx, (0,), 1, ctx.one()).is_zero()
        assert module_recursion_residual(ctx, (1,), 1, ctx.one()).is_zero()

    def test_module_recursion_odd_twist(self):
        # exercises the diagonal transfer of the twist class
        ctx = RingContext(genus=1, factors=2)
        a = ctx.letter_at(1, alpha(1))
        assert module_recursion_residual(ctx, (0,), 1, a).is_zero()
        assert module_recursion_residual(ctx, (2,), 2, a).is_zero()

    def test_module_recursion_three_factors(self):
        ctx = RingContext(genus=2, factors=3)
        a = ctx.letter_at(2, alpha(2))
        for u in ((0, 0), (1, 0), (1, 1), (2, 1)):
            for l in (1, 2):
                assert module_recursion_residual(ctx, u, l, a).is_zero()

    def test_module_recursion_argument_errors(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError, match="u must cover the first 1 slots"):
            module_recursion_residual(ctx, (0, 0), 1, ctx.one())
        with pytest.raises(ValueError, match="need l >= 1"):
            module_recursion_residual(ctx, (0,), 0, ctx.one())


class TestSeries:
    @pytest.mark.parametrize("g,n", [(0, 2), (1, 2), (2, 3)])
    def test_series_against_closed_form(self, g, n):
        ctx = RingContext(genus=g, factors=n)
        direct = cell_class_series(ctx, n, 4)
        closed = cell_class_series_closed_form(ctx, n, 4)
        assert direct == closed

    def test_low_coefficients(self):
        ctx = RingContext(genus=1, factors=2)
        closed = cell_class_series_closed_form(ctx, 2, 2)
        assert closed[0] == ctx.one()
        assert closed[1] == ctx.omega(2) + diagonal(ctx, 1, 2)
        assert closed[2] == ctx.omega(2) ** 2 \
            + diagonal(ctx, 1, 2) * (ctx.omega(1) + ctx.omega(2))

    def test_inner_index(self):
        # the series at an inner position only sees factors below it
        ctx = RingContext(genus=1, factors=3)
        direct = cell_class_series(ctx, 2, 3)
        closed = cell_class_series_closed_form(ctx, 2, 3)
        assert direct == closed

    def test_complete_homogeneous(self):
        ctx = RingContext(genus=0, factors=2)
        h2 = complete_homogeneous(ctx, (1, 2), 2)
        w1, w2 = ctx.omega(1), ctx.omega(2)
        assert h2 == w1 * w1 + w1 * w2 + w2 * w2
        assert complete_homogeneous(ctx, (1,), 0) == ctx.one()
