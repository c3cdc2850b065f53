"""Quot-scheme pullbacks: the two evaluation routes, partial flags,
symmetry and rank certificates."""

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from quotcells.cells import cell_class, complete_homogeneous
from quotcells.pullback import (average_twist, combinatorial_prefactor,
                                generator_span_check, invariant_dimension,
                                invariant_letter_classes, is_invariant,
                                partial_flag_pullback, quot_pullback,
                                quot_pullback_combinatorial, span_rank)
from quotcells.ring import (POINT, RingContext, RingElement, UNIT, alpha,
                            diagonal, letter_monomials, permute_factors,
                            permute_factors_omega, project_invariant,
                            small_diagonal)
from quotcells.weights import (admissible_row_tuples, apply_perm,
                               decreasing_vectors, permutations, stabilizer,
                               young_subgroup)

from conftest import (assert_read_only, compositions, invert,
                      monomials_of_degree, symmetrized_cell_class)
from test_series import decomposition_dimension_check


class TestOracle:
    def test_single_box(self):
        ctx = RingContext(genus=1, factors=2)
        got = quot_pullback(ctx, (1, 0))
        assert got == ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2)

    def test_repeated_weight_normalization(self):
        ctx = RingContext(genus=0, factors=2)
        assert quot_pullback(ctx, (1, 1)) == ctx.omega(1) * ctx.omega(2)

    def test_zero_weight(self):
        ctx = RingContext(genus=2, factors=3)
        assert quot_pullback(ctx, (0, 0, 0)) == ctx.one()

    def test_lenient_averages(self):
        ctx = RingContext(genus=1, factors=2)
        a = ctx.letter_at(1, alpha(1))
        averaged = project_invariant(permutations(2), a)
        assert quot_pullback(ctx, (1, 1), a) == quot_pullback(ctx, (1, 1), averaged)

    def test_requires_decreasing(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            quot_pullback(ctx, (0, 1))


class TestAverageTwist:
    @staticmethod
    def vectors(n):
        """Every vector with a repeated entry in {0, 1, 2}^n, decreasing or
        not, and a labelled (block, entry) vector of a partial flag."""
        out = [v for v in itertools.product(range(3), repeat=n)
               if len(set(v)) < n]
        if n >= 2:
            blocks = ((1,) * (n - 1), (0,))
            out.append(tuple((k, x) for k, b in enumerate(blocks) for x in b))
        return out

    def test_invariant_twist_is_returned_itself(self):
        ctx = RingContext(genus=1, factors=3)
        for u in decreasing_vectors(3, None, max_co=3):
            for d in (0, 1, 2, 3):
                for a in invariant_letter_classes(ctx, d, stabilizer(u)):
                    assert average_twist(ctx, u, a) is a, (u, a)

    def test_default_twist_is_one(self):
        ctx = RingContext(genus=1, factors=2)
        assert average_twist(ctx, (1, 1)) == ctx.one()

    @pytest.mark.parametrize("g", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_stabilizer_average(self, g, n):
        ctx = RingContext(genus=g, factors=n)
        twists = [RingElement(ctx, {(letters, (0,) * n, ()): 1})
                  for d in range(2 * n + 1)
                  for letters in letter_monomials(ctx, d)]
        for v in self.vectors(n):
            for a in twists:
                assert average_twist(ctx, v, a) \
                    == project_invariant(stabilizer(v), a), (v, a)

    def test_rejects_omega_twist(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            average_twist(ctx, (1, 1), ctx.omega(1))


class TestCombinatorialRoute:
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_single_box_any_genus(self, g):
        ctx = RingContext(genus=g, factors=2)
        got = quot_pullback_combinatorial(ctx, (1, 0))
        assert got == ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2)

    def test_zero_weight_projects(self):
        ctx = RingContext(genus=1, factors=2)
        a = ctx.letter_at(1, POINT)
        got = quot_pullback_combinatorial(ctx, (0, 0), a)
        assert got == project_invariant(permutations(2), a)

    def test_matches_oracle_exhaustively(self):
        for g in (0, 1, 2):
            for n in (2, 3):
                ctx = RingContext(genus=g, factors=n)
                for u in decreasing_vectors(n, None, max_co=3):
                    st = stabilizer(u)
                    for d in (0, 1, 2, 3):
                        for a in invariant_letter_classes(ctx, d, st):
                            assert quot_pullback_combinatorial(ctx, u, a) \
                                == quot_pullback(ctx, u, a), (g, n, u, d)

    def test_alternate_convention_fails_at_three_factors(self):
        # certifies the sum convention: the alternate reading, rows summing
        # to sigma^{-1}(u), disagrees with the oracle
        ctx = RingContext(genus=1, factors=3)
        mismatch = 0
        for u in decreasing_vectors(3, None, max_co=2):
            st = stabilizer(u)
            prefactors = unreduced_prefactors(ctx, u, invert)
            for d in (0, 1, 2, 3):
                for a in invariant_letter_classes(ctx, d, st):
                    alt = unreduced_sum(prefactors, u, a)
                    if alt != quot_pullback(ctx, u, a):
                        mismatch += 1
        assert mismatch > 0

    def test_requires_decreasing(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            quot_pullback_combinatorial(ctx, (0, 1))

    def test_rejects_nonzero_degrees(self):
        ctx = RingContext(genus=0, factors=2, rank=2, degrees=(1, 0))
        with pytest.raises(ValueError):
            quot_pullback_combinatorial(ctx, (1, 0))


def unreduced_prefactors(ctx, u, reading=lambda sigma: sigma):
    """sigma -> the prefactor sum over the row tuples of (u, reading(sigma)),
    for every sigma in S_n."""
    out = {}
    for sigma in permutations(ctx.factors):
        pref = ctx.zero()
        for rows in admissible_row_tuples(apply_perm(reading(sigma), u)):
            pref = pref + combinatorial_prefactor(ctx, rows)
        out[sigma] = pref
    return out


def unreduced_sum(prefactors, u, a):
    """(1/|St(u)|) sum over all of S_n of prefactors[sigma] sigma(a)."""
    acc = a.ctx.zero()
    for sigma, pref in prefactors.items():
        acc = acc + pref * permute_factors(sigma, a)
    return acc * Fraction(1, len(stabilizer(u)))


class TestOrbitReduction:
    """Each orbit sum against the unreduced group average it replaces,
    on genus 0-1, n <= 3, co <= 3 and twists of degree <= 2."""

    @staticmethod
    def grid():
        for g in (0, 1):
            for n in (1, 2, 3):
                yield RingContext(genus=g, factors=n)

    def test_oracle_route(self):
        for ctx in self.grid():
            for u in decreasing_vectors(ctx.factors, None, max_co=3):
                for d in (0, 1, 2):
                    for a in invariant_letter_classes(ctx, d, stabilizer(u)):
                        assert quot_pullback(ctx, u, a) * len(stabilizer(u)) \
                            == symmetrized_cell_class(ctx, u, a), (ctx, u, a)

    def test_combinatorial_route(self):
        for ctx in self.grid():
            n = ctx.factors
            for u in decreasing_vectors(n, None, max_co=3):
                prefactors = unreduced_prefactors(ctx, u)
                for d in (0, 1, 2):
                    for a in invariant_letter_classes(ctx, d, stabilizer(u)):
                        assert quot_pullback_combinatorial(ctx, u, a) \
                            == unreduced_sum(prefactors, u, a), (ctx, u, a)

    def test_partial_flag(self):
        for ctx in self.grid():
            n = ctx.factors
            positive = [tuple(p + 1 for p in c)
                        for k in range(1, n + 1) for c in compositions(n - k, k)]
            for composition in positive:
                group = young_subgroup(composition)
                for blocks in itertools.product(*(decreasing_vectors(size, None, 3)
                                                  for size in composition)):
                    v = sum(blocks, ())
                    if sum(v) > 3:
                        continue
                    stab = [sigma for sigma in group if apply_perm(sigma, v) == v]
                    twists = [ctx.letter_at(1, POINT)]
                    for d in (0, 1, 2):
                        twists += invariant_letter_classes(ctx, d, stab)
                    for a in twists:
                        averaged = project_invariant(stab, a)
                        unreduced = ctx.zero()
                        for sigma in group:
                            unreduced = unreduced + cell_class(ctx, apply_perm(sigma, v)) \
                                * permute_factors(sigma, averaged)
                        unreduced = unreduced * Fraction(1, len(stab))
                        assert partial_flag_pullback(ctx, composition, blocks, a) \
                            == unreduced, (ctx, composition, blocks, a)


class TestPartialFlag:
    def test_trivial_young_subgroup(self):
        ctx = RingContext(genus=1, factors=2)
        got = partial_flag_pullback(ctx, (1, 1), ((0,), (1,)))
        assert got == cell_class(ctx, (0, 1))

    def test_full_composition_is_quot_pullback(self):
        ctx = RingContext(genus=1, factors=2)
        assert partial_flag_pullback(ctx, (2,), ((1, 0),)) \
            == quot_pullback(ctx, (1, 0))

    def test_fixed_vector(self):
        ctx = RingContext(genus=0, factors=3)
        got = partial_flag_pullback(ctx, (2, 1), ((1, 1), (0,)))
        assert got == cell_class(ctx, (1, 1, 0))

    def test_shape_mismatch(self):
        ctx = RingContext(genus=0, factors=3)
        with pytest.raises(ValueError):
            partial_flag_pullback(ctx, (2, 1), ((1,), (1, 0)))


class TestSymmetryCertificates:
    def test_is_invariant_examples(self):
        ctx = RingContext(genus=1, factors=2)
        assert is_invariant(ctx.omega(1) + ctx.omega(2) + diagonal(ctx, 1, 2))
        assert not is_invariant(ctx.omega(1))

    def test_pullbacks_are_invariant(self):
        ctx = RingContext(genus=1, factors=3)
        for u in decreasing_vectors(3, None, max_co=3):
            for a in invariant_letter_classes(ctx, 2, stabilizer(u)):
                assert is_invariant(quot_pullback(ctx, u, a))

    def test_invariant_dimension_degree_zero(self):
        ctx = RingContext(genus=1, factors=2)
        assert invariant_dimension(ctx, 0) == 1

    def test_invariant_dimension_matches_span_small(self):
        # both routes computed independently must agree (genus 0, two
        # factors, degree 2)
        ctx = RingContext(genus=0, factors=2)
        from quotcells.pullback import quot_pullback_spanning_classes
        classes = quot_pullback_spanning_classes(ctx, 2)
        assert span_rank(classes, 2) == invariant_dimension(ctx, 2)

    def test_span_rank_rejects_inhomogeneous(self):
        ctx = RingContext(genus=0, factors=1)
        with pytest.raises(ValueError):
            span_rank([ctx.one() + ctx.omega(1)], 2)
        # zero and classes of another degree are skipped, not counted
        assert span_rank([ctx.zero(), ctx.one(), ctx.omega(1)], 2) == 1
        assert span_rank([ctx.zero(), ctx.one()], 2) == 0

    def test_spanning_classes_linear_independence(self):
        # strata dimensions sum to the span rank degree by degree
        ctx = RingContext(genus=0, factors=2)
        report = decomposition_dimension_check(ctx, 2, 6)
        assert report["pass"], report


def projector_trace(ctx: RingContext, basis) -> int:
    """Trace of the averaging projector of the omega-twisted action on the
    span of `basis`, a list of monomials closed under the action up to
    sign: the dimension of the invariants in that span.

    The action is a representation, so its trace is a class function and
    Burnside's average over S_n is a sum over cycle types weighted by
    class size."""
    n = ctx.factors
    total = 0
    for sigma, size in cycle_types(n):
        trace = 0
        for mono in basis:
            image = permute_factors_omega(sigma, RingElement(ctx, {mono: 1}))
            trace += image.coeffs.get(mono, 0)
        total += size * trace
    dim = Fraction(total, factorial(n))
    if dim.denominator != 1:
        raise AssertionError("projector trace is not an integer")
    return int(dim)


def cycle_types(n: int):
    """One permutation of each cycle type of S_n with the size n!/z of
    its conjugacy class, z = prod_k k^m_k m_k! for m_k cycles of length k;
    each cycle moves consecutive positions up by one."""
    for v in decreasing_vectors(n, max_co=n):
        if sum(v) != n:
            continue
        parts = [k for k in v if k]
        sigma = []
        for k in parts:
            start = len(sigma)
            sigma.extend(range(start + 1, start + k))
            sigma.append(start)
        z = prod(k ** parts.count(k) * factorial(parts.count(k))
                 for k in set(parts))
        yield tuple(sigma), factorial(n) // z


def trace_bases(ctx, degree):
    """The omega-twisted basis of invariant_dimension and the letters-only
    basis of the symmetric curve classes, in the given degree."""
    letters_only = [(letters, (0,) * ctx.factors, ())
                    for letters in letter_monomials(ctx, degree)]
    return [list(monomials_of_degree(ctx, degree)), letters_only]


def permutation_traces(ctx, basis):
    """sigma -> trace of the omega-twisted action of sigma on the span of
    the basis, for every sigma in S_n."""
    return {sigma: sum(permute_factors_omega(sigma, RingElement(ctx, {mono: 1}))
                       .coeffs.get(mono, 0) for mono in basis)
            for sigma in permutations(ctx.factors)}


def cycle_lengths(sigma):
    seen = set()
    lengths = []
    for start in range(len(sigma)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = sigma[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


class TestProjectorTrace:
    """The cycle-type projector trace against the Burnside sum over all
    of S_n, on genus 0-2, n <= 4 and degrees <= 6."""

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_sum_over_all_permutations(self, g, n):
        ctx = RingContext(genus=g, factors=n)
        for d in range(7):
            omega_twisted, letters_only = trace_bases(ctx, d)
            for basis in (omega_twisted, letters_only):
                traces = permutation_traces(ctx, basis)
                expected = Fraction(sum(traces.values()), factorial(n))
                assert projector_trace(ctx, basis) == expected
                if basis is letters_only:
                    # the orbit sums counted by the symmetric-product check
                    assert expected == len(invariant_letter_classes(ctx, d))
                if n >= 3:
                    # the class-function assumption behind the cycle-type sum
                    by_type = {}
                    for sigma, trace in traces.items():
                        by_type.setdefault(cycle_lengths(sigma), set()).add(trace)
                    assert len(by_type) == {3: 3, 4: 5}[n]
                    assert all(len(values) == 1 for values in by_type.values())


# Highest degree compared per number of factors; the projector traces of
# all twenty contexts take about a second.
MAX_TRACE_DEGREE = {1: 10, 2: 10, 3: 8, 4: 5, 5: 3}


class TestInvariantDimension:
    """invariant_dimension reads the quot product formula; the projector
    trace on the omega-twisted monomial basis is the independent route."""

    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_projector_trace(self, g, n):
        ctx = RingContext(genus=g, factors=n)
        for d in range(-2, MAX_TRACE_DEGREE[n] + 1):
            basis = list(monomials_of_degree(ctx, d))
            assert invariant_dimension(ctx, d) == projector_trace(ctx, basis)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_no_factors(self, g):
        ctx = RingContext(genus=g, factors=0)
        assert [invariant_dimension(ctx, d) for d in (-1, 0, 1, 2)] == [0, 1, 0, 0]


def generating_identity_check(ctx, letter_code, order):
    """Truncated comparison of the two generating series of the classes
    cell(l e_i) p_i^*(a), summed over factor positions, against the
    diagonal-weighted product form.  Returns the residual per power and
    whether the diagonal twist was position-independent.
    """
    n = ctx.factors
    lhs = [ctx.zero() for _ in range(order + 1)]
    for pos in range(1, n + 1):
        pa = ctx.letter_at(pos, letter_code)
        for l in range(order + 1):
            v = [0] * n
            v[pos - 1] = l
            lhs[l] = lhs[l] + cell_class(ctx, tuple(v)) * pa
    rhs = [ctx.zero() for _ in range(order + 1)]
    independent = True
    for size in range(1, n + 1):
        for members in itertools.combinations(range(1, n + 1), size):
            diag = small_diagonal(ctx, members)
            twisted = diag * ctx.letter_at(members[0], letter_code)
            for i in members[1:]:
                if diag * ctx.letter_at(i, letter_code) != twisted:
                    independent = False
            for l in range(size - 1, order + 1):
                rhs[l] = rhs[l] + twisted * complete_homogeneous(ctx, members, l - size + 1)
    return {
        "residuals": [lhs[l] - rhs[l] for l in range(order + 1)],
        "twist_independent": independent,
    }


class TestGeneratingIdentity:
    @pytest.mark.parametrize("g,n,code", [
        (0, 2, POINT), (1, 2, POINT), (1, 2, UNIT), (0, 3, UNIT),
        (1, 3, POINT),
    ])
    def test_residuals_vanish(self, g, n, code):
        ctx = RingContext(genus=g, factors=n)
        report = generating_identity_check(ctx, code, 2)
        assert report["twist_independent"]
        assert all(r.is_zero() for r in report["residuals"])

    def test_constant_coefficient(self):
        ctx = RingContext(genus=1, factors=2)
        report = generating_identity_check(ctx, alpha(1), 0)
        assert all(r.is_zero() for r in report["residuals"])


class TestGeneratorSpan:
    def test_single_factor(self):
        ctx = RingContext(genus=1, factors=1)
        report = generator_span_check(ctx, 5)
        assert report["pass"], report

    def test_two_factors_genus_zero(self):
        ctx = RingContext(genus=0, factors=2)
        report = generator_span_check(ctx, 6)
        assert report["pass"], report

    def test_two_factors_genus_one(self):
        ctx = RingContext(genus=1, factors=2)
        report = generator_span_check(ctx, 4)
        assert report["pass"], report


def test_memoized_prefactor_cannot_be_poisoned():
    from quotcells.pullback import _prefactor_sum
    ctx = RingContext(genus=1, factors=2)
    u, sigma = (1, 0), (0, 1)
    v = apply_perm(sigma, u)
    prefactor = _prefactor_sum(ctx, v)
    assert_read_only(prefactor)
    assert _prefactor_sum(ctx, v) is prefactor
    fresh = RingContext(genus=1, factors=2)
    assert prefactor == _prefactor_sum(fresh, v)
    assert quot_pullback_combinatorial(ctx, u) == quot_pullback(ctx, u)
