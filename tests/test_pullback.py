"""Quot-scheme pullbacks: the two evaluation routes, partial flags,
symmetry and rank certificates."""

import itertools
import operator
import random
import sys
from fractions import Fraction
from math import factorial, prod

import pytest

from quotcells import pullback, suites, weights
from quotcells.cells import cell_class, complete_homogeneous
from quotcells.grammar import parse
from quotcells.linalg import exact_rank
from quotcells.pullback import (_letter_classes, average_twist,
                                generator_span_check, invariant_dimension,
                                invariant_letter_classes, is_invariant,
                                partial_flag_pullback, pullback_classes,
                                quot_pullback, quot_pullback_combinatorial,
                                quot_pullback_spanning_classes, span_rank)
from quotcells.ring import (POINT, RingContext, RingElement, UNIT, alpha,
                            beta, diagonal, letter_monomials, permute_factors,
                            small_diagonal)
from quotcells.weights import (admissible_row_tuples, apply_perm,
                               decreasing_vectors, orbit_walk, stabilizer)

from conftest import (assert_read_only, compositions, graph_components,
                      hat_sets, invert, monomials_of_degree, permutations,
                      project_invariant, symmetrized_cell_class)
from test_linalg import reference_rank
from test_ring_kernel import assert_normal
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


@pytest.mark.parametrize("route", [quot_pullback, quot_pullback_combinatorial])
@pytest.mark.parametrize("rank,u", [(0, (1,)), (0, (1, 0, 0)), (0, (1, -1)),
                                    (0, (0, 1)), (1, (1, 0))],
                         ids=["short", "long", "negative", "increasing",
                              "entry-above-rank"])
def test_routes_reject_the_same_weights(route, rank, u):
    ctx = RingContext(genus=1, factors=2, rank=rank)
    with pytest.raises(ValueError):
        route(ctx, u)


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

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_stabilizer_average(self, g, n):
        ctx = RingContext(genus=g, factors=n)
        twists = [RingElement(ctx, {(letters, (0,) * n, ()): 1})
                  for d in range(2 * n + 1)
                  for letters in letter_monomials(ctx, d)]
        averages = {}
        for v in self.vectors(n):
            group = stabilizer(v)
            # St(v) is one group for every v of one position partition
            expected = averages.get(frozenset(group))
            if expected is None:
                expected = averages[frozenset(group)] = \
                    [project_invariant(group, a) for a in twists]
            for a, average in zip(twists, expected):
                assert average_twist(ctx, v, a) == average, (v, a)

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_averages_have_normal_coefficients(self, g, n):
        """Multi-term twists with Fraction coefficients, integral ones
        among them: each average is the stabilizer average, and each of
        its coefficients is an int or a Fraction with denominator > 1.
        1/2 [a1|b1|..] + 1/2 [b1|a1|..] averages to no term over St(0^n),
        since the swap of its first two factors negates each term."""
        ctx = RingContext(genus=g, factors=n)
        rest = (UNIT,) * (n - 2)
        cancelling = (ctx.monomial((alpha(1), beta(1)) + rest, coeff=Fraction(1, 2))
                      + ctx.monomial((beta(1), alpha(1)) + rest, coeff=Fraction(1, 2)))
        assert not average_twist(ctx, (0,) * n, cancelling).coeffs
        rng = random.Random(39 + 10 * g + n)
        letters = [m for d in range(2 * n + 1) for m in letter_monomials(ctx, d)]
        scales = [Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(2, 3)]
        twists = [cancelling] + [
            sum(ctx.monomial(m, coeff=c)
                for m, c in zip(rng.sample(letters, 3), rng.sample(scales, 3)))
            for _ in range(12)]
        averages = {}
        for v in self.vectors(n):
            group = stabilizer(v)
            expected = averages.get(frozenset(group))
            if expected is None:
                expected = averages[frozenset(group)] = \
                    [project_invariant(group, a) for a in twists]
            for a, average in zip(twists, expected):
                got = average_twist(ctx, v, a)
                assert got == average, (v, a)
                assert_normal(got)

    def test_long_zero_weight_adds_no_mover_entries(self):
        """The stabilizer test of 1010 zeros swaps factors with an
        itemgetter of its own: weights.mover grows by at most one entry,
        not by one n-tuple mover per generator."""
        ctx = RingContext(genus=1, factors=1010)
        weights.mover.cache_clear()  # an earlier 1010-factor call may have filled it
        assert average_twist(ctx, (0,) * 1010) == ctx.one()
        a = ctx.letter_at(1, alpha(1)) * ctx.letter_at(1010, alpha(1))
        assert not is_invariant(a)
        assert weights.mover.cache_info().currsize <= 1

    def test_rejects_omega_twist(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            average_twist(ctx, (1, 1), ctx.omega(1))

    @pytest.mark.parametrize("u", [(0, 0), (1, 0)])
    def test_rejects_a_twist_of_another_context(self, u):
        """Invariant or not, a genus-1 twist is not re-homed in genus 0."""
        g0 = RingContext(genus=0, factors=2)
        a = RingContext(genus=1, factors=2).letter_at(1, alpha(1))
        for call in (lambda: average_twist(g0, u, a),
                     lambda: quot_pullback(g0, u, a),
                     lambda: quot_pullback_combinatorial(g0, u, a),
                     lambda: partial_flag_pullback(g0, (2,), (u,), a)):
            with pytest.raises(ValueError, match="different contexts"):
                call()
        # an equal context is the same context
        twin = RingContext(genus=0, factors=2).pt(1)
        assert quot_pullback(g0, u, twin) == quot_pullback(g0, u, g0.pt(1))

    @pytest.mark.parametrize("v", [(0, 1, 2, 3), (0, 0, 0, 0), (0, 0)])
    def test_rejects_a_weight_of_another_length(self, v):
        ctx = RingContext(genus=1, factors=3)
        with pytest.raises(ValueError, match="must have 3 entries"):
            average_twist(ctx, v, ctx.letter_at(1, alpha(1)))


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

    def test_prefactor_sum_matches_the_tuple_by_tuple_sum(self):
        """_prefactor_sum, one term dict filled from the mask components,
        against the sum grown tuple by tuple with + from the incidence
        components of the graph search, over every orbit member for genus
        0-2, n = 1-4 and co <= 3."""
        members = 0
        for g in (0, 1, 2):
            for n in (1, 2, 3, 4):
                ctx = RingContext(genus=g, factors=n)
                for u in decreasing_vectors(n, None, max_co=3):
                    for v in orbit_walk(u):
                        members += 1
                        expected = ctx.zero()
                        for rows, _omega, _comps in admissible_row_tuples(v):
                            expected = expected + reference_prefactor(ctx, rows)
                        assert pullback._prefactor_sum(ctx, v) == expected, (g, v)
        assert members == 3 * sum(len(orbit_walk(u)) for n in (1, 2, 3, 4)
                                  for u in decreasing_vectors(n, None, max_co=3))

    def test_omega_exponents_of_rows(self):
        """Row j carries omega^(|l_j| - |hat_j| + 1), hat_j its support
        together with j: the exponents the search yields with its rows."""
        def omega_of(v, rows):
            return {got: omega for got, omega, _comps
                    in admissible_row_tuples(v)}[rows]
        assert omega_of((1, 0), ((0,), (1, 0))) == (0, 0)
        assert omega_of((3, 1), ((2,), (1, 1))) == (2, 1)

    def test_requires_decreasing(self):
        ctx = RingContext(genus=0, factors=2)
        with pytest.raises(ValueError):
            quot_pullback_combinatorial(ctx, (0, 1))

    def test_rejects_nonzero_degrees(self):
        ctx = RingContext(genus=0, factors=2, rank=2, degrees=(1, 0))
        with pytest.raises(ValueError):
            quot_pullback_combinatorial(ctx, (1, 0))


def reference_prefactor(ctx, rows):
    """The prefactor of one row tuple from its incidence tuple as sets and
    the graph search's components: the omega monomial of the row
    exponents |l_j| - |hat_j| + 1 times, per component, the chain of
    pairwise diagonals from 1 (b1 = 0), (2-2g) times the product of point
    classes (b1 = 1) or zero."""
    hats = hat_sets(rows)
    acc = ctx.monomial(omega=[sum(row) - len(hat) + 1
                              for row, hat in zip(rows, hats)])
    for positions, b1 in graph_components(hats):
        support = sorted(frozenset().union(*(hats[k] for k in positions)))
        factor = ctx.one() if b1 <= 1 else ctx.zero()
        if b1 == 0:
            for i, j in zip(support, support[1:]):
                factor = factor * diagonal(ctx, i, j)
        elif b1 == 1:
            for i in support:
                factor = factor * ctx.pt(i)
            factor = factor * (2 - 2 * ctx.genus)
        acc = acc * factor
    return acc


def unreduced_prefactors(ctx, u, reading=lambda sigma: sigma):
    """sigma -> the prefactor sum over the row tuples of (u, reading(sigma)),
    for every sigma in S_n."""
    out = {}
    for sigma in permutations(ctx.factors):
        pref = ctx.zero()
        for rows, _omega, _comps in admissible_row_tuples(
                apply_perm(reading(sigma), u)):
            pref = pref + reference_prefactor(ctx, rows)
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
                group = stabilizer(tuple(k for k, size in enumerate(composition)
                                         for _ in range(size)))
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


def test_routes_agree_at_twelve_factors():
    """An orbit of 12 members in S_12: beyond reach of a walk over the
    whole group, which would apply 12! permutations."""
    ctx = RingContext(genus=0, factors=12)
    u = (1,) + (0,) * 11
    for a in (None, parse(ctx, "[pt" + "|one" * 11 + "]")):
        got = quot_pullback(ctx, u, a)
        assert got and got == quot_pullback_combinatorial(ctx, u, a)
        assert is_invariant(got)


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

    def test_composition_covers_every_factor(self):
        ctx = RingContext(genus=0, factors=3)
        with pytest.raises(ValueError, match="must sum to the number of factors"):
            partial_flag_pullback(ctx, (1, 1), ((0,), (0,)))

    def test_block_check(self):
        """A block that is not decreasing raises at every call and leaves
        no member list behind; the errors come in quot_pullback's order,
        a bad entry before a bad block and a bad block before a twist of
        another context."""
        ctx = RingContext(genus=0, factors=3, rank=2)
        for _ in range(2):
            with pytest.raises(ValueError, match="each block must be decreasing"):
                partial_flag_pullback(ctx, (2, 1), ((0, 1), (0,)))
        assert [key for key in ctx._memo if key[0] == "members"] == []
        with pytest.raises(ValueError, match="entry 2 out of range for rank 2"):
            partial_flag_pullback(ctx, (2, 1), ((0, 2), (0,)))
        a = RingContext(genus=1, factors=3).letter_at(1, alpha(1))
        with pytest.raises(ValueError, match="each block must be decreasing"):
            partial_flag_pullback(ctx, (2, 1), ((0, 1), (0,)), a)


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


def test_no_library_path_lists_a_group(monkeypatch):
    """The pullback and rank suites and the spanning classes pass each
    weight as its own labels: every binding of weights.stabilizer inside
    quotcells raises, and they still run and pass."""
    listed = weights.stabilizer

    def refuse(v):
        raise AssertionError("St(%s) listed" % (v,))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quotcells":
            for attr, value in list(vars(module).items()):
                if value is listed:
                    monkeypatch.setattr(module, attr, refuse)
    report = suites.run_suites(["pullback", "ranks"], {
        "n_values": (2, 3), "genus_values": (0, 1), "max_co": 2})
    assert report["ok"]
    ctx = RingContext(genus=1, factors=3)
    for degree in range(7):
        assert span_rank(quot_pullback_spanning_classes(ctx, degree), degree) \
            == invariant_dimension(ctx, degree)


@pytest.mark.parametrize("genus", [0, 1])
def test_no_class_of_the_four_factor_rank_grid_is_zero(genus):
    """`verify --suite ranks --n 4`'s pullback classes and the generators
    of generator_span_check are all nonzero: the w^w part of a class is
    sigma_w(a), a nonzero twist moved by a signed permutation."""
    ctx = RingContext(genus=genus, factors=4)
    classes = list(suites._pullback_grid(ctx, suites.DEFAULTS))
    assert len(classes) == (37, 239)[genus]
    assert all(x for _u, _a, x in classes)
    assert all(pullback.pullback_generators(ctx))


def test_spanning_classes_are_the_per_class_pullbacks():
    """Summing each twist straight over a weight's member list gives the
    classes one quot_pullback per (u, twist) gives, element by element
    and in order; the latter run on a fresh context per degree, so no
    member list or twist list is shared between the two sides."""
    for g in range(4):
        for n in range(1, 5):
            ctx = RingContext(genus=g, factors=n)
            for d in range(7):
                fresh = RingContext(genus=g, factors=n)
                assert quot_pullback_spanning_classes(ctx, d) == [
                    quot_pullback(fresh, u, a)
                    for u in decreasing_vectors(n, None, d // 2)
                    for a in _letter_classes(fresh, d - 2 * sum(u), u)], (g, n, d)


# (genus, factors, max degree) of the rank certificates the benchmark
# runs (RANK_GRID in bench/workloads.py)
RANK_SIZES = ((0, 2, 8), (1, 2, 8), (2, 2, 8), (3, 2, 8), (0, 3, 8), (1, 3, 8),
              (2, 3, 7), (3, 3, 3), (0, 4, 6), (1, 4, 5), (2, 4, 2), (0, 5, 4),
              (1, 5, 1))


def test_spanning_twists_need_no_average():
    """Every twist pullback_classes sums is a St(u) group sum, which
    average_twist returns as it is: the twist average the direct sums
    leave out would change nothing.  The (u, twist degree) pairs are
    those of the spanning classes at the rank sizes and those of the A1
    grid, which holds the default pullback and rank grids of verify."""
    grids = [(g, n, [(u, d - 2 * sum(u)) for d in range(max_degree + 1)
                     for u in decreasing_vectors(n, None, d // 2)])
             for g, n, max_degree in RANK_SIZES]
    grids += [(g, n, [(u, d) for u in decreasing_vectors(n, None, max_co)
                      for d in range(5)])
              for g in range(3) for n, max_co in ((2, 4), (3, 4), (4, 3))]
    for g, n, pairs in grids:
        ctx = RingContext(genus=g, factors=n)
        checked = 0
        for u, d in pairs:
            for a in _letter_classes(ctx, d, u):
                assert average_twist(ctx, u, a) is a, (g, n, u, a)
                checked += 1
        assert checked, (g, n)


def test_spanning_rank_meets_the_dense_reference():
    """At every degree of the benchmark's rank certificates, the sparse
    exact_rank of the spanning classes' rows equals the dense Bareiss
    reference on the same rows and the dimension of the invariants."""
    for g, n, max_degree in RANK_SIZES:
        ctx = RingContext(genus=g, factors=n)
        for d in range(max_degree + 1):
            rows = [x.coeffs for x in quot_pullback_spanning_classes(ctx, d)]
            assert exact_rank(rows) == reference_rank(rows) \
                == invariant_dimension(ctx, d), (g, n, d)


def test_spanning_classes_check_only_weights_with_twists():
    """A weight out of range raises once it has a twist of the degree; a
    weight with none is skipped before any check and gets no member
    list, in the spanning classes and in pullback_classes alike."""
    ctx = RingContext(genus=0, factors=2, rank=2)
    for degree in (4, 6):
        with pytest.raises(ValueError, match="entry 2 out of range for rank 2"):
            quot_pullback_spanning_classes(ctx, degree)
    assert quot_pullback_spanning_classes(ctx, 5) == []
    # genus 0 has no odd letters, so no twist of degree 1 or 3
    fresh = RingContext(genus=0, factors=2, rank=2)
    assert list(pullback_classes(fresh, [((2, 0), 1), ((0, 1), 3)])) == []
    assert [key for key in fresh._memo if key[0] == "members"] == []
    for pair, message in ((((2, 0), 0), "entry 2 out of range for rank 2"),
                          (((0, 1), 0), "u must be decreasing")):
        with pytest.raises(ValueError, match=message):
            list(pullback_classes(fresh, [pair]))
    assert [key for key in fresh._memo if key[0] == "members"] == []


def _block_pattern(labels):
    """Each label replaced by the position of its first occurrence."""
    return tuple(labels.index(label) for label in labels)


def _pattern_classes(n):
    """The label tuples of {0,1,2}^n grouped by block pattern, each
    group in product order."""
    classes = {}
    for labels in itertools.product(range(3), repeat=n):
        classes.setdefault(_block_pattern(labels), []).append(labels)
    return classes


TWIST_GRID = [(g, n) for g in range(4) for n in range(1, 6)]


class TestTwistMemo:
    """_letter_classes keeps one list per context, degree and block
    pattern of the labels, and hands out copies of it."""

    @pytest.mark.parametrize("g,n", TWIST_GRID)
    def test_kept_lists(self, g, n):
        """For every label tuple in {0,1,2}^n and degree <= 2n: the list
        equals the one a fresh context builds from another tuple of the
        same pattern, every tuple of a pattern returns the same elements,
        and clearing or appending to a returned list leaves the next call
        unchanged.  One context walks the tuples pattern by pattern and
        keeps one list per (degree, pattern); it is emptied between
        patterns, which keeps the walk's memory to one pattern's lists."""
        ctx = RingContext(genus=g, factors=n)
        for pattern, tuples in _pattern_classes(n).items():
            fresh = RingContext(genus=g, factors=n)
            for d in range(2 * n + 1):
                kept = _letter_classes(ctx, d, tuples[0])
                assert kept == _letter_classes(fresh, d, tuples[-1]), (g, n, pattern, d)

                def reads_kept(got):
                    return len(got) == len(kept) and all(map(operator.is_, got, kept))

                for labels in tuples:
                    got = _letter_classes(ctx, d, labels)
                    assert reads_kept(got), (labels, d)
                    got.clear()
                    got = _letter_classes(ctx, d, labels)
                    assert reads_kept(got), (labels, d)
                    got.append(ctx.one())
                    assert reads_kept(_letter_classes(ctx, d, labels)), (labels, d)
            assert sorted(ctx._memo) == [("letter_classes", d, pattern)
                                         for d in range(2 * n + 1)]
            ctx._memo.clear()

    def test_block_patterns(self):
        assert _block_pattern((2, 0, 0)) == _block_pattern((1, 0, 0)) == (0, 1, 1)
        ctx = RingContext(genus=1, factors=3)
        assert _letter_classes(ctx, 2, (2, 0, 0)) == _letter_classes(ctx, 2, (1, 0, 0))
        assert list(ctx._memo) == [("letter_classes", 2, (0, 1, 1))]

    @pytest.mark.parametrize("g,n,max_degree", RANK_SIZES)
    def test_certificate_run_keeps_one_list_per_degree_and_pattern(
            self, g, n, max_degree):
        """After the spanning classes and the generator check of every
        degree <= max_degree, the context keeps exactly one twist list per
        (degree, pattern) asked for, fewer than the calls made."""
        ctx = RingContext(genus=g, factors=n)
        asked = []
        for d in range(max_degree + 1):
            quot_pullback_spanning_classes(ctx, d)
            asked += [(d - 2 * sum(u), _block_pattern(u))
                      for u in decreasing_vectors(n, None, d // 2)]
        generator_span_check(ctx, max_degree)
        asked += [(d, (0,) * n) for d in range(max_degree + 1)]
        kept = [key[1:] for key in ctx._memo if key[0] == "letter_classes"]
        assert sorted(kept) == sorted(set(asked))
        assert len(kept) < len(asked)


def test_route_check_reads_a_stream_once():
    """pullback_classes streams the twists of the listed St(u), and
    check_pullback_routes reads its classes once: a one-pass generator
    with one corrupted class gives the case a list of the same triples
    gives, with the same class count and first mismatch."""
    ctx = RingContext(genus=1, factors=3)
    us = decreasing_vectors(3, None, max_co=2)
    triples = list(pullback_classes(ctx, [(u, d) for u in us for d in range(3)]))
    assert [(u, a) for u, a, _ in triples] == [
        (u, a) for u in us for d in range(3)
        for a in invariant_letter_classes(ctx, d, stabilizer(u))]
    u, a, x = triples[3]
    triples[3] = (u, a, x + 1)
    label = {"genus": 1, "factors": 3}
    [listed] = suites.check_pullback_routes(label, ctx, triples)
    stream = (triple for triple in triples)
    [streamed] = suites.check_pullback_routes(label, ctx, stream)
    assert next(stream, None) is None
    del listed["finished"], streamed["finished"]
    assert streamed == listed
    assert not streamed["pass"]
    assert streamed["checked"] == streamed["inputs"]["classes"] == len(triples)
    assert streamed["got"].startswith("u=%s a=" % list(u))


class TestMemberLists:
    """Each route keeps its orbit's member list in the context's memo,
    keyed by the route, the weight and the labels."""

    @staticmethod
    def without_member_lists(warm):
        """A new context equal to warm, holding warm's cell classes and
        memo entries but none of its member lists."""
        fresh = RingContext(genus=warm.genus, factors=warm.factors)
        fresh._cell_cache.update(warm._cell_cache)
        fresh._memo.update((key, value) for key, value in warm._memo.items()
                           if key[0] != "members")
        return fresh

    @staticmethod
    def warm_prefactor_sums(warm):
        """A stand-in for pullback._prefactor_sum that reads the sums kept
        in warm's combinatorial member lists."""
        sums = {apply_perm(sigma, key[2]): x
                for key, members in warm._memo.items()
                if key[:2] == ("members", pullback._prefactor_sum)
                for x, sigma in members}
        return lambda ctx, v: sums[v]

    def test_shared_context_matches_fresh_contexts(self, monkeypatch):
        """Both routes on one context, in shuffled order, give what a
        context with no member list gives at each call; the cell classes
        and prefactor sums of the latter come from a warm context, so
        that each call walks its orbit and builds its list anew."""
        routes = (quot_pullback, quot_pullback_combinatorial)
        rng = random.Random(23)
        for g in range(3):
            for n in range(1, 5):
                ctx = RingContext(genus=g, factors=n)
                calls = [(route, u, a) for u in decreasing_vectors(n, None, 3)
                         for d in range(5) for a in _letter_classes(ctx, d, u)
                         for route in routes]
                warm = RingContext(genus=g, factors=n)
                for route, u, a in calls:
                    route(warm, u, a)
                warm_sums = self.warm_prefactor_sums(warm)
                rng.shuffle(calls)
                for route, u, a in calls:
                    expected = route(ctx, u, a)
                    fresh = self.without_member_lists(warm)
                    with monkeypatch.context() as patch:
                        patch.setattr(pullback, "_prefactor_sum", warm_sums)
                        assert expected == route(fresh, u, a), (g, route, u, a)
                lists = [key for key in ctx._memo if key[0] == "members"]
                assert len(lists) == len({(route, u) for route, u, _ in calls})

    @pytest.mark.parametrize("route", [quot_pullback, quot_pullback_combinatorial])
    def test_weights_enter_the_memo_once_checked(self, route, monkeypatch):
        """A weight that fails its check raises at every call and leaves
        no member list behind; a list-typed copy of a checked weight reads
        the list its first call built."""
        ctx = RingContext(genus=1, factors=2, rank=2)
        for u, message in (((0, 1), "u must be decreasing"),
                           ((2, 0), "entry 2 out of range for rank 2")):
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    route(ctx, u)
        assert [key for key in ctx._memo if key[0] == "members"] == []
        x = route(ctx, (1, 0))
        [key] = [key for key in ctx._memo if key[0] == "members"]
        members = ctx._memo[key]

        def refuse(*args):
            raise AssertionError("orbit walked again")

        monkeypatch.setattr(pullback, "orbit_walk", refuse)
        assert route(ctx, [1, 0]) == x
        assert [key for key in ctx._memo if key[0] == "members"] == [key]
        assert ctx._memo[key] is members

    def test_routes_keep_their_own_lists(self, monkeypatch):
        """A route's first call for a weight builds its own member list,
        whatever the other route has kept: every orbit member's class is
        made once, by the route's own member function."""
        made = []

        def counted(member):
            def wrapper(ctx, v):
                made.append((member.__name__, v))
                return member(ctx, v)
            return wrapper

        monkeypatch.setattr(pullback, "_prefactor_sum",
                            counted(pullback._prefactor_sum))
        monkeypatch.setattr(pullback, "cell_class", counted(cell_class))
        for first, second in ((quot_pullback, quot_pullback_combinatorial),
                              (quot_pullback_combinatorial, quot_pullback)):
            ctx = RingContext(genus=1, factors=3)
            u = (2, 1, 0)
            orbit = list(orbit_walk(u))
            for route in (first, second):
                name = ("cell_class" if route is quot_pullback
                        else "_prefactor_sum")
                del made[:]
                for a in (None, ctx.letter_at(1, POINT) + ctx.letter_at(2, POINT)
                          + ctx.letter_at(3, POINT)):
                    route(ctx, u, a)
                assert made == [(name, w) for w in orbit], route

    def test_partial_flag_lists_are_keyed_by_labels(self):
        """Compositions (2, 1) and (1, 2) over one concatenated v keep
        apart on one context, in either order."""
        differ = False
        for g in (0, 1):
            ctx = RingContext(genus=g, factors=3)
            twists = (None, ctx.letter_at(1, POINT), ctx.letter_at(3, POINT))
            for v in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1), (0, 0, 0)):
                splits = (((2, 1), (v[:2], v[2:])), ((1, 2), (v[:1], v[1:])))
                for order in (splits, splits[::-1]):
                    shared = RingContext(genus=g, factors=3)
                    for composition, blocks in order:
                        for a in twists:
                            got = partial_flag_pullback(shared, composition,
                                                        blocks, a)
                            fresh = RingContext(genus=g, factors=3)
                            assert got == partial_flag_pullback(
                                fresh, composition, blocks, a), (v, composition, a)
                differ = differ or (partial_flag_pullback(ctx, *splits[0])
                                    != partial_flag_pullback(ctx, *splits[1]))
        assert differ


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
            image = permute_factors(sigma, RingElement(ctx, {mono: 1}))
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
    for v in decreasing_vectors(n, None, max_co=n):
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
    return {sigma: sum(permute_factors(sigma, RingElement(ctx, {mono: 1}))
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

    @pytest.mark.parametrize("max_degree", [-1, -5])
    def test_negative_max_degree_is_refused(self, max_degree):
        """A certificate over no degree would report a pass."""
        ctx = RingContext(genus=1, factors=2)
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            generator_span_check(ctx, max_degree)


def test_memoized_prefactor_cannot_be_poisoned():
    """The combinatorial route keeps its prefactor sums in its member
    list: each is read-only, a second call reads the same list, and the
    list equals a fresh context's."""
    ctx = RingContext(genus=1, factors=2)
    u = (1, 0)
    key = ("members", pullback._prefactor_sum, u, None)
    assert quot_pullback_combinatorial(ctx, u) == quot_pullback(ctx, u)
    members = ctx._memo[key]
    for prefactor, _sigma in members:
        assert_read_only(prefactor)
    quot_pullback_combinatorial(ctx, u)
    assert ctx._memo[key] is members
    fresh = RingContext(genus=1, factors=2)
    quot_pullback_combinatorial(fresh, u)
    assert fresh._memo[key] == members
