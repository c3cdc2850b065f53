"""Weight-vector utilities, decompositions, subset tuples and the
admissible row tuples."""

import itertools
import random
import sys

import pytest

from quotcells.suites import check_incidence_betti
from quotcells.weights import (admissible_row_tuples, apply_perm,
                               componentwise_leq, decreasing_vectors,
                               mask_components, mover, orbit_walk,
                               stabilizer, swap_entries, transposition)

from conftest import (compose, compositions, graph_components, hat_sets,
                      invert, orbit, permutations, weights_to_decomposition)


def masks_of(sets):
    """A tuple of sets as bitmasks, bit i for the element i."""
    return tuple(sum(1 << i for i in s) for s in sets)


def decomposition_to_weights(rows):
    """Inverse of weights_to_decomposition."""
    if not rows:
        return ()
    h = len(rows[0])
    blocks = []
    for j in range(h):
        block = []
        for a in range(len(rows) - 1, -1, -1):
            block.extend([a] * rows[a][j])
        blocks.append(tuple(block))
    return tuple(blocks)


def decomposition_co(rows) -> int:
    return sum(a * sum(row) for a, row in enumerate(rows))


class TestVectors:
    def test_stabilizer_order(self):
        assert len(stabilizer((1, 1, 0))) == 2
        assert len(stabilizer((2, 2, 2))) == 6
        assert len(stabilizer((3, 1, 0))) == 1

    def test_stabilizer_members(self):
        members = stabilizer((1, 1, 0))
        assert len(members) == 2
        for sigma in members:
            assert apply_perm(sigma, (1, 1, 0)) == (1, 1, 0)

    def test_componentwise(self):
        assert componentwise_leq((1, 0), (1, 2))
        assert not componentwise_leq((2, 0), (1, 2))

    def test_perm_identities(self):
        for sigma in permutations(4):
            assert compose(sigma, invert(sigma)) == tuple(range(4))

    def test_perm_action_convention(self):
        # sigma(v) places the old entry i at position sigma(i)
        sigma = (1, 2, 0)
        assert apply_perm(sigma, (7, 8, 9)) == (9, 7, 8)

    def test_swap_entries_is_the_transposition_action(self):
        """Swapping the 1-based entries i and j is the action of the
        transposition of i and j, and leaves the mover table as it was."""
        for n in range(2, 6):
            v = tuple(range(10, 10 + n))
            for i, j in itertools.combinations(range(1, n + 1), 2):
                size = mover.cache_info().currsize
                assert swap_entries(v, i, j) == swap_entries(v, j, i)
                assert mover.cache_info().currsize == size
                assert swap_entries(v, i, j) \
                    == apply_perm(transposition(n, i, j), v)

    def test_perm_of_another_length_is_refused(self):
        for sigma, v in (((0, 1), (1, 0, 0)), ((0, 1, 2), (5, 6)),
                         ((0,), ())):
            with pytest.raises(ValueError):
                apply_perm(sigma, v)


class TestDecompositions:
    def test_scalar_example(self):
        assert weights_to_decomposition(((1, 0),), 2) == ((1,), (1,))

    def test_zero_vector(self):
        rows = weights_to_decomposition(((0, 0, 0),), 3)
        assert rows == ((3,), (0,), (0,))

    def test_round_trip_exhaustive(self):
        for r in (1, 2, 3):
            for v in decreasing_vectors(3, r, max_co=3 * (r - 1)):
                rows = weights_to_decomposition((v,), r)
                assert decomposition_to_weights(rows) == (v,)
                assert decomposition_co(rows) == sum(v)

    def test_multi_block(self):
        v_star = ((2, 1), (1, 0, 0))
        rows = weights_to_decomposition(v_star, 3)
        assert rows == ((0, 2), (1, 1), (1, 0))
        assert decomposition_to_weights(rows) == v_star

    def test_counting_matches_multisets(self):
        # |B(n,r)| equals the number of r-part compositions of n
        for n, r in ((2, 2), (3, 2), (3, 3), (4, 3)):
            vectors = decreasing_vectors(n, r, max_co=n * (r - 1))
            assert len(vectors) == sum(1 for _ in compositions(n, r))

    def test_enumerate_examples(self):
        assert decreasing_vectors(2, 2, max_co=2) == [(0, 0), (1, 0), (1, 1)]
        assert decreasing_vectors(2, None, max_co=1) == [(0, 0), (1, 0)]

    def test_long_vectors(self):
        """Longer than the recursion limit: built level by level."""
        n = sys.getrecursionlimit() + 10
        assert decreasing_vectors(n, None, 1) == [(0,) * n, (1,) + (0,) * (n - 1)]


class TestSubsetTuples:
    """mask_components against the figures and the graph search."""

    def test_component_example(self):
        sets = ({1, 2}, {2, 3}, {4})
        assert mask_components(masks_of(sets)) == [(0b011, 0b01110, 0),
                                                     (0b100, 0b10000, 0)]
        assert graph_components(sets) == [((0, 1), 0), ((2,), 0)]

    @pytest.mark.parametrize("sets,expected", [
        (({1, 2}, {2, 3}), 0),
        (({1, 2}, {2, 3}, {1, 3}), 1),
        (({1, 2}, {2, 3}, {1, 2, 3}), 2),
        (({5},), 0),
    ])
    def test_betti_figures(self, sets, expected):
        [(_members, _union, b1)] = mask_components(masks_of(sets))
        assert b1 == expected
        assert graph_components(sets) == [(tuple(range(len(sets))), expected)]

    def test_disconnected_tuple_has_no_single_b1(self):
        """A disconnected tuple is two components, each with its own b1,
        and the incidence-Betti check refuses it as a figure."""
        assert mask_components(masks_of(({1}, {2}))) == [(0b01, 0b010, 0),
                                                        (0b10, 0b100, 0)]
        with pytest.raises(ValueError):
            check_incidence_betti([(masks_of(({1}, {2})), 0)])

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            mask_components(masks_of(({1}, set())))

    def test_betti_against_graph_oracle(self):
        ground = [1, 2, 3, 4]
        subsets = [frozenset(s) for size in (1, 2, 3, 4)
                   for s in itertools.combinations(ground, size)]
        rng = random.Random(23)
        pool = [tuple(rng.choice(subsets) for _ in range(count))
                for count in (1, 2, 3) for _ in range(120)]
        for sets in pool:
            assert components_by_first_set(masks_of(sets)) == graph_components(sets)


def components_by_first_set(masks):
    """mask_components in the form of graph_components: (set positions,
    b1) in the order of the first set of each component."""
    got = sorted(mask_components(masks), key=lambda comp: comp[0] & -comp[0])
    return [(tuple(i for i in range(len(masks)) if members >> i & 1), b1)
            for members, _union, b1 in got]


def meets_conditions(rows, v):
    """Whether a row tuple, row j of length j, meets the defining
    conditions at v, checked without the library: (i) the padded rows sum
    to v; (ii) every component of the incidence tuple has b1 <= 1 (graph
    search); (iii) at each row h the partial sums are pairwise distinct
    on its hat, and the smaller of a pair is at most the previous partial
    sum at the other position."""
    n = len(v)
    padded = [row + (0,) * (n - len(row)) for row in rows]
    if tuple(sum(col) for col in zip(*padded)) != tuple(v):
        return False
    hats = hat_sets(rows)
    if any(b1 > 1 for _positions, b1 in graph_components(hats)):
        return False
    for h in range(1, n + 1):
        partial = [sum(padded[j][i] for j in range(h)) for i in range(n)]
        previous = [sum(padded[j][i] for j in range(h - 1)) for i in range(n)]
        for p, q in itertools.combinations(sorted(hats[h - 1]), 2):
            a, b = partial[p - 1], partial[q - 1]
            if a == b or min(a, b) > previous[(q if a < b else p) - 1]:
                return False
    return True


def every_row_tuple(v):
    """Every row tuple whose rows, filled from n downwards, each take
    what remains at their own index and any part of it at the earlier
    ones, in that order and lexicographically per row: no condition
    beyond (i) is applied."""
    n = len(v)
    level = [((), tuple(v))]
    for j in range(n, 0, -1):
        level = [((prefix + (rem[j - 1],),) + later,
                  tuple(r - x for r, x in zip(rem, prefix)))
                 for later, rem in level
                 for prefix in itertools.product(*(range(r + 1) for r in rem[:j - 1]))]
    return [rows for rows, _rem in level]


def row_tuples(v):
    """The rows of each admitted tuple of v, in the search order."""
    return [rows for rows, _omega, _components in admissible_row_tuples(v)]


class TestRowTuples:
    def test_identity_example(self):
        got = list(admissible_row_tuples(apply_perm((0, 1), (1, 0))))
        assert got == [(((1,), (0, 0)), (1, 0),
                        [(0b01, 0b010, 0), (0b10, 0b100, 0)]),
                       (((0,), (1, 0)), (0, 0), [(0b11, 0b110, 0)])]

    def test_swap_example(self):
        got = list(admissible_row_tuples(apply_perm((1, 0), (1, 0))))
        assert got == [(((0,), (0, 1)), (0, 1),
                        [(0b01, 0b010, 0), (0b10, 0b100, 0)])]

    def test_zero_weight(self):
        for sigma in permutations(3):
            got = list(admissible_row_tuples(apply_perm(sigma, (0, 0, 0))))
            assert got == [(((0,), (0, 0), (0, 0, 0)), (0, 0, 0),
                             [(1 << i, 2 << i, 0) for i in range(3)])]

    def test_determinism_and_conditions(self):
        for u in decreasing_vectors(3, None, max_co=3):
            for sigma in permutations(3):
                first = list(admissible_row_tuples(apply_perm(sigma, u)))
                second = list(admissible_row_tuples(apply_perm(sigma, u)))
                assert first == second
                for rows, _omega, _components in first:
                    assert meets_conditions(rows, apply_perm(sigma, u))

    def test_complete_against_brute_force(self):
        """No admissible tuple is missed and none is added: every row tuple
        filtered by the three conditions, in the search order, for each
        orbit member with n <= 4 and co <= 4."""
        members = 0
        for n in range(1, 5):
            for u in decreasing_vectors(n, None, max_co=4):
                for v in orbit_walk(u):
                    members += 1
                    expected = [rows for rows in every_row_tuple(v)
                                if meets_conditions(rows, v)]
                    assert row_tuples(v) == expected, v
        assert members == sum(len(orbit_walk(u)) for n in range(1, 5)
                              for u in decreasing_vectors(n, None, max_co=4))

    def test_mask_components_of_every_admissible_tuple(self):
        """The omega exponents and components yielded with every
        admissible row tuple with n <= 5 and co <= 4 against those of its
        hats as sets: omega_j = |l_j| - |hat_j| + 1, the mask_components
        list of the hat masks, and the components and b1 of the graph
        search with the union of each component's hats."""
        tuples = 0
        for n in range(1, 6):
            for u in decreasing_vectors(n, None, max_co=4):
                for v in orbit_walk(u):
                    for rows, omega, components in admissible_row_tuples(v):
                        tuples += 1
                        sets = hat_sets(rows)
                        assert omega == tuple(sum(row) - len(hat) + 1
                                              for row, hat in zip(rows, sets))
                        masks = masks_of(sets)
                        assert components == mask_components(masks)
                        reference = graph_components(sets)
                        assert components_by_first_set(masks) == reference
                        got = sorted(components,
                                     key=lambda comp: comp[0] & -comp[0])
                        assert [union for _members, union, _b1 in got] == \
                            [sum(1 << i for i in frozenset().union(
                                *(sets[k] for k in positions)))
                             for positions, _b1 in reference]
        assert tuples > 1000

    def test_zero_weight_hats_are_disjoint_components(self):
        """The zero weight of length 1010 has one row tuple, of zero rows
        with zero omega exponents, whose 1010 one-element hats are 1010
        components of b1 = 0, listed in tuple order."""
        [(rows, omega, components)] = admissible_row_tuples((0,) * 1010)
        assert rows == tuple((0,) * j for j in range(1, 1011))
        assert omega == (0,) * 1010
        assert components == [(1 << i, 1 << (i + 1), 0) for i in range(1010)]


class TestYoung:
    """A Young subgroup is the stabilizer of the block-label vector."""

    def test_example(self):
        # blocks of sizes (2, 1)
        assert set(stabilizer((0, 0, 1))) == {(0, 1, 2), (1, 0, 2)}

    def test_block_sizes(self):
        assert len(stabilizer((0, 0, 1, 1))) == 4    # (2, 2)
        assert len(stabilizer((0, 0, 0))) == 6       # (3,)
        assert len(stabilizer((0, 1, 2))) == 1       # (1, 1, 1)


class TestOrbitWalk:
    """The orbit walk against the whole-group reference: the same images,
    each with the same first permutation, in the same order."""

    def test_full_group(self):
        for n in range(7):
            for v in itertools.product(range(3), repeat=n):
                assert list(orbit_walk(v).items()) \
                    == list(orbit(v, permutations(n)).items()), v

    def test_young_subgroups(self):
        for n in range(6):
            # the block labels of each composition of n into k parts
            for k in range(n + 1):
                for c in compositions(n - k, k):
                    labels = tuple(b for b, size in enumerate(c)
                                   for _ in range(size + 1))
                    group = stabilizer(labels)
                    for v in itertools.product(range(3), repeat=n):
                        assert list(orbit_walk(v, labels).items()) \
                            == list(orbit(v, group).items()), (v, labels)

    def test_the_first_image_is_v_under_the_identity(self):
        """The orbit sums of pullback multiply their first member by the
        twist itself, not by a permuted copy."""
        for n in range(6):
            for v in itertools.product(range(3), repeat=n):
                for labels in (None, tuple(i % 2 for i in range(n))):
                    assert next(iter(orbit_walk(v, labels).items())) \
                        == (v, tuple(range(n))), (v, labels)

    def test_labels_of_another_length_are_refused(self):
        for v, labels in (((1, 0, 0), (0, 0)), ((1, 0), (0, 0, 1)),
                          ((), (0,))):
            with pytest.raises(ValueError):
                orbit_walk(v, labels)

    def test_long_vector(self):
        """Longer than the recursion limit: the walk keeps its own stack."""
        n = sys.getrecursionlimit() + 10
        images = orbit_walk((0,) * (n - 1) + (1,))
        # the first permutations in lex order move the 1 the least
        assert [w.index(1) for w in images] == list(range(n - 1, -1, -1))
        for w, sigma in images.items():
            assert sorted(sigma) == list(range(n))
            assert sigma[-1] == w.index(1)
            assert list(sigma[:-1]) == sorted(sigma[:-1])
