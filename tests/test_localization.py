"""Fixed-point restriction and the localization lemma checks."""

import itertools
import random

import pytest

from quotcells import localization
from quotcells.cells import cell_class_equivariant
from quotcells.localization import (_omega_power, degree_bound_check,
                                    omega_at_fixed_point,
                                    restrict_to_fixed_point, t_degree,
                                    top_term, top_term_product,
                                    top_term_residual, vanishing_check)
from quotcells.ring import (UNBOUNDED, RingContext, RingElement, diagonal,
                            omega_layers)

from conftest import assert_read_only, random_homogeneous


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


class TestOneTermImages:
    """At a w with distinct entries and trivial degrees every omega_i|_w
    is the one term t_{w_i}, so every layer product of the restriction
    is an exponent shift in the ring kernel; checked against the
    term-by-term reference at genus 0 to 3."""

    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_matches_term_by_term(self, g):
        ctx = RingContext(genus=g, factors=3, rank=4)
        points = list(itertools.product(range(4), repeat=3))
        distinct = [w for w in points if len(set(w)) == 3]
        for w in distinct:
            for i in range(1, 4):
                assert len(omega_at_fixed_point(ctx, i, w).coeffs) == 1
        for v in points:
            if sum(v) > 3:
                continue
            x = cell_class_equivariant(ctx, v)
            for w in distinct:
                assert restrict_to_fixed_point(x, w) == \
                    restrict_term_by_term(x, w), (v, w)


def restrict_by_layers(x, w):
    """Reference restriction, layer by layer: each omega layer times the
    memoized powers of its omega images in turn, and one sum per layer."""
    ctx = x.ctx
    acc = ctx.zero()
    for omega, part in omega_layers(x).items():
        for i, e in enumerate(omega, start=1):
            if e:
                part = part * _omega_power(ctx, i, e, w)
        acc = acc + part
    return acc


class TestLayerReference:
    """The one-dict restriction against the layer-by-layer reference, on
    every v and w of each grid.  The three-factor rank-4 grid keeps
    co(v) <= 4 (the benchmark's grid goes to 3): its every v took 45 s."""

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("n,rank,degrees,max_co", [
        (1, 2, (), None), (1, 3, (2, -1, 0), None), (1, 4, (), None),
        (2, 2, (0, 3), None), (2, 3, (), None), (2, 4, (1, -1, 2, 0), None),
        (3, 2, (), None), (3, 3, (1, 0, -2), None), (3, 4, (), 4),
    ])
    def test_every_cell_class_and_fixed_point(self, g, n, rank, degrees, max_co):
        ctx = RingContext(genus=g, factors=n, rank=rank, degrees=degrees)
        points = list(itertools.product(range(rank), repeat=n))
        for v in points:
            if max_co is not None and sum(v) > max_co:
                continue
            x = cell_class_equivariant(ctx, v)
            for w in points:
                assert restrict_to_fixed_point(x, w) == \
                    restrict_by_layers(x, w), (v, w)

    def test_unbounded_rank(self):
        ctx = RingContext(genus=1, factors=2, rank=UNBOUNDED)
        points = list(itertools.product(range(5), repeat=2))
        for v in points:
            x = cell_class_equivariant(ctx, v)
            for w in points:
                assert restrict_to_fixed_point(x, w) == \
                    restrict_by_layers(x, w), (v, w)

    def test_layers_that_cancel(self):
        # w_1 w_2 minus its own image: the product layer and the
        # omega-free layer cancel term by term
        ctx = RingContext(genus=1, factors=2, rank=2, degrees=(1, 2))
        for w in itertools.product(range(2), repeat=2):
            image = (omega_at_fixed_point(ctx, 1, w)
                     * omega_at_fixed_point(ctx, 2, w))
            x = ctx.omega(1) * ctx.omega(2) - image
            assert len(omega_layers(x)) == 2
            assert restrict_to_fixed_point(x, w).is_zero()
            assert restrict_by_layers(x, w).is_zero()

    def test_one_element_at_every_fixed_point_in_turn(self):
        ctx = RingContext(genus=1, factors=3, rank=3, degrees=(0, 2, -1))
        x = cell_class_equivariant(ctx, (2, 0, 1)) * ctx.omega(2) + \
            ctx.t_var(1) * cell_class_equivariant(ctx, (1, 1, 0))
        layers = omega_layers(x)
        for w in itertools.product(range(3), repeat=3):
            assert restrict_to_fixed_point(x, w) == restrict_by_layers(x, w)
            assert omega_layers(x) is layers

    def test_layers_are_kept_and_read_only(self):
        ctx = RingContext(genus=1, factors=2, rank=2)
        x = cell_class_equivariant(ctx, (1, 1))
        layers = omega_layers(x)
        assert omega_layers(x) is layers
        omega = next(iter(layers))
        with pytest.raises(TypeError):
            layers[omega] = ctx.zero()
        with pytest.raises(TypeError):
            del layers[omega]
        with pytest.raises(TypeError):
            layers[(9, 9)] = ctx.one()
        assert omega_layers(x) is layers
        assert restrict_to_fixed_point(x, (1, 0)) == restrict_by_layers(x, (1, 0))


def restrict_by_descent(ctx, v, w, memo):
    """Reference cell(v)|_w through the descent step, with u = v - e_j and j
    the last nonzero index of v:

        cell(v)|_w = (omega_j|_w - d_{u_j} pt_j - t_{u_j}) cell(u)|_w
                     + sum over k < j with u_k <= u_j of
                       diag_{k,j} cell(swap_{k,j} u)|_w

    Letters and t are fixed by the restriction, so only omega_j moves;
    memo maps each vector already restricted at w to its image."""
    if v not in memo:
        j = max((i for i, e in enumerate(v, start=1) if e), default=0)
        if j == 0:
            memo[v] = ctx.one()
        else:
            u = v[:j - 1] + (v[j - 1] - 1,) + v[j:]
            uj = u[j - 1]
            step = (omega_at_fixed_point(ctx, j, w)
                    - ctx.bundle_degree(uj) * ctx.pt(j) - ctx.t_var(uj))
            got = step * restrict_by_descent(ctx, u, w, memo)
            for k in range(1, j):
                if u[k - 1] <= uj:
                    swapped = list(u)
                    swapped[k - 1], swapped[j - 1] = uj, u[k - 1]
                    got = got + diagonal(ctx, k, j) * restrict_by_descent(
                        ctx, tuple(swapped), w, memo)
            memo[v] = got
    return memo[v]


class TestDescentReference:
    """restrict_to_fixed_point against the descent-step recursion on every
    (v, w) of a grid, once with a fresh context per fixed point and once on
    one warm context visiting the fixed points in shuffled order, so that
    the memoized omega powers are reused across fixed points."""

    GRIDS = [(0, 3, 4, (), 3), (1, 3, 4, (), 3),
             (0, 3, 3, (1, -1, 2), 3), (1, 2, 3, (1, -1, 2), 4)]

    @pytest.mark.parametrize("g,n,rank,degrees,max_co", GRIDS)
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_descent_step(self, g, n, rank, degrees, max_co, warm):
        def context():
            return RingContext(genus=g, factors=n, rank=rank, degrees=degrees)

        points = list(itertools.product(range(rank), repeat=n))
        grid_v = [v for v in points if sum(v) <= max_co]
        reference = context()
        if warm:
            ctx = context()
            random.Random(rank * 10 + g).shuffle(points)
        for w in points:
            if not warm:
                ctx = context()
            memo = {}
            for v in grid_v:
                got = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
                assert got == restrict_by_descent(reference, v, w, memo), (v, w)


class TestRestrictionCacheSafety:
    """The context keeps its last restriction and the omega powers; no
    caller can make either return a wrong value."""

    def setup_method(self):
        self.ctx = RingContext(genus=1, factors=3, rank=4)
        self.v, self.w = (1, 0, 2), (2, 1, 3)
        self.x = cell_class_equivariant(self.ctx, self.v)

    def expected(self, v, w):
        fresh = RingContext(genus=1, factors=3, rank=4)
        return restrict_to_fixed_point(cell_class_equivariant(fresh, v), w)

    def test_stored_restriction_is_exact_and_read_only(self):
        first = restrict_to_fixed_point(self.x, self.w)
        hit = restrict_to_fixed_point(self.x, list(self.w))
        assert hit == self.expected(self.v, self.w)
        assert not hit.is_zero()
        assert_read_only(hit)
        assert restrict_to_fixed_point(self.x, self.w) == first
        assert first == self.expected(self.v, self.w)

    def test_equal_but_distinct_element(self):
        restrict_to_fixed_point(self.x, self.w)
        y = RingElement(self.ctx, dict(self.x.coeffs))
        assert y == self.x and y is not self.x
        assert restrict_to_fixed_point(y, self.w) == self.expected(self.v, self.w)

    def test_other_element_at_the_same_fixed_point(self):
        restrict_to_fixed_point(self.x, self.w)
        for v in [(0, 1, 2), (2, 1, 0), (0, 0, 0)]:
            y = cell_class_equivariant(self.ctx, v)
            assert restrict_to_fixed_point(y, self.w) == self.expected(v, self.w)
        # short-lived elements, whose ids may be reused once they are freed
        for k in range(1, 6):
            got = restrict_to_fixed_point(k * self.ctx.omega(3), self.w)
            assert got == k * omega_at_fixed_point(self.ctx, 3, self.w)

    def test_same_element_at_another_fixed_point(self):
        restrict_to_fixed_point(self.x, self.w)
        for w in [(2, 1, 2), (3, 3, 3), (1, 0, 2), self.w]:
            assert restrict_to_fixed_point(self.x, w) == self.expected(self.v, w)

    def test_power_rows_match_fresh_contexts(self):
        # every cell class of co(v) <= 3 at every w, in shuffled order on
        # one context, against a fresh context per call
        ctx = self.ctx
        points = list(itertools.product(range(4), repeat=3))
        cases = [(v, w) for v in points if sum(v) <= 3 for w in points]
        random.Random(26).shuffle(cases)
        results = []
        for v, w in cases:
            got = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
            assert got == self.expected(v, w), (v, w)
            if got:
                assert_read_only(got)
            results.append(got)
        rows = {key[1]: value for key, value in ctx._memo.items()
                if key[0] == "omega_rows"}
        assert sorted(rows) == points
        # each row entry is the pattern-keyed power itself, and none is
        # ever handed to a caller
        powers = set()
        for w, factor_rows in rows.items():
            for i, row in enumerate(factor_rows, start=1):
                for e, power in enumerate(row):
                    if power is not None:
                        assert power is _omega_power(ctx, i, e, w)
                        powers.add(id(power))
        assert powers
        assert not any(id(got) in powers for got in results)

    def test_lemma_checks_reuse_the_callers_restriction(self, monkeypatch):
        # the lemma checks restrict the cached class the caller has just
        # restricted, so the only products left are the top-term formula's
        calls = []
        multiply = RingElement.__mul__

        def counted(x, y):
            calls.append(None)
            return multiply(x, y)

        monkeypatch.setattr(RingElement, "__mul__", counted)
        ctx = self.ctx
        points = list(itertools.product(range(4), repeat=3))
        restricted_again = 0
        for v in (v for v in points if sum(v) <= 3):
            for w in points:
                x = cell_class_equivariant(ctx, v)
                restrict_to_fixed_point(x, w)
                dominated = all(a <= b for a, b in zip(v, w))
                del calls[:]
                if dominated:
                    top_term_product(ctx, v, w)
                formula = len(calls)
                del calls[:]
                if dominated:
                    top_term_residual(ctx, v, w)
                vanishing_check(ctx, v, w)
                if sorted(v) == sorted(w):
                    degree_bound_check(ctx, v, w)
                assert len(calls) == formula, (v, w)
                restricted_again += dominated or sorted(v) == sorted(w)
        assert restricted_again > 100


@pytest.mark.parametrize("call", [
    lambda ctx: omega_at_fixed_point(ctx, 2, (0,)),
    lambda ctx: top_term_product(ctx, (1,), (1, 1)),
    lambda ctx: top_term_product(ctx, (1, 1), (1,)),
    lambda ctx: vanishing_check(ctx, (0, 2), (1,)),
    lambda ctx: vanishing_check(ctx, (0,), (1, 2)),
    lambda ctx: vanishing_check(ctx, (0, 2), (1, 3)),
], ids=["omega-short-w", "top-term-short-v", "top-term-short-w",
        "vanishing-short-w", "vanishing-short-v", "vanishing-w-above-rank"])
def test_malformed_weight_is_a_value_error(call):
    # checked before any early return: no IndexError, and no True
    # answered for a w that is not a fixed point of the context
    with pytest.raises(ValueError):
        call(RingContext(genus=0, factors=2, rank=3))


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


class TestTopTermProduct:
    @staticmethod
    def by_t_var(ctx, v, w):
        acc = ctx.one()
        for j in range(ctx.factors):
            for i in range(v[j]):
                acc = acc * (ctx.t_var(w[j]) - ctx.t_var(i))
        return acc

    @pytest.mark.parametrize("n,rank", [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_matches_the_t_var_product(self, n, rank):
        ctx = RingContext(genus=1, factors=n, rank=rank)
        points = list(itertools.product(range(rank), repeat=n))
        zeros = 0
        for v in points:
            for w in points:
                got = top_term_product(ctx, v, w)
                assert got == self.by_t_var(ctx, v, w), (v, w)
                zeros += got.is_zero()
        # a zero factor exactly when some v_j > w_j
        assert zeros == sum(1 for v in points for w in points
                            if not all(a <= b for a, b in zip(v, w)))

    def test_unbounded_rank_and_rank_zero(self):
        ctx = RingContext(genus=0, factors=2, rank=UNBOUNDED)
        for v, w in [((3, 1), (5, 2)), ((2, 6), (1, 7)), ((0, 0), (4, 0))]:
            assert top_term_product(ctx, v, w) == self.by_t_var(ctx, v, w)
        flat = RingContext(genus=0, factors=2)
        assert top_term_product(flat, (0, 0), (1, 1)) == flat.one()
        with pytest.raises(ValueError, match="rank-0"):
            top_term_product(flat, (0, 1), (1, 1))


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

    @pytest.mark.parametrize("lemma", [top_term_residual, vanishing_check,
                                       degree_bound_check])
    def test_lemmas_refuse_nonzero_degrees(self, lemma):
        ctx = RingContext(genus=0, factors=2, rank=2, degrees=(1, 0))
        with pytest.raises(ValueError, match="require trivial degrees"):
            lemma(ctx, (0, 1), (1, 0))

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
