import itertools
from fractions import Fraction
from math import comb

import pytest

from quotcells.cells import cell_class
from quotcells.ring import (UNIT, RingContext, RingElement, letter_degree,
                            letter_name, permute_factors)
from quotcells.series import poly_add, poly_mul
from quotcells.weights import apply_perm


@pytest.fixture
def ctx_g1_n2():
    return RingContext(genus=1, factors=2)


@pytest.fixture
def ctx_g0_n2():
    return RingContext(genus=0, factors=2)


def compositions(total: int, parts: int):
    """All tuples of non-negative integers of the given length and sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def compose(sigma, tau):
    """(sigma tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t] for t in tau)


def invert(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def is_decreasing(v) -> bool:
    return all(a >= b for a, b in zip(v, v[1:]))


def weights_to_decomposition(v_star, r: int):
    """Bijection from tuples of decreasing blocks with entries < r to the
    r rows of per-value multiplicities."""
    blocks = [tuple(b) for b in v_star]
    for b in blocks:
        if not is_decreasing(b):
            raise ValueError("blocks must be decreasing")
        if any(x >= r for x in b):
            raise ValueError("entry >= r")
    return tuple(tuple(sum(1 for x in b if x == a) for b in blocks)
                 for a in range(r))


def monomials_of_degree(ctx: RingContext, degree: int):
    """All t-free monomials (letters, omega) of the given total degree."""
    n = ctx.factors
    basis = ctx.curve_basis()
    for letters in itertools.product(basis, repeat=n):
        rest = degree - sum(letter_degree(c) for c in letters)
        if rest < 0 or rest % 2:
            continue
        for omega in compositions(rest // 2, n):
            yield (letters, omega, ())


def random_homogeneous(ctx, degree, rng, terms=3):
    """Random homogeneous element built from the monomial basis."""
    basis = list(monomials_of_degree(ctx, degree))
    if not basis:
        return ctx.zero()
    coeffs = {}
    for mono in rng.sample(basis, min(terms, len(basis))):
        coeffs[mono] = Fraction(rng.randint(-4, 4))
    return RingElement(ctx, {m: c for m, c in coeffs.items() if c})


def assert_read_only(x):
    """No caller can write through an element's public term view."""
    mono = next(iter(x.coeffs))
    with pytest.raises(AttributeError):
        x.coeffs.clear()
    with pytest.raises(TypeError):
        x.coeffs[mono] = 0
    with pytest.raises(TypeError):
        del x.coeffs[mono]
    with pytest.raises(AttributeError):
        x.coeffs = {}


def reference_sort_key(mono):
    """The canonical order as documented: degree, then t and omega (total,
    then entrywise, high first), then letters (high degree first), as
    one flat tuple."""
    letters, omega, t = mono
    degree = sum(letter_degree(c) for c in letters) + 2 * sum(omega) + 2 * sum(t)
    return (degree, -sum(t), tuple(-e for e in t),
            -sum(omega), tuple(-e for e in omega),
            tuple((-letter_degree(c), c) for c in letters))


def reference_format_element(x: RingElement) -> str:
    """The canonical text written term by term: the terms sorted by
    reference_sort_key, each written anew from letter_name and str."""
    parts = []
    for mono in sorted(x.coeffs, key=reference_sort_key):
        letters, omega, t = mono
        piece = "%s * [%s]" % (x.coeffs[mono], "|".join(map(letter_name, letters)))
        if any(omega):
            piece += " w^(%s)" % ",".join([str(e) for e in omega])
        if t:
            piece += " t^(%s)" % ",".join([str(e) for e in t])
        parts.append(piece)
    return " + ".join(parts) or "0"


def permutations(n: int):
    """All of S_n in lexicographic order, as image tuples."""
    return itertools.permutations(range(n))


def group_sum(group, x: RingElement) -> RingElement:
    """The sum of sigma(x) over the permutations sigma of a finite group:
    the whole-group reference that the orbit sums of the library are
    checked against."""
    acc = x.ctx.zero()
    for sigma in group:
        acc = acc + permute_factors(sigma, x)
    return acc


def project_invariant(perms, x: RingElement) -> RingElement:
    """Average of the factor-permutation action over a finite group."""
    perms = list(perms)
    return group_sum(perms, x) * Fraction(1, len(perms))


def orbit(v, group):
    """The images of v under the group, each mapped to the first member
    of the group that reaches it: the whole-group reference that
    weights.orbit_walk is checked against."""
    images = {}
    for sigma in group:
        images.setdefault(apply_perm(sigma, v), sigma)
    return images


def reference_quot_series_product(g: int, r: int, max_s: int, max_t: int):
    """The closed quot product formula as a product of two-variable
    truncated series, one factor at a time by a plain convolution: the
    reference that series.quot_series_product, built in place, is
    checked against."""
    if g < 0:
        raise ValueError("g must be non-negative")
    series = [[1]] + [[] for _ in range(max_s)]
    for h in range(r):
        # (1 + s t^{2h+1})^{2g}
        factor = [[0] * (j * (2 * h + 1)) + [comb(2 * g, j)] if j * (2 * h + 1) <= max_t
                  else [] for j in range(max_s + 1)]
        series = _series_product(series, factor, max_s, max_t)
        for k in (2 * h, 2 * h + 2):
            geom = [[0] * (j * k) + [1] if j * k <= max_t else []
                    for j in range(max_s + 1)]
            series = _series_product(series, geom, max_s, max_t)
    return series


def _series_product(a, b, max_s, max_t):
    """The product of two series in s and t, truncated at s^max_s and
    t^max_t."""
    out = [[] for _ in range(max_s + 1)]
    for i, j in itertools.product(range(max_s + 1), repeat=2):
        if i + j <= max_s:
            out[i + j] = poly_add(out[i + j], poly_mul(a[i], b[j], max_t))
    return out


def symmetrized_cell_class(ctx: RingContext, v, a: RingElement) -> RingElement:
    """Sum over all permutations of cell(sigma v) * sigma(a): the unreduced
    symmetrization the orbit-sum pullback routes are checked against."""
    if any(any(omega) or t for _letters, omega, t in a.coeffs):
        raise ValueError("class must be free of omega and t variables")
    v = tuple(v)
    acc = ctx.zero()
    for sigma in permutations(ctx.factors):
        acc = acc + cell_class(ctx, apply_perm(sigma, v)) * permute_factors(sigma, a)
    return acc


def from_cell_basis(ctx: RingContext, coefficients: dict) -> RingElement:
    """sum_v a_v * cell(v), the inverse of cells.to_cell_basis."""
    acc = ctx.zero()
    for v, a in coefficients.items():
        acc = acc + a * cell_class(ctx, v)
    return acc


def embed(x: RingElement, target: RingContext) -> RingElement:
    """Extend an element to a context with more factors (unit letters,
    zero omega exponents in the new trailing factors)."""
    src = x.ctx
    if (src.genus, src.rank, src.degrees) != (target.genus, target.rank, target.degrees):
        raise ValueError("contexts differ in genus, rank or degrees")
    if src.factors > target.factors:
        raise ValueError("target context has fewer factors")
    pad = target.factors - src.factors
    out = {}
    for (letters, omega, t), c in x.coeffs.items():
        out[(letters + (UNIT,) * pad, omega + (0,) * pad, t)] = c
    return RingElement(target, out)


def specialize_t_zero(x: RingElement) -> RingElement:
    """Set every equivariant parameter t_a to zero."""
    return RingElement(x.ctx, {m: c for m, c in x.coeffs.items() if not m[2]})


def graph_components(sets):
    """An independent route to the components of a subset tuple and their
    first Betti numbers: depth-first search of the bipartite incidence
    graph, b1 = edges - vertices + 1 per component.  [(set positions,
    b1)], in the order of the first set of each component."""
    adjacency = {}
    for i, s in enumerate(sets):
        adjacency.setdefault(("s", i), [])
        for x in s:
            adjacency[("s", i)].append(("g", x))
            adjacency.setdefault(("g", x), []).append(("s", i))
    seen, out = set(), []
    for i in range(len(sets)):
        if ("s", i) in seen:
            continue
        nodes, stack = [], [("s", i)]
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                nodes.append(current)
                stack.extend(adjacency[current])
        positions = sorted(k for kind, k in nodes if kind == "s")
        edges = sum(len(sets[k]) for k in positions)
        out.append((tuple(positions), edges - len(nodes) + 1))
    return out


def hat_sets(rows):
    """The incidence tuple of a row tuple as sets: the support (1-based)
    of each row j together with j itself."""
    return tuple(frozenset(i for i, value in enumerate(row, 1) if value) | {j}
                 for j, row in enumerate(rows, 1))
