"""Pullbacks of quot-scheme cell classes to the complete-flag model.

Two independent evaluations are provided, both orbit sums over S_n u:
of cell classes (the oracle) and of the prefactors of admissible row
tuples; the two must agree exactly.  Every orbit sum, of either route,
of a partial flag or of a spanning class, reads one member list of
(member class, sigma), built by `_orbit_members` with weights.orbit_walk
once per context, route, weight and labels and kept in the context's
memo; the two routes never read each other's list.  `_orbit_members` is
the one place a weight is checked, before its list is built, so a list
in the memo always belongs to a checked weight.  `pullback_classes` is
the one enumerator of (u, twist) classes, for `verify`, the acceptance
tests and the spanning classes of the rank certificate; it sums each
St(u) group-sum twist straight over u's list.  Twist averages and
invariant letter classes are orbit sums too.  The module also carries
the symmetry/rank machinery that certifies the pullback image is the
full invariant subring of ring.permute_factors; invariance is tested
one transposition of two factors at a time (ring._fixed_by_swap), and
every sign is ring._inversion_parity's.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .cells import (_check_entries, _check_length, _require_letters_only,
                    cell_class)
from .linalg import exact_rank
from .ring import (POINT, UNIT, RingContext, RingElement, _add_product,
                   _fixed_by_swap, _inversion_parity, _require_ctx, _settled,
                   cohomological_degree, letter_monomials, permute_factors,
                   point_class, small_diagonal)
from .series import poly_coeff, quot_series_product
from .weights import (admissible_row_tuples, apply_perm, decreasing_vectors,
                      mask_elements, orbit_walk)


def _fixed_by_stabilizer(v, x: RingElement) -> bool:
    """Whether x is invariant under St(v), the permutations fixing v,
    tested on its generators: the transpositions of consecutive positions
    holding one value of v, in order (for v = 0^n the adjacent ones),
    each term by term."""
    last = {}
    for i, value in enumerate(v):
        if value in last and not _fixed_by_swap(x, last[value], i):
            return False
        last[value] = i
    return True


def _young_order(labels) -> int:
    """The order of the permutations that keep each position's label."""
    return prod(factorial(labels.count(label)) for label in set(labels))


def _orbit_group_sum(labels, order, orbit):
    """sum_{sigma in G} sigma(m), monomial -> coefficient, for the first
    member m of an orbit of letter tuples under the group G of the given
    order keeping each position's label: |G| / |orbit| times the sign of
    sigma(m) = +-w at each member w, the inversion parity of m's odd
    (label, letter) pairs plus w's.  Empty when an odd letter repeats
    under one label: the swap of the two fixes m and costs a sign.
    With fewer than two odd letters every sign is +."""
    odd = [pair for pair in zip(labels, orbit[0]) if pair[1] > POINT]
    if len(set(odd)) < len(odd):  # every member has the same odd pairs
        return {}
    zero, scale = (0,) * len(labels), order // len(orbit)
    if len(odd) < 2:
        return {(w, zero, ()): scale for w in orbit}
    first = _inversion_parity(odd)
    return {(w, zero, ()): -scale if first ^ _inversion_parity(
                [pair for pair in zip(labels, w) if pair[1] > POINT]) else scale
            for w in orbit}


def average_twist(ctx: RingContext, v, a: RingElement = None) -> RingElement:
    """The twist a (default 1) averaged over St(v), or a itself when it
    is invariant.  v has one entry per factor (a weight, or the (label,
    entry) pairs of a partial flag), and a must be built against ctx."""
    _check_length(ctx, v)
    if a is None:
        a = ctx.one()
    _require_ctx(ctx, a)
    _require_letters_only(a)
    return a if _fixed_by_stabilizer(v, a) else _orbit_average(ctx, v, a)


def _orbit_average(ctx: RingContext, v, a: RingElement) -> RingElement:
    """a averaged over St(v): each term c m gives c |Stab(m)| / |St(v)| =
    c / |orbit| times the signed sum over the St(v)-orbit of m, which
    weights.orbit_walk lists with v as labels."""
    order, out = _young_order(v), {}
    for (letters, _omega, _t), c in a._coeffs.items():
        orbit = list(orbit_walk(letters, v))
        for mono, k in _orbit_group_sum(v, order, orbit).items():
            out[mono] = out.get(mono, 0) + c * k
    return _settled(ctx, {mono: Fraction(c, order)
                          for mono, c in out.items()})


def quot_pullback(ctx: RingContext, u, a: RingElement = None) -> RingElement:
    """Pullback of the quot-scheme cell class of the decreasing weight u
    twisted by a: the orbit sum over v in S_n u of cell(v) sigma_v(a),
    sigma_v(u) = v, which is the symmetrization (1/|St(u)|) sum_sigma
    cell(sigma u) sigma(a) since a is St(u)-invariant.
    """
    u = tuple(u)
    return _orbit_sum(ctx, _orbit_members(ctx, cell_class, u),
                      average_twist(ctx, u, a))


def _orbit_members(ctx: RingContext, member, v, labels=None):
    """The tuple of (member(ctx, w), sigma_w) over the images {w: sigma_w}
    of v that weights.orbit_walk(v, labels) lists, sigma_w(v) = w: kept
    in ctx._memo under (member, v, labels), so the orbit is walked once
    per context and route and read by every twist summed over it.  The
    two pullback routes differ only in `member`, so neither reads the
    other's list, and the labels keep apart partial flags whose blocks
    concatenate to one v.  This is where a weight is checked, before its
    list is built: its entries, then that v decreases on each run of
    equal labels (all of v when labels is None), the orbit walk's n-steps
    precondition."""
    key = ("members", member, v, labels)
    got = ctx._memo.get(key)
    if got is None:
        _check_entries(ctx, v)
        keys = (0,) * len(v) if labels is None else labels
        if any(k == l and x < y for k, l, x, y in zip(keys, keys[1:], v, v[1:])):
            raise ValueError("u must be decreasing" if labels is None
                             else "each block must be decreasing")
        got = ctx._memo[key] = tuple(
            (member(ctx, w), sigma) for w, sigma in orbit_walk(v, labels).items())
    return got


def _orbit_sum(ctx: RingContext, members, a: RingElement) -> RingElement:
    """sum over the (x_w, sigma_w) of `_orbit_members` of x_w sigma_w(a).
    The first member is v itself, whose sigma is the identity, so its
    product reads a; each other sigma_w(a) comes out of permute_factors
    already grouped, and grouping a itself is done once for the whole
    orbit; every product is added into one term dict."""
    (x, _identity), *rest = members
    out = {}
    _add_product(out, x, a)
    for x, sigma in rest:
        _add_product(out, x, permute_factors(sigma, a))
    return _settled(ctx, out)


def diagonal_class(ctx: RingContext, members, b1: int) -> RingElement:
    """The product of the small diagonals of one incidence component with
    support `members` (factors) and first Betti number b1: the small
    diagonal of the support when b1 = 0, (2-2g) times its point class
    when b1 = 1, and zero otherwise."""
    if b1 == 0:
        return small_diagonal(ctx, members)
    if b1 == 1:
        return (2 - 2 * ctx.genus) * point_class(ctx, members)
    return ctx.zero()


def quot_pullback_combinatorial(ctx: RingContext, u,
                                a: RingElement = None) -> RingElement:
    """The same pullback evaluated by the combinatorial formula:

        sum over v in S_n u of sigma_v(a) times the prefactors of the
        admissible row tuples of v,  sigma_v(u) = v.

    Only derived for trivial line-bundle degrees; refuses anything else.
    """
    if any(ctx.degrees):
        raise ValueError("the combinatorial formula requires trivial degrees")
    u = tuple(u)
    return _orbit_sum(ctx, _orbit_members(ctx, _prefactor_sum, u),
                      average_twist(ctx, u, a))


def _prefactor_sum(ctx: RingContext, v) -> RingElement:
    """Sum of the prefactors of the admissible row tuples of v, added into
    one term dict: the product of the diagonal classes of each tuple's
    components (1 for a single factor with b1 = 0) times its omega
    monomial, an exponent shift in ring._add_product."""
    one, units, out = ctx.one(), (UNIT,) * ctx.factors, {}
    for _rows, omega, components in admissible_row_tuples(v):
        product = None
        for _members, union, b1 in components:
            if b1 or union & (union - 1):
                x = diagonal_class(ctx, mask_elements(union), b1)
                product = x if product is None else product * x
        _add_product(out, one if product is None else product,
                     RingElement(ctx, {(units, omega, ()): 1}))
    return _settled(ctx, out)


def partial_flag_pullback(ctx: RingContext, composition, v_star,
                          a: RingElement = None) -> RingElement:
    """Pullback from a partial filt scheme: the orbit sum over w in Y v of
    cell(w) sigma_w(a), sigma_w(v) = w, for the concatenated blocks v and
    the Young subgroup Y of the composition, the stabilizer of the block
    labels; a is averaged over the blockwise stabilizer of v first.
    """
    composition = tuple(composition)
    blocks = [tuple(b) for b in v_star]
    if tuple(len(b) for b in blocks) != composition:
        raise ValueError("blocks do not match the composition")
    if sum(composition) != ctx.factors:
        raise ValueError("composition must sum to the number of factors")
    v = tuple(x for b in blocks for x in b)
    labels = tuple(k for k, b in enumerate(blocks) for _ in b)
    # the part of Y fixing v fixes each (block label, entry) pair
    return _orbit_sum(ctx, _orbit_members(ctx, cell_class, v, labels),
                      average_twist(ctx, tuple(zip(labels, v)), a))


# -- symmetry and rank certificates -------------------------------------------

def is_invariant(x: RingElement) -> bool:
    """Invariance under the permutation action, which moves each factor's
    letter together with its omega, tested on adjacent transpositions."""
    return _fixed_by_stabilizer((0,) * x.ctx.factors, x)


def invariant_dimension(ctx: RingContext, degree: int) -> int:
    """Dimension of the invariant subspace of the omega-twisted action in
    the given cohomological degree.

    The omega-twisted action on t-free monomials is the super-symmetric
    S_n action on V^{(x)n} with V = H*(C)[w], so the invariants are the
    degree-d part of Sym^n V.  By Macdonald (The Poincare polynomial of a
    symmetric product, 1962) their generating series is
    prod_{h>=0} (1+s t^{2h+1})^{2g} / ((1-s t^{2h})(1-s t^{2h+2})), read at
    s^n t^d; row h starts at t^{2h}, so rows h <= d // 2 suffice."""
    n = ctx.factors
    rows = quot_series_product(ctx.genus, degree // 2 + 1, n, degree)
    return poly_coeff(rows[n], degree)


def span_rank(elements, degree: int) -> int:
    """Rank over Q of those of the given homogeneous classes that have the
    given degree; classes of another degree, and zero, are skipped."""
    rows = []
    for x in elements:
        d = cohomological_degree(x)
        if d == "inhomogeneous":
            raise ValueError("span_rank needs homogeneous classes")
        if d == degree:
            rows.append(x.coeffs)
    return exact_rank(rows)


def invariant_letter_classes(ctx: RingContext, degree: int, group=None):
    """Spanning set of the group-invariant omega-free classes of the given
    degree, for G = S_n (None) or a listed Young subgroup such as St(u):
    `_letter_classes` with the least position each position reaches under
    G as its labels.  A listed group must be that Young subgroup: each
    member keeps the labels, none repeats, and there are as many as its
    order.  The library passes u itself to `_letter_classes`."""
    n = ctx.factors
    if group is None:
        labels = (0,) * n
    else:
        labels = tuple(map(min, zip(*group)))
        if (len(labels) != n or len(group) != _young_order(labels)
                or len(set(map(tuple, group))) != len(group)
                or any(apply_perm(sigma, labels) != labels for sigma in group)):
            raise ValueError("group is not a Young subgroup of S_%d" % n)
    return _letter_classes(ctx, degree, labels)


def _letter_classes(ctx: RingContext, degree: int, labels):
    """The group sums sum_{sigma in G} sigma(m) of letter monomials m of
    the given degree, for the permutations G keeping each position's
    label (St(u) for the labels u), one per orbit in the order of its
    first member, each |Stab_G(m)| = |G| / |orbit| times the signed orbit
    sum (vanishing sums skipped); an orbit is the letter tuples of one
    multiset of (label, letter), so only which positions share a label
    matters, not the labels' values or order.  The list is built once
    per context and (degree, block pattern), with the pattern as labels,
    and kept in ctx._memo: the pattern replaces each label by the index
    of its first occurrence, so (2, 0, 0) and (1, 0, 0) both read the
    list of (0, 1, 1).  Each call gets a fresh list of the kept
    elements, which are immutable."""
    first = {}
    pattern = tuple(first.setdefault(label, i) for i, label in enumerate(labels))
    key = ("letter_classes", degree, pattern)
    got = ctx._memo.get(key)
    if got is None:
        order, orbits = _young_order(pattern), {}
        for letters in letter_monomials(ctx, degree):
            orbits.setdefault(tuple(sorted(zip(pattern, letters))), []).append(letters)
        sums = (_orbit_group_sum(pattern, order, orbit) for orbit in orbits.values())
        got = ctx._memo[key] = tuple(RingElement(ctx, terms) for terms in sums if terms)
    return list(got)


def pullback_classes(ctx: RingContext, pairs):
    """(u, a, psi(u; a)) for each (u, degree) of `pairs` and each twist a
    of _letter_classes(ctx, degree, u), the St(u) group sums with u as its
    own labels, streamed in that order.  Each class is quot_pullback(ctx,
    u, a) summed straight over u's one member list: a St(u) group sum is
    its own average.  A u with no twist of its degree gets no list, so it
    is never checked."""
    for u, degree in pairs:
        u = tuple(u)
        twists = _letter_classes(ctx, degree, u)
        if twists:
            members = _orbit_members(ctx, cell_class, u)
            for a in twists:
                yield u, a, _orbit_sum(ctx, members, a)


def quot_pullback_spanning_classes(ctx: RingContext, degree: int):
    """The pullback classes of degree `degree` from every decreasing
    weight u and the St(u)-invariant twists of the rest of the degree, in
    the order of u and then of the twists."""
    return [x for _u, _a, x in pullback_classes(
        ctx, ((u, degree - 2 * sum(u))
              for u in decreasing_vectors(ctx.factors, None, degree // 2)))]


def pullback_generators(ctx: RingContext):
    """The pullbacks of the single-row cell classes twisted by curve
    classes in the first factor, for row lengths 1..n."""
    gens = []
    n = ctx.factors
    for l in range(1, n + 1):
        u = (l,) + (0,) * (n - 1)
        for code in ctx.curve_basis():
            gens.append(quot_pullback(ctx, u, ctx.letter_at(1, code)))
    return gens


def generator_span_check(ctx: RingContext, max_degree: int) -> dict:
    """Degree-by-degree certificate that the subalgebra generated by the
    single-row pullbacks over the symmetric omega-free classes spans the
    full invariant subspace, for every degree 0..max_degree; a negative
    max_degree, which would certify no degree, raises ValueError."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    gens = [(g, cohomological_degree(g)) for g in pullback_generators(ctx)]
    gens = [(g, d) for g, d in gens if d <= max_degree]
    # each product of generators with indices from `start` on, read
    # while the list grows
    products = [(ctx.one(), 0, 0)]
    for element, degree, start in products:
        for idx in range(start, len(gens)):
            g, d = gens[idx]
            if degree + d > max_degree:
                continue
            nxt = element * g
            if nxt:
                products.append((nxt, degree + d, idx))
    base = {d: invariant_letter_classes(ctx, d) for d in range(max_degree + 1)}
    per_degree = []
    ok = True
    for d in range(max_degree + 1):
        spanning = [b * p for p, pd, _start in products if pd <= d
                    for b in base[d - pd]]
        rank = span_rank(spanning, d)
        dim = invariant_dimension(ctx, d)
        per_degree.append({"degree": d, "span": rank, "invariant": dim,
                           "pass": rank == dim})
        ok = ok and rank == dim
    return {"max_degree": max_degree, "per_degree": per_degree, "pass": ok}

