"""Pullbacks of quot-scheme cell classes to the complete-flag model.

Two independent evaluations are provided, both sums over the orbit of
the weight: of cell classes (the oracle) and of admissible row tuples;
the two must agree exactly.  The module also carries the symmetry/rank
machinery used to certify that the pullback image is the full invariant
subring of ring.permute_factors, the permutation action that moves each
factor's curve class together with its omega.
"""

from __future__ import annotations

from .cells import _require_letters_only, cell_class
from .linalg import exact_rank
from .ring import (RingContext, RingElement, cohomological_degree,
                   letter_monomials, permute_factors, point_class,
                   project_invariant, small_diagonal)
from .series import poly_coeff, quot_series_product
from .weights import (admissible_row_tuples, betti_b1, connected_components,
                      decreasing_vectors, incidence_tuple, is_decreasing,
                      orbit, permutations, row_exponent, stabilizer,
                      transposition, tuple_support, young_subgroup)


def average_twist(ctx: RingContext, v, a: RingElement = None) -> RingElement:
    """The twist a (default 1) averaged over St(v), the permutations fixing
    v, or a itself when it is invariant: St(v) is generated by the
    transpositions of consecutive positions holding one value of v, so
    only these are tested and St(v) is listed only for a non-invariant a."""
    if a is None:
        a = ctx.one()
    _require_letters_only(a)
    last = {}
    for i, value in enumerate(v):
        if value in last:
            tau = transposition(len(v), last[value] + 1, i + 1)
            if permute_factors(tau, a) != a:
                return project_invariant(stabilizer(v), a)
        last[value] = i
    return a


def quot_pullback(ctx: RingContext, u, a: RingElement = None) -> RingElement:
    """Pullback of the quot-scheme cell class of the decreasing weight u
    twisted by a: the orbit sum over v in S_n u of cell(v) sigma_v(a),
    sigma_v(u) = v, which is the symmetrization (1/|St(u)|) sum_sigma
    cell(sigma u) sigma(a) since a is St(u)-invariant.

    A twist that is not St(u)-invariant is averaged over St(u) first.
    """
    u = tuple(u)
    if not is_decreasing(u):
        raise ValueError("u must be decreasing")
    a = average_twist(ctx, u, a)
    return _orbit_sum(ctx, cell_class, u, permutations(ctx.factors), a)


def _orbit_sum(ctx: RingContext, member, v, group,
               a: RingElement) -> RingElement:
    """sum over w in the orbit of v of member(ctx, w) sigma_w(a),
    sigma_w(v) = w; the two pullback routes differ only in `member`."""
    acc = ctx.zero()
    for w, sigma in orbit(v, group).items():
        acc = acc + member(ctx, w) * permute_factors(sigma, a)
    return acc


def diagonal_class(ctx: RingContext, sets) -> RingElement:
    """The product of the small diagonals of a connected subset tuple: the
    small diagonal of its support when b1 = 0, (2-2g) times the point
    class of its support when b1 = 1, and zero otherwise."""
    b1 = betti_b1(sets)
    members = tuple_support(sets)
    if b1 == 0:
        return small_diagonal(ctx, members)
    if b1 == 1:
        return (2 - 2 * ctx.genus) * point_class(ctx, members)
    return ctx.zero()


def combinatorial_prefactor(ctx: RingContext, rows) -> RingElement:
    """omega / diagonal / point part attached to one admissible row tuple."""
    exps = [row_exponent(row, j + 1) for j, row in enumerate(rows)]
    acc = ctx.monomial(omega=exps)
    for comp in connected_components(incidence_tuple(rows)):
        acc = acc * diagonal_class(ctx, comp)
    return acc


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
    if not is_decreasing(u):
        raise ValueError("u must be decreasing")
    a = average_twist(ctx, u, a)
    return _orbit_sum(ctx, _prefactor_sum, u, permutations(ctx.factors), a)


def _prefactor_sum(ctx: RingContext, v) -> RingElement:
    """Sum of the prefactors of the admissible row tuples of v, memoized."""
    key = ("prefactor", tuple(v))
    got = ctx._memo.get(key)
    if got is None:
        got = ctx.zero()
        for rows in admissible_row_tuples(v):
            got = got + combinatorial_prefactor(ctx, rows)
        ctx._memo[key] = got
    return got


def partial_flag_pullback(ctx: RingContext, composition, v_star,
                          a: RingElement = None) -> RingElement:
    """Pullback from a partial filt scheme: the orbit sum over w in Y v of
    cell(w) sigma_w(a), sigma_w(v) = w, for the concatenated blocks v and
    the Young subgroup Y of the composition; a is averaged over the
    blockwise stabilizer of v first.
    """
    composition = tuple(composition)
    blocks = [tuple(b) for b in v_star]
    if tuple(len(b) for b in blocks) != composition:
        raise ValueError("blocks do not match the composition")
    if sum(composition) != ctx.factors:
        raise ValueError("composition must sum to the number of factors")
    for b in blocks:
        if not is_decreasing(b):
            raise ValueError("each block must be decreasing")
    v = tuple(x for b in blocks for x in b)
    # the Young-subgroup stabilizer of v fixes each (block label, entry) pair
    labelled = tuple((k, x) for k, b in enumerate(blocks) for x in b)
    return _orbit_sum(ctx, cell_class, v, young_subgroup(composition),
                      average_twist(ctx, labelled, a))


# -- symmetry and rank certificates -------------------------------------------

def is_invariant(x: RingElement) -> bool:
    """Invariance under the permutation action, which moves each factor's
    letter together with its omega, tested on adjacent transpositions."""
    n = x.ctx.factors
    for i in range(1, n):
        if permute_factors(transposition(n, i, i + 1), x) != x:
            return False
    return True


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
    degree: the group sums sum_{sigma in G} sigma(m) of letter monomials m,
    one per orbit, each |Stab_G(m)| times the signed orbit sum (vanishing
    sums skipped)."""
    if group is None:
        group = list(permutations(ctx.factors))
    seen = set()
    out = []
    for letters in letter_monomials(ctx, degree):
        if letters in seen:
            continue
        mono = (letters, (0,) * ctx.factors, ())
        orbit_sum = ctx.zero()
        element = RingElement(ctx, {mono: 1})
        for sigma in group:
            image = permute_factors(sigma, element)
            seen.add(next(iter(image.coeffs))[0])
            orbit_sum = orbit_sum + image
        if orbit_sum:
            out.append(orbit_sum)
    return out


def quot_pullback_spanning_classes(ctx: RingContext, degree: int):
    """The pullback classes of degree `degree` built from all decreasing
    weights and a spanning set of stabilizer-invariant twists."""
    n = ctx.factors
    out = []
    for u in decreasing_vectors(n, None, degree // 2):
        rest = degree - 2 * sum(u)
        if rest < 0 or rest > 2 * n:
            continue
        for a in invariant_letter_classes(ctx, rest, stabilizer(u)):
            out.append(quot_pullback(ctx, u, a))
    return out


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
    full invariant subspace."""
    gens = [(g, cohomological_degree(g)) for g in pullback_generators(ctx)]
    gens = [(g, d) for g, d in gens if g and d <= max_degree]
    products = [(ctx.one(), 0)]
    frontier = [(ctx.one(), 0, 0)]
    while frontier:
        element, degree, start = frontier.pop()
        for idx in range(start, len(gens)):
            g, d = gens[idx]
            if degree + d > max_degree:
                continue
            nxt = element * g
            if nxt:
                products.append((nxt, degree + d))
                frontier.append((nxt, degree + d, idx))
    base = {d: invariant_letter_classes(ctx, d) for d in range(max_degree + 1)}
    per_degree = []
    ok = True
    for d in range(max_degree + 1):
        spanning = []
        for p, pd in products:
            if pd > d or (d - pd) > 2 * ctx.factors:
                continue
            for b in base.get(d - pd, []):
                spanning.append(b * p)
        rank = span_rank(spanning, d)
        dim = invariant_dimension(ctx, d)
        per_degree.append({"degree": d, "span": rank, "invariant": dim,
                           "pass": rank == dim})
        ok = ok and rank == dim
    return {"max_degree": max_degree, "per_degree": per_degree, "pass": ok}

