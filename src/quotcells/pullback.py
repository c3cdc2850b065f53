"""Pullbacks of quot-scheme cell classes to the complete-flag model.

Two independent evaluations are provided, both sums over the orbit of
the weight: of cell classes (the oracle) and of admissible row tuples;
the two must agree exactly.  The module also carries the symmetry/rank
machinery used to certify that the pullback image is the full invariant
subring of the omega-twisted permutation action.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .cells import _require_letters_only, cell_class, complete_homogeneous
from .linalg import exact_rank
from .ring import (RingContext, RingElement, graded_piece, is_homogeneous,
                   letter_monomials, monomial_degree, monomials_of_degree,
                   permute_factors, permute_factors_omega, point_class,
                   project_invariant, small_diagonal)
from .weights import (admissible_row_tuples, apply_perm, classify,
                      cycle_types, incidence_tuple, is_decreasing, orbit,
                      permutations, row_exponent, stabilizer, transposition,
                      tuple_support, young_subgroup)


def _average_twist(ctx: RingContext, group, a: RingElement, strict: bool) -> RingElement:
    """The twist class a (default 1) averaged over the stabilizer group;
    strict mode rejects a class that the average changes."""
    if a is None:
        a = ctx.one()
    _require_letters_only(a)
    averaged = project_invariant(group, a)
    if strict and averaged != a:
        raise ValueError("a is not invariant under the stabilizer")
    return averaged


def quot_pullback(ctx: RingContext, u, a: RingElement = None,
                  strict: bool = False) -> RingElement:
    """Pullback of the quot-scheme cell class of the decreasing weight u
    twisted by a: the orbit sum over v in S_n u of cell(v) sigma_v(a),
    sigma_v(u) = v, which is the symmetrization (1/|St(u)|) sum_sigma
    cell(sigma u) sigma(a) since a is St(u)-invariant.

    Non-invariant a is averaged over St(u) first (lenient mode); strict
    mode raises instead.
    """
    u = tuple(u)
    if not is_decreasing(u):
        raise ValueError("u must be decreasing")
    a = _average_twist(ctx, stabilizer(u), a, strict)
    return _orbit_sum(ctx, u, permutations(ctx.factors), a)


def _orbit_sum(ctx: RingContext, v, group, a: RingElement) -> RingElement:
    """sum over w in the orbit of v of cell(w) sigma_w(a), sigma_w(v) = w."""
    acc = ctx.zero()
    for w, sigma in orbit(v, group).items():
        acc = acc + cell_class(ctx, w) * permute_factors(sigma, a)
    return acc


def combinatorial_prefactor(ctx: RingContext, rows) -> RingElement:
    """omega / diagonal / point part attached to one admissible row tuple."""
    exps = [row_exponent(row, j + 1) for j, row in enumerate(rows)]
    acc = ctx.monomial(omega=exps)
    for b1, components in classify(incidence_tuple(rows)).items():
        for comp in components:
            members = tuple_support(comp)
            if b1 == 0:
                acc = acc * small_diagonal(ctx, members)
            elif b1 == 1:
                acc = acc * ((2 - 2 * ctx.genus) * point_class(ctx, members))
            else:  # pruned by the enumeration; kept for safety
                return ctx.zero()
    return acc


def quot_pullback_combinatorial(ctx: RingContext, u, a: RingElement = None,
                                strict: bool = False) -> RingElement:
    """The same pullback evaluated by the combinatorial formula:

        sum over v in S_n u and admissible row tuples of (u, sigma_v) of
        prefactor(rows) * sigma_v(a),  sigma_v(u) = v.

    Only derived for trivial line-bundle degrees; refuses anything else.
    """
    if any(ctx.degrees):
        raise ValueError("the combinatorial formula requires trivial degrees")
    u = tuple(u)
    if not is_decreasing(u):
        raise ValueError("u must be decreasing")
    a = _average_twist(ctx, stabilizer(u), a, strict)
    acc = ctx.zero()
    for sigma in orbit(u, permutations(ctx.factors)).values():
        pref = _prefactor_sum(ctx, u, sigma)
        if pref:
            acc = acc + pref * permute_factors(sigma, a)
    return acc


def _prefactor_sum(ctx: RingContext, u, sigma) -> RingElement:
    # memoized on sigma(u): the row tuples depend on nothing else
    key = ("prefactor", apply_perm(sigma, u))
    got = ctx._memo.get(key)
    if got is None:
        got = ctx.zero()
        for rows in admissible_row_tuples(u, sigma):
            got = got + combinatorial_prefactor(ctx, rows)
        ctx._memo[key] = got
    return got


def partial_flag_pullback(ctx: RingContext, composition, v_star,
                          a: RingElement = None, strict: bool = False) -> RingElement:
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
    averaged = _average_twist(ctx, stabilizer(labelled), a, strict)
    return _orbit_sum(ctx, v, young_subgroup(composition), averaged)


# -- symmetry and rank certificates -------------------------------------------

def is_invariant(x: RingElement) -> bool:
    """Invariance under the simultaneous factor/omega permutation action,
    tested on adjacent transpositions."""
    n = x.ctx.factors
    for i in range(1, n):
        if permute_factors_omega(transposition(n, i, i + 1), x) != x:
            return False
    return True


def invariant_dimension(ctx: RingContext, degree: int) -> int:
    """Dimension of the invariant subspace of the omega-twisted action in
    the given cohomological degree."""
    return projector_trace(ctx, list(monomials_of_degree(ctx, degree)))


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


def span_rank(elements, degree: int) -> int:
    """Rank over Q of the degree-d pieces of the given homogeneous classes."""
    rows = []
    for x in elements:
        if not is_homogeneous(x):
            raise ValueError("span_rank needs homogeneous classes")
        piece = graded_piece(x, degree)
        if piece:
            rows.append(piece.coeffs)
    return exact_rank(rows)


def invariant_letter_classes(ctx: RingContext, degree: int, group=None):
    """Spanning set of the group-invariant omega-free classes of the given
    degree: orbit sums of letter monomials (vanishing sums skipped)."""
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


def quot_pullback_spanning_classes(ctx: RingContext, degree: int, max_co=None):
    """The pullback classes of degree `degree` built from all decreasing
    weights and a spanning set of stabilizer-invariant twists."""
    from .weights import decreasing_vectors
    n = ctx.factors
    cap = degree // 2 if max_co is None else min(max_co, degree // 2)
    out = []
    for u in decreasing_vectors(n, None, cap):
        rest = degree - 2 * sum(u)
        if rest < 0 or rest > 2 * n:
            continue
        for a in invariant_letter_classes(ctx, rest, stabilizer(u)):
            out.append(quot_pullback(ctx, u, a))
    return out


def generating_identity_check(ctx: RingContext, letter_code: int, order: int) -> dict:
    """Truncated comparison of the two generating series of the classes
    cell(l e_i) p_i^*(a), summed over factor positions, against the
    diagonal-weighted product form.  Returns the residual per power and
    whether the diagonal twist was position-independent.
    """
    import itertools as _it
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
        for members in _it.combinations(range(1, n + 1), size):
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
    gens = [(g, _degree_of(g)) for g in pullback_generators(ctx)]
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


def _degree_of(x: RingElement) -> int:
    return max(monomial_degree(m) for m in x.coeffs)
