"""Restriction of equivariant classes to torus fixed points.

Restriction to the fixed point of weight w substitutes each omega_i by

    t_{w_i} - sum over k < i with w_k = w_i of diag_{k,i} + d_{w_i} pt_i

and fixes letters and t-variables, which makes it a ring homomorphism on
representatives.  The lemma checks below exercise the top-term product
formula, the vanishing criterion and the t-degree bound.

A restriction reads one memo entry per (context, w): per factor i a
row, row[e] = omega_i|_w ** e, filled on demand with references to
the powers memoized per (i, e, w_i, positions k < i with w_k = w_i), so
a row holds no element of its own and is never handed out.  Each omega
layer is multiplied by the product of its powers into one term dict.
Where omega_i|_w is the one term t_{w_i}, as at every w with distinct
entries and trivial degrees, that product is an exponent shift in the
ring kernel (ring._add_product), not a product over terms.
top_term_product expands prod (t_{w_j} - t_i) as a polynomial in t and
wraps it once, so the expected side of the top-term lemma does not go
through the kernel it checks.  The product depends only on the multiset
of pairs (v_j, w_j) with v_j > 0, so a context keeps one expanded
element per nonempty multiset: the rank-4 grids of the localization
benchmark expand 39 of them for their 1,043 dominated pairs (v, w).

The t-degree bound for w a reordering of v reads

    t_degree(cell(v)|_w) <= co(v) - T(v, w),

with T(v, w) the fewest transpositions of entries taking v to w.  When
w moves the entries of v along one cycle, T is the number of moved
entries minus one.  Two disjoint transpositions, as in v = (0, 0, 1, 1),
w = (1, 1, 0, 0), move four entries with T = 2, and that restriction
has t-degree 0 = co(v) - T.  No paper text for the bound is at hand.
Every pair checked meets it (n <= 5 at rank 3 with co(v) <= 3, n = 3
at rank 4 with co(v) <= 6, and the 4-cycle (0, 1, 2, 3) -> (1, 2, 3,
0) at rank 4), and each class of (co(v), moved entries, T) met there
reaches it exactly.
"""

from __future__ import annotations

from .ring import (UNIT, RingContext, RingElement, _add_product, _settled,
                   _trim, diagonal, omega_layers, top_part)
from .cells import _check_entries, cell_class_equivariant
from .weights import componentwise_leq


def omega_at_fixed_point(ctx: RingContext, i: int, w) -> RingElement:
    """The image of omega_i at the fixed point of weight w."""
    ctx._check_factor(i)
    _check_entries(ctx, w)
    out = ctx.t_var(w[i - 1])
    for k in range(1, i):
        if w[k - 1] == w[i - 1]:
            out = out - diagonal(ctx, k, i)
    d = ctx.bundle_degree(w[i - 1])
    if d:
        out = out + d * ctx.pt(i)
    return out


def _omega_power(ctx: RingContext, i: int, e: int, w) -> RingElement:
    """omega_i|_w ** e, memoized per context.  The image depends on w only
    through w_i and the positions k < i with w_k = w_i, so the fixed points
    sharing that pattern share one entry."""
    wi = w[i - 1]
    key = ("omega_power", i, e, wi,
           tuple(k for k in range(i - 1) if w[k] == wi))
    got = ctx._memo.get(key)
    if got is None:
        got = ctx._memo[key] = omega_at_fixed_point(ctx, i, w) ** e
    return got


def restrict_to_fixed_point(x: RingElement, w) -> RingElement:
    """The image of x at the fixed point of weight w.

    The context keeps the last restriction made: a call with that very
    element (``is``, and elements never change) at an equal w returns it,
    so a check that restricts the cached cell class its caller has just
    restricted does no work twice."""
    ctx = x.ctx
    w = tuple(w)
    if ctx.rank == 0:
        raise ValueError("restriction needs an equivariant context")
    _check_entries(ctx, w)
    memo = ctx._memo
    last = memo.get("last_restriction")
    if last is not None and last[0] is x and last[1] == w:
        return last[2]
    # One row per factor i at w, row[e] = omega_i|_w ** e, filled on
    # demand with references to the pattern-keyed powers (None where no
    # layer has asked for that exponent yet).
    rows = memo.get(("omega_rows", w))
    if rows is None:
        rows = memo["omega_rows", w] = [[] for _ in w]
    # One multiply-accumulate per omega layer with nonzero omega into one
    # term dict: the layer times the product of its omega powers' images.
    out = {}
    for omega, part in omega_layers(x).items():
        image = None
        for i, e in enumerate(omega):
            if e:
                row = rows[i]
                if e >= len(row):
                    row += [None] * (e + 1 - len(row))
                power = row[e]
                if power is None:
                    power = row[e] = _omega_power(ctx, i + 1, e, w)
                image = power if image is None else image * power
        if image is None:  # the omega-free layer is its own image
            for mono, c in part._coeffs.items():
                out[mono] = out.get(mono, 0) + c
        else:
            _add_product(out, part, image)
    acc = _settled(ctx, out)
    memo["last_restriction"] = (x, w, acc)
    return acc


def t_degree(x: RingElement):
    """Largest total t-exponent over the support; -inf for 0."""
    terms = x._coeffs
    if not terms:
        return float("-inf")
    return max(sum(m[2]) for m in terms)


def top_term(x: RingElement) -> RingElement:
    return top_part(x, 2)


def _require_trivial_degrees(ctx: RingContext):
    if any(ctx.degrees):
        raise ValueError("the localization lemma checks require trivial degrees")


def top_term_product(ctx: RingContext, v, w) -> RingElement:
    """Product formula for the top term over all factors j:
    product over 0 <= i < v_j of (t_{w_j} - t_i).  It depends only on
    the multiset of pairs (v_j, w_j) with v_j > 0; the context keeps one
    expanded element per multiset, and elements never change."""
    _check_entries(ctx, v)
    _check_entries(ctx, w)
    if not any(v):
        return ctx.one()
    ctx._check_t_length(1)  # a rank-0 context has no t-variables
    if any(a > b for a, b in zip(v, w)):  # the factor t_{w_j} - t_{w_j}
        return ctx.zero()
    key = ("top_term_product", tuple(sorted((a, b) for a, b in zip(v, w) if a)))
    got = ctx._memo.get(key)
    if got is None:
        got = ctx._memo[key] = _expand_top_term_product(ctx, key[1])
    return got


def _expand_top_term_product(ctx: RingContext, pairs) -> RingElement:
    """product over the pairs (a, b) and 0 <= i < a of (t_b - t_i),
    expanded as a polynomial in t and wrapped as an element once."""
    size = max(b for _, b in pairs) + 1
    poly = {(0,) * size: 1}  # t-exponent tuple -> coefficient
    for a, top in pairs:
        for i in range(a):
            expanded = {}
            for t, c in poly.items():
                for k, d in ((top, c), (i, -c)):
                    bumped = list(t)
                    bumped[k] += 1
                    bumped = tuple(bumped)
                    # its own zero test, independent of the kernel it checks
                    s = expanded.get(bumped, 0) + d
                    if s:
                        expanded[bumped] = s
                    else:
                        del expanded[bumped]
            poly = expanded
    letters, zero = (UNIT,) * ctx.factors, (0,) * ctx.factors
    return RingElement(ctx, {(letters, zero, _trim(t)): c
                             for t, c in poly.items()})


def top_term_residual(ctx: RingContext, v, w) -> RingElement:
    """Top term of the restricted cell class minus the product formula;
    expected 0 whenever w dominates v componentwise."""
    _require_trivial_degrees(ctx)
    v, w = tuple(v), tuple(w)
    if not componentwise_leq(v, w):
        raise ValueError("the top-term formula needs w >= v componentwise")
    restricted = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
    return top_term(restricted) - top_term_product(ctx, v, w)


def vanishing_check(ctx: RingContext, v, w) -> bool:
    """Contrapositive of the non-vanishing criterion: when no reordering
    of v is dominated by w, the restriction must vanish.  Some reordering
    of v lies under w exactly when sorted(v) lies under sorted(w) (match
    the entries greedily in increasing order)."""
    _require_trivial_degrees(ctx)
    v, w = tuple(v), tuple(w)
    _check_entries(ctx, v)
    _check_entries(ctx, w)
    if componentwise_leq(sorted(v), sorted(w)):
        return True
    return restrict_to_fixed_point(cell_class_equivariant(ctx, v), w).is_zero()


def transposition_count(v, w) -> int:
    """T(v, w) for w a reordering of v: the fewest transpositions of
    entries taking v to w.  A permutation with c cycles on m moved
    positions is a product of m - c transpositions and of no fewer, so T
    is the number of moved entries minus the most cycles into which
    their pairs v_i -> w_i split."""
    moved = tuple(sorted((a, b) for a, b in zip(v, w) if a != b))
    return len(moved) - _most_cycles(moved)


def _most_cycles(pairs) -> int:
    """The most cycles into which the sorted pairs (a, b), a != b, split,
    where as many pairs leave each value as enter it.  A cycle that
    visits a value twice splits into two, so some best split has the
    first pair in a cycle visiting each value once: the search tries
    every such cycle and splits what is left in turn."""
    if not pairs:
        return 0
    start, node = pairs[0]
    best = 0
    stack = [(node, pairs[1:], (node,))]
    while stack:
        node, rest, seen = stack.pop()
        for k, pair in enumerate(rest):
            # equal pairs close equal cycles: try the first of each run
            if pair[0] != node or k and rest[k - 1] == pair:
                continue
            left = rest[:k] + rest[k + 1:]
            if pair[1] == start:
                best = max(best, 1 + _most_cycles(left))
            elif pair[1] not in seen:
                stack.append((pair[1], left, seen + (pair[1],)))
    return best


def degree_bound_check(ctx: RingContext, v, w) -> bool:
    """For w a reordering of v: the t-degree of the restriction is at most
    co(v) - T(v, w) (transposition_count; see the module docstring)."""
    _require_trivial_degrees(ctx)
    v, w = tuple(v), tuple(w)
    if sorted(v) != sorted(w):
        raise ValueError("w must be a reordering of v")
    restricted = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
    return t_degree(restricted) <= sum(v) - transposition_count(v, w)
