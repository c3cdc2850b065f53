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
through the kernel it checks.
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
    if not x.coeffs:
        return float("-inf")
    return max(sum(m[2]) for m in x.coeffs)


def top_term(x: RingElement) -> RingElement:
    return top_part(x, 2)


def _require_trivial_degrees(ctx: RingContext):
    if any(ctx.degrees):
        raise ValueError("the localization lemma checks require trivial degrees")


def top_term_product(ctx: RingContext, v, w) -> RingElement:
    """Product formula for the top term over all factors j:
    product over 0 <= i < v_j of (t_{w_j} - t_i), expanded as a
    polynomial in t and wrapped as an element once."""
    _check_entries(ctx, v)
    _check_entries(ctx, w)
    if not any(v):
        return ctx.one()
    ctx._check_t_length(1)  # a rank-0 context has no t-variables
    if any(a > b for a, b in zip(v, w)):  # the factor t_{w_j} - t_{w_j}
        return ctx.zero()
    size = max(w) + 1
    poly = {(0,) * size: 1}  # t-exponent tuple -> coefficient
    for j, top in enumerate(w):
        for i in range(v[j]):
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


def degree_bound_check(ctx: RingContext, v, w) -> bool:
    """For w a reordering of v: the t-degree of the restriction is at most
    co(v) - |{i : v_i != w_i}| + 1."""
    _require_trivial_degrees(ctx)
    v, w = tuple(v), tuple(w)
    if sorted(v) != sorted(w):
        raise ValueError("w must be a reordering of v")
    moved = sum(1 for a, b in zip(v, w) if a != b)
    restricted = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
    return t_degree(restricted) <= sum(v) - moved + 1
