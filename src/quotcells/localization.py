"""Restriction of equivariant classes to torus fixed points.

Restriction to the fixed point of weight w substitutes each omega_i by

    t_{w_i} - sum over k < i with w_k = w_i of diag_{k,i} + d_{w_i} pt_i

and fixes letters and t-variables, which makes it a ring homomorphism on
representatives.  The lemma checks below exercise the top-term product
formula, the vanishing criterion and the t-degree bound.
"""

from __future__ import annotations

from .ring import RingContext, RingElement, diagonal, omega_layers
from .cells import _check_entries, cell_class_equivariant
from .weights import componentwise_leq, normalize


def omega_at_fixed_point(ctx: RingContext, i: int, w) -> RingElement:
    """The image of omega_i at the fixed point of weight w."""
    ctx._check_factor(i)
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
    last = ctx._memo.get("last_restriction")
    if last is not None and last[0] is x and last[1] == w:
        return last[2]
    # One product per omega vector: the terms sharing it are restricted
    # together, as one letters-and-t element.
    acc = ctx.zero()
    for omega, part in omega_layers(x).items():
        for i, e in enumerate(omega, start=1):
            if e:
                part = part * _omega_power(ctx, i, e, w)
        acc = acc + part
    ctx._memo["last_restriction"] = (x, w, acc)
    return acc


def t_degree(x: RingElement):
    """Largest total t-exponent over the support; -inf for 0."""
    if not x.coeffs:
        return float("-inf")
    return max(sum(m[2]) for m in x.coeffs)


def top_term(x: RingElement) -> RingElement:
    if not x.coeffs:
        return x
    top = t_degree(x)
    return RingElement(x.ctx, {m: c for m, c in x.coeffs.items() if sum(m[2]) == top})


def _require_trivial_degrees(ctx: RingContext):
    if any(ctx.degrees):
        raise ValueError("the localization lemma checks require trivial degrees")


def top_term_product(ctx: RingContext, v, w) -> RingElement:
    """Product formula for the top term over all factors j:
    product over 0 <= i < v_j of (t_{w_j} - t_i)."""
    acc = ctx.one()
    for j in range(ctx.factors):
        for i in range(v[j]):
            acc = acc * (ctx.t_var(w[j]) - ctx.t_var(i))
    return acc


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
    if componentwise_leq(sorted(v), sorted(w)):
        return True
    return restrict_to_fixed_point(cell_class_equivariant(ctx, v), w).is_zero()


def degree_bound_check(ctx: RingContext, v, w) -> bool:
    """For w a reordering of v: the t-degree of the restriction is at most
    co(v) - |{i : v_i != w_i}| + 1."""
    _require_trivial_degrees(ctx)
    v, w = tuple(v), tuple(w)
    if normalize(v) != normalize(w):
        raise ValueError("w must be a reordering of v")
    moved = sum(1 for a, b in zip(v, w) if a != b)
    restricted = restrict_to_fixed_point(cell_class_equivariant(ctx, v), w)
    return t_degree(restricted) <= sum(v) - moved + 1
