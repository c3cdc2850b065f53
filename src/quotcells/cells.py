"""Fixed-point cell classes of complete filt schemes.

cell_class(ctx, v) is the class attached to the torus-fixed component of
weight v, written out in the free model H*(C^n)[w_1..w_n]; in the
equivariant variant the coefficients also involve t_0..t_{r-1}.  The
classes are produced by the one-step recursion that decrements the last
nonzero entry of v; a vector with trailing zeros is the pullback of the
class from fewer factors, so computing at the last nonzero index is the
general case.

The descent step, with u = v - e_j and j the last nonzero index:

    cell(v) = (omega_j - d_{u_j} pt_j [- t_{u_j}]) cell(u)
              + sum over k < j with u_k <= u_j of
                diag_{k,j} cell(swap_{k,j} u)

The step factor is the sum of one-term pieces (_step_pieces): omega_j,
-d pt_j when d = d_{u_j} is nonzero, and -t_{u_j} in the equivariant
case.  A step multiplies cell(u) by each piece into one term dict
(ring._add_product), where omega_j and t_{u_j} are exponent shifts and
d pt_j is one letter product, and settles that dict once.  The swap
terms are added with element arithmetic: they are the only element sums
of the pullback and certificate benchmark workloads, whose traced runs
require the `ring.add` layer to record calls.

Results are memoized on the context; the cache never changes a value.
"""

from __future__ import annotations

import itertools

from .ring import (POINT, UNIT, RingContext, RingElement,
                   _add_product, _settled, diagonal, omega_layers,
                   permute_factors, small_diagonal, top_part)
from .weights import swap_entries, transposition


def _check_length(ctx: RingContext, v):
    if len(v) != ctx.factors:
        raise ValueError("weight vector must have %d entries" % ctx.factors)


def _check_entries(ctx: RingContext, v):
    # _check_length inline: every lemma check and restriction runs this
    if len(v) != ctx.factors:
        raise ValueError("weight vector must have %d entries" % ctx.factors)
    # a rank of 0 or UNBOUNDED (None) puts no bound on the entries
    if v and (min(v) < 0 or ctx.rank and max(v) >= ctx.rank):
        # the loops below only name the first bad entry
        if any(e < 0 for e in v):
            raise ValueError("weight entries must be non-negative")
        for e in v:
            if e >= ctx.rank:
                raise ValueError("entry %d out of range for rank %d" % (e, ctx.rank))


def cell_class(ctx: RingContext, v) -> RingElement:
    """Non-equivariant cell class of the weight vector v."""
    v = tuple(v)
    _check_entries(ctx, v)
    return _cell(ctx, v, False)


def cell_class_equivariant(ctx: RingContext, v) -> RingElement:
    """Equivariant cell class; specializing t to 0 recovers cell_class."""
    if ctx.rank == 0:
        raise ValueError("equivariant classes need a context of rank >= 1")
    v = tuple(v)
    _check_entries(ctx, v)
    return _cell(ctx, v, True)


def _descent(v):
    """(j, u, [(k, swap_{k,j} u)]) of the descent step at the last nonzero
    index j (1-based) with u = v - e_j; j is 0 for the zero vector."""
    j = 0
    for i in range(len(v) - 1, -1, -1):
        if v[i]:
            j = i + 1
            break
    if j == 0:
        return 0, None, []
    u = v[:j - 1] + (v[j - 1] - 1,) + v[j:]
    swaps = [(k, swap_entries(u, k, j))
             for k in range(1, j) if u[k - 1] <= u[j - 1]]
    return j, u, swaps


def _cell(ctx: RingContext, v, eq: bool) -> RingElement:
    # Iterative along the descent chain, so co(v) is not bounded by the
    # recursion limit: a vector waits on the stack until every vector its
    # step needs is cached.
    cache = ctx._cell_cache
    hit = cache.get((v, eq))
    if hit is not None:
        return hit
    stack = [v]
    while stack:
        top = stack[-1]
        if (top, eq) in cache:
            stack.pop()
            continue
        j, u, swaps = _descent(top)
        if j == 0:
            cache[top, eq] = ctx.one()
            continue
        needed = [u] + [w for _k, w in swaps]
        missing = [w for w in needed if (w, eq) not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        out = {}
        below = cache[u, eq]
        for piece in _step_pieces(ctx, j, u[j - 1], eq):
            _add_product(out, below, piece)
        result = _settled(ctx, out)
        for k, w in swaps:
            result = result + diagonal(ctx, k, j) * cache[w, eq]
        cache[top, eq] = result
    return cache[v, eq]


def _step_pieces(ctx: RingContext, j: int, entry: int, eq: bool) -> list:
    """The one-term pieces of the step factor: omega_j, -d_entry pt_j when
    d_entry is nonzero and -t_entry in the equivariant case.  omega_j and
    t_entry are unit-letter terms, exponent shifts in ring._add_product.
    The caller has checked j and entry against the context."""
    units = (UNIT,) * ctx.factors
    zeros = (0,) * ctx.factors
    omega = zeros[:j - 1] + (1,) + zeros[j:]
    pieces = [RingElement(ctx, {(units, omega, ()): 1})]
    d = ctx.bundle_degree(entry)
    if d:
        point = units[:j - 1] + (POINT,) + units[j:]
        pieces.append(RingElement(ctx, {(point, zeros, ()): -d}))
    if eq:
        t = (0,) * entry + (1,)
        pieces.append(RingElement(ctx, {(units, zeros, t): -1}))
    return pieces


def _require_letters_only(a: RingElement):
    for (_letters, omega, t) in a.coeffs:
        if any(omega) or t:
            raise ValueError("class must be free of omega and t variables")


def to_cell_basis(x: RingElement) -> dict:
    """Coefficients a_v with x = sum_v a_v * cell(v), a_v free of omega.

    Peels the top omega layer repeatedly; the leading omega-term of
    cell(v) is exactly w^v, so each pass strictly lowers the omega
    degree and meets each v once, with a nonzero a_v.
    """
    ctx = x.ctx
    for (_letters, _omega, t) in x.coeffs:
        if t:
            raise ValueError("cell-basis conversion is non-equivariant")
    result = {}
    g = x
    while g:
        layers = omega_layers(top_part(g, 1))
        for v in sorted(layers):
            a_v = layers[v]
            result[v] = a_v
            g = g - a_v * cell_class(ctx, v)
    return result


# -- checked identities -------------------------------------------------------

def lower_index_step_residual(ctx: RingContext, v, m: int,
                              equivariant: bool = False) -> RingElement:
    """Residual of the cross-index recursion at a lower index m < n:

        (omega_m - d_{v_m} pt_m [- t_{v_m}]) * cell(v)
        = cell(v + e_m)
          - sum_{k<m, v_k<=v_m} diag_{k,m} * cell(swap_{k,m} v)
          + sum_{k>m, v_k>v_m}  diag_{m,k} * cell(swap_{m,k} v).

    Expected 0.  Requires v_n >= 1 and 1 <= m < n.

    This is the uniform extension of the defining recursion to an
    arbitrary index (at m = n the second sum is empty and the statement
    is the recursion itself).  Dropping the k < m terms with v_k < v_m,
    or keeping only k = n in the second sum, leaves nonzero residuals
    already at n = 3 (v = (0,1,1) with m = 2 resp. m = 1).
    """
    v = tuple(v)
    n = ctx.factors
    _check_entries(ctx, v)
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if v[n - 1] < 1:
        raise ValueError("last entry must be >= 1")
    cell = cell_class_equivariant if equivariant else cell_class
    below = cell(ctx, v)  # first: a rank-0 context fails here, not at t_var
    step = ctx.omega(m) - ctx.bundle_degree(v[m - 1]) * ctx.pt(m)
    if equivariant:
        step = step - ctx.t_var(v[m - 1])
    lhs = step * below
    bumped = v[:m - 1] + (v[m - 1] + 1,) + v[m:]
    rhs = cell(ctx, bumped)
    for k in range(1, m):
        if v[k - 1] <= v[m - 1]:
            rhs = rhs - diagonal(ctx, k, m) * cell(ctx, swap_entries(v, k, m))
    for k in range(m + 1, n + 1):
        if v[m - 1] < v[k - 1]:
            rhs = rhs + diagonal(ctx, m, k) * cell(ctx, swap_entries(v, m, k))
    return lhs - rhs


def module_recursion_residual(ctx: RingContext, u, l: int, a: RingElement) -> RingElement:
    """Residual of the one-step reduction of cell(u + l e_n) * a against
    w_n cell(u + (l-1) e_n) * a plus the twisted diagonal terms
    diag_{n,k} cell(swap(u + (l-1) e_n)) * swap(a).  Expected 0.
    """
    n = ctx.factors
    u = tuple(u)
    if len(u) != n - 1:
        raise ValueError("u must cover the first %d slots" % (n - 1))
    if l < 1:
        raise ValueError("need l >= 1")
    _require_letters_only(a)
    v = u + (l,)
    w = u + (l - 1,)
    lhs = cell_class(ctx, v) * a
    rhs = ctx.omega(n) * cell_class(ctx, w) * a
    for k in range(1, n):
        if u[k - 1] <= l - 1:
            rhs = rhs + (diagonal(ctx, k, n)
                         * cell_class(ctx, swap_entries(w, k, n))
                         * permute_factors(transposition(n, k, n), a))
    return lhs - rhs


# -- generating series --------------------------------------------------------

def cell_class_series(ctx: RingContext, index: int, order: int):
    """Coefficients [t^0 .. t^order] of the series of cell classes of
    multiples of e_index (t a formal series variable)."""
    ctx._check_factor(index)
    basis = (0,) * (index - 1) + (1,) + (0,) * (ctx.factors - index)
    return [cell_class(ctx, tuple(l * e for e in basis)) for l in range(order + 1)]


def cell_class_series_closed_form(ctx: RingContext, index: int, order: int):
    """Same truncation via the closed product formula: the coefficient of
    t^l is the sum over subsets J of the factors below `index` of
    diag_{J + index} h_{l - |J|}(w over J + index)."""
    ctx._check_factor(index)
    out = [ctx.zero() for _ in range(order + 1)]
    below = range(1, index)
    for size in range(index):
        for J in itertools.combinations(below, size):
            member_set = J + (index,)
            diag = small_diagonal(ctx, member_set)
            for l in range(size, order + 1):
                out[l] = out[l] + diag * complete_homogeneous(ctx, member_set, l - size)
    return out


def complete_homogeneous(ctx: RingContext, positions, degree: int) -> RingElement:
    """Complete homogeneous polynomial in the omega variables at the given
    1-based positions."""
    acc = ctx.zero()
    for combo in itertools.combinations_with_replacement(sorted(positions), degree):
        exps = [0] * ctx.factors
        for i in combo:
            exps[i - 1] += 1
        acc = acc + ctx.monomial(omega=exps)
    return acc
