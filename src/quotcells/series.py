"""Poincare polynomials and series of symmetric products, quot schemes
and complete filt schemes, with truncation checks of the closed product
formulas.

Polynomials are plain lists of integer coefficients indexed by the
t-exponent; two-variable series are lists (over the s-power) of such
lists, truncated at explicit caps.  The closed quot product formula is
built in place, one factor at a time: a factor (1 + s t^k) adds row
s - 1, shifted by k, into row s for s running down, and 1/(1 - s t^k)
does the same for s running up, so every row s is read from row s - 1
and no two-variable product is ever formed.  The stratum sums of
`quot_poincare` keep the convolution `_bi_mul`, so `quot_series_check`
compares two independent computations.
"""

from __future__ import annotations

from math import comb
from operator import add


def poly_trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_mul(a, b, cap=None):
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    if cap is not None:
        size = min(size, cap + 1)
    out = [0] * size
    for i, ca in enumerate(a):
        if ca == 0 or i >= size:
            continue
        top = min(len(b), size - i)
        for j in range(top):
            out[i + j] += ca * b[j]
    return poly_trim(out)


def poly_pow(a, e, cap=None):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a, cap)
    return out


def poly_geometric(k, cap):
    """Truncation of 1/(1 - t^k)."""
    out = [0] * (cap + 1)
    for i in range(0, cap + 1, k):
        out[i] = 1
    return out


def poly_coeff(p, i):
    return p[i] if 0 <= i < len(p) else 0


def symmetric_product_poincare(g: int, m: int):
    """Betti generating polynomial of the m-th symmetric product of a
    genus-g curve: the u^m coefficient of (1+ut)^{2g}/((1-u)(1-ut^2))."""
    if g < 0 or m < 0:
        raise ValueError("g and m must be non-negative")
    out = [0] * (2 * m + 1)
    for j in range(min(2 * g, m) + 1):
        c = comb(2 * g, j)
        for k in range(m - j + 1):
            out[j + 2 * k] += c
    return poly_trim(out)


def quot_poincare(g: int, r: int, length: int, max_t: int | None = None):
    """Poincare polynomial of the quot scheme of length-`length` quotients
    of the trivial rank-r bundle: the sum over fixed-point strata of
    t^{2co} times the product of symmetric-product polynomials.

    The sum is accumulated slot by slot (one line-bundle summand at a
    time) rather than by enumerating decompositions, which keeps large
    ranks cheap; `max_t` optionally truncates the result.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if length < 0:
        raise ValueError("length must be non-negative")
    cap = 2 * r * length if max_t is None else max_t
    acc = [[1]] + [[] for _ in range(length)]
    for a in range(r):
        slot = []
        for m in range(length + 1):
            shift = 2 * a * m
            if shift > cap:
                slot.append([])
            else:
                slot.append([0] * shift + symmetric_product_poincare(g, m))
        acc = _bi_mul(acc, slot, length, cap)
    return poly_trim(acc[length])


def quot_series_product(g: int, r: int, max_s: int, max_t: int):
    """Coefficients of s^0..s^max_s of the closed product formula
    prod_{h<r} (1+s t^{2h+1})^{2g} / ((1-t^{2h} s)(1-t^{2h+2} s)),
    each truncated at t^max_t.

    The rows start as the series 1 and take each factor in place: each
    of the 2g factors (1 + s t^k), k = 2h+1, adds row s-1 shifted by k
    into row s for s running down (so row s-1 is still the old one), and
    1/(1 - s t^k), k = 2h and 2h+2, does so for s running up (so row s-1
    already carries the factor: the new series is the old one plus
    s t^k times itself).  A factor with k > max_t changes nothing below
    the cap."""
    if g < 0:
        raise ValueError("g must be non-negative")
    width = max(max_t + 1, 0)
    rows = [[0] * width for _ in range(max_s + 1)]
    if width and rows:
        rows[0][0] = 1
    for h in range(r):
        for k, steps, order in ((2 * h + 1, 2 * g, range(max_s, 0, -1)),
                                (2 * h, 1, range(1, max_s + 1)),
                                (2 * h + 2, 1, range(1, max_s + 1))):
            if k > max_t:
                continue
            for _ in range(steps):
                for s in order:
                    row, below = rows[s], rows[s - 1]
                    row[k:] = map(add, row[k:], below[:width - k])
    return [poly_trim(row) for row in rows]


def _bi_mul(a, b, max_s, max_t):
    out = [[] for _ in range(max_s + 1)]
    for i, pa in enumerate(a):
        if not pa:
            continue
        for j in range(0, max_s + 1 - i):
            if b[j]:
                out[i + j] = poly_add(out[i + j], poly_mul(pa, b[j], max_t))
    return out


def quot_series_check(g: int, r: int, max_s: int, max_t: int):
    """Stratum sums against the product formula; the list of differences
    (one polynomial per s-power) is expected to be all zero."""
    product = quot_series_product(g, r, max_s, max_t)
    out = []
    for length in range(max_s + 1):
        direct = poly_trim(quot_poincare(g, r, length)[:max_t + 1])
        out.append(poly_add(direct, [-c for c in product[length]]))
    return out


def filt_poincare(g: int, r: int, n: int):
    """Poincare polynomial of the complete filt scheme: the fixed-point
    strata contribute t^{2co(v)} (1+2gt+t^2)^n over v in [0,r-1]^n."""
    if g < 0:
        raise ValueError("g must be non-negative")
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    strata = poly_pow(poly_trim([1 if i % 2 == 0 else 0 for i in range(2 * r - 1)]), n)
    return poly_mul(strata, poly_pow([1, 2 * g, 1], n))


def filt_presentation_check(g: int, r: int, n: int):
    """Strata sum against the projective-bundle presentation
    (1+2gt+t^2)^n ((1-t^{2r})/(1-t^2))^n; expected zero."""
    direct = filt_poincare(g, r, n)
    cap = 2 * n * r  # degree bound of the exact polynomial
    numerator = [1] + [0] * (2 * r - 1) + [-1]
    ratio = poly_pow(poly_mul(numerator, poly_geometric(2, cap), cap), n, cap)
    closed = poly_mul(ratio, poly_pow([1, 2 * g, 1], n, cap), cap)
    return poly_add(direct, [-c for c in closed])


def infinite_quot_series(g: int, max_t: int):
    """Truncation of the limit series
    (1+t)^{2g}/(1-t^2) prod_{h>=1} (1+t^{2h+1})^{2g}/((1-t^{2h})(1-t^{2h+2})),
    the s^max_t coefficient of the quot product formula: every power of s
    but those of 1/(1-s) carries a positive power of t, and row h starts
    at t^{2h}, so rows h <= max_t // 2 suffice."""
    rows = quot_series_product(g, max_t // 2 + 1, max_t, max_t)
    return [poly_coeff(rows[max_t], i) for i in range(max_t + 1)]


def tensor_model_series(g: int, max_t: int):
    """The same truncation assembled from the tensor model: stabilized
    symmetric-product series times the free graded pieces attached to
    each shift."""
    stable = symmetric_product_poincare(g, max_t + 1)
    acc = [poly_coeff(stable, i) for i in range(max_t + 1)]
    h = 1
    while 2 * h <= max_t:
        # free graded-commutative algebra on H*(C) shifted by 2h
        factor = poly_mul(poly_geometric(2 * h, max_t),
                          poly_geometric(2 * h + 2, max_t), max_t)
        if g and 2 * h + 1 <= max_t:
            factor = poly_mul(factor,
                              poly_pow([1] + [0] * (2 * h) + [1], 2 * g, max_t),
                              max_t)
        acc = poly_mul(acc, factor, max_t)
        h += 1
    return [poly_coeff(acc, i) for i in range(max_t + 1)]


def infinite_limits_check(g: int, max_t: int) -> dict:
    """Coefficientwise stabilization of the diagonal quot polynomials and
    agreement with the limit series and the tensor model."""
    limit = infinite_quot_series(g, max_t)
    tensor = tensor_model_series(g, max_t)
    stable_ok = True
    # the first power where the tensor model and the limit differ
    first = next((k for k in range(max_t + 1)
                  if poly_coeff(tensor, k) != limit[k]), None)
    match_ok = first is None
    failures = [] if match_ok else [{"power": first, "limit": limit[first],
                                     "tensor": poly_coeff(tensor, first)}]
    diagonal_polys = {r: quot_poincare(g, r, r, max_t=max_t)
                      for r in range(1, max_t + 4)}
    for k in range(max_t + 1):
        values = {poly_coeff(diagonal_polys[r], k)
                  for r in range(k + 1, k + 4)}
        if len(values) != 1:
            stable_ok = False
            failures.append({"power": k, "values": sorted(values)})
            continue
        if values.pop() != limit[k]:
            match_ok = False
            failures.append({"power": k, "limit": limit[k]})
    return {"stable": stable_ok, "matches_limit": match_ok,
            "pass": stable_ok and match_ok, "failures": failures}

