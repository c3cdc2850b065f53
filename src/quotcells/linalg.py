"""Exact rank computation over Q by sparse fraction-free elimination."""

from __future__ import annotations

from math import gcd, lcm


def exact_rank(rows) -> int:
    """Rank of a list of sparse rows (dicts column-key -> int or Fraction).

    Column keys only need to be hashable: columns are indexed in order of
    first appearance.  Each row is scaled to integers by the lcm of its
    denominators (rank is invariant under row scaling), a pass that a
    row of plain ints skips, and reduced over Z against one primitive
    pivot row per leading column, rescaled only when the multiplier is
    not 1, so no rounding ever happens and the rank is the number of
    pivot rows.
    """
    index = {}
    pivots = {}     # leading column -> primitive row with that leading column
    for row in rows:
        if all(type(value) is int for value in row.values()):
            r = {index.setdefault(key, len(index)): value
                 for key, value in row.items() if value}
        else:
            denom = lcm(*(value.denominator for value in row.values()))
            r = {index.setdefault(key, len(index)):
                 value.numerator * (denom // value.denominator)
                 for key, value in row.items() if value}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                content = gcd(*r.values())
                pivots[col] = r if content == 1 else {c: v // content
                                                      for c, v in r.items()}
                break
            g = gcd(pivot[col], r[col])
            a, b = pivot[col] // g, r[col] // g
            # a*r - b*pivot cancels the entry in column col
            if a != 1:
                r = {c: a * v for c, v in r.items()}
            for c, v in pivot.items():
                entry = r.get(c, 0) - b * v
                if entry:
                    r[c] = entry
                else:
                    del r[c]
    return len(pivots)
