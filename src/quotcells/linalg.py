"""Exact rank computation over Q by fraction-free elimination."""

from __future__ import annotations

from math import lcm


def exact_rank(rows) -> int:
    """Rank of a list of sparse rows (dicts column-key -> int or Fraction).

    Rows are scaled to integers by the lcm of their denominators (rank
    is invariant under row scaling) and reduced by Bareiss fraction-free
    elimination, so no rounding ever happens.
    """
    rows = [r for r in rows if r]
    if not rows:
        return 0
    columns = sorted({key for row in rows for key in row})
    index = {key: i for i, key in enumerate(columns)}
    matrix = []
    for row in rows:
        denom = lcm(*(value.denominator for value in row.values()))
        dense = [0] * len(columns)
        for key, value in row.items():
            dense[index[key]] = value.numerator * (denom // value.denominator)
        matrix.append(dense)
    return _bareiss_rank(matrix)


def _bareiss_rank(matrix) -> int:
    m, n = len(matrix), len(matrix[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        for r in range(row + 1, m):
            for c in range(col + 1, n):
                matrix[r][c] = (matrix[row][col] * matrix[r][c]
                                - matrix[r][col] * matrix[row][c]) // prev
            matrix[r][col] = 0
        prev = matrix[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank
