"""Exact rank over Q of sparse rows with int and Fraction values."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from quotcells.linalg import exact_rank


def reference_rank(rows) -> int:
    """Dense Bareiss elimination (Bareiss 1968) of the rows scaled to
    integers: every row densified over every column."""
    rows = [r for r in rows if r]
    if not rows:
        return 0
    columns = list(dict.fromkeys(key for row in rows for key in row))
    index = {key: i for i, key in enumerate(columns)}
    matrix = []
    for row in rows:
        denom = lcm(*(value.denominator for value in row.values()))
        dense = [0] * len(columns)
        for key, value in row.items():
            dense[index[key]] = value.numerator * (denom // value.denominator)
        matrix.append(dense)
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


def test_empty_input_and_zero_rows():
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}]) == 0
    assert exact_rank([{"x": 0, "y": 0}, {"y": 0}]) == 0


def test_full_rank_integer_matrix():
    rows = [{"x": 2, "y": 1}, {"y": 3, "z": -1}, {"x": 1, "z": 5}]
    assert exact_rank(rows) == 3
    assert exact_rank(rows[:2]) == 2


def test_rows_differing_by_a_fraction_multiple():
    rows = [{"x": Fraction(1, 2), "y": Fraction(1, 3)}, {"x": 3, "y": 2}]
    assert exact_rank(rows) == 1
    rows.append({"x": Fraction(5, 7), "y": Fraction(-2, 9)})
    assert exact_rank(rows) == 2


def test_dependent_matrix_with_large_entries():
    big = 10 ** 30
    r1 = {"x": big + 1, "y": -big, "z": 7}
    r2 = {"x": 3, "y": big * big, "z": -big}
    r3 = {k: (big - 1) * r1[k] + 11 * r2[k] for k in r1}
    assert exact_rank([r1, r2, r3]) == 2
    r3["z"] += 1
    assert exact_rank([r1, r2, r3]) == 3


def test_column_keys_need_only_be_hashable():
    assert exact_rank([{"x": 1}, {1: 2}]) == 2
    assert exact_rank([{"x": 1, 1: 2}, {1: 4, "x": 2}, {(0, "y"): 0}]) == 1


def test_integer_rows_needing_a_multiplier():
    # the pivot's leading 2 against 3: the row is rescaled by 2
    rows = [{"x": 2, "y": 1, "z": 4}, {"x": 3, "y": 5, "z": 6},
            {"x": 7, "y": 11, "z": 14}]
    assert exact_rank(rows) == reference_rank(rows) == 2
    rows[2]["z"] = 15
    assert exact_rank(rows) == reference_rank(rows) == 3


def test_integer_rows_with_multiplier_one():
    # every pivot leads with 1, so no reduction step rescales its row
    rows = [{"x": 1, "y": 2, "z": 3}, {"y": 1, "z": 2},
            {"x": 2, "y": 5, "z": 8}, {"x": 3, "y": 7, "z": 11}]
    assert exact_rank(rows) == reference_rank(rows) == 2
    rows.append({"x": -2, "z": 1})
    assert exact_rank(rows) == reference_rank(rows) == 3


def test_rows_of_integral_fractions():
    rows = [{"x": Fraction(2), "y": Fraction(-4)},
            {"x": Fraction(3, 1), "y": Fraction(-6, 1)},
            {"y": Fraction(5), "z": Fraction(0)}]
    assert exact_rank(rows) == reference_rank(rows) == 2


def test_row_mixing_ints_and_fractions():
    rows = [{"x": 1, "y": Fraction(1, 2)}, {"x": Fraction(4), "y": 2},
            {"x": 3, "y": Fraction(3, 2), "z": 0}]
    assert exact_rank(rows) == reference_rank(rows) == 1
    rows.append({"x": Fraction(1, 3), "z": 5})
    assert exact_rank(rows) == reference_rank(rows) == 2


BIG = 10 ** 40
SCALARS = st.one_of(st.integers(-BIG, BIG),
                    st.builds(Fraction, st.integers(-BIG, BIG),
                              st.integers(1, BIG)))
VALUES = st.one_of(st.just(0), SCALARS)


@st.composite
def sparse_rows(draw):
    """Up to 8 rows over columns 0-6 with explicit zeros, some of them
    rational combinations of earlier rows (cancelled entries stay as
    explicit zeros)."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1,
                                         max_size=3)):
                scale = draw(SCALARS)
                for key, value in earlier.items():
                    row[key] = row.get(key, 0) + scale * value
        else:
            row = draw(st.dictionaries(st.integers(0, 6), VALUES, max_size=6))
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_rank_matches_dense_reference(rows):
    assert exact_rank(rows) == reference_rank(rows)
