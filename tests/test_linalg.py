"""Exact rank over Q of sparse rows with int and Fraction values."""

from fractions import Fraction

from quotcells.linalg import exact_rank


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
