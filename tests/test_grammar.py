"""Element grammar: parsing, canonical formatting, round trips."""

import random
import re
from fractions import Fraction

import pytest

from quotcells import grammar
from quotcells.grammar import ParseError, format_element, parse
from quotcells.pullback import (average_twist, quot_pullback,
                                quot_pullback_combinatorial)
from quotcells.ring import (POINT, UNBOUNDED, UNIT, RingContext, _trim, alpha,
                            beta, element_from_terms)

from conftest import random_homogeneous, reference_format_element


def test_basic_term():
    ctx = RingContext(genus=1, factors=2)
    x = parse(ctx, "1 * [a1|one] w^(0,1)")
    assert x == ctx.letter_at(1, alpha(1)) * ctx.omega(2)


def test_coefficient_optional():
    ctx = RingContext(genus=1, factors=2)
    assert parse(ctx, "[a1|one]") == ctx.letter_at(1, alpha(1))
    # with no factors the letter group is empty
    ctx = RingContext(genus=0, factors=0)
    assert parse(ctx, "[]") == parse(ctx, "[ ]") == ctx.one()
    assert parse(ctx, "2 * []") == ctx.scalar(2)


def test_fractional_and_negative_coefficients():
    ctx = RingContext(genus=0, factors=1)
    x = parse(ctx, "3 * [one] w^(2) + -1/2 * [pt]")
    # canonical order is degree-ascending
    assert format_element(x) == "-1/2 * [pt] + 3 * [one] w^(2)"


def test_repeated_terms_merge_and_settle():
    """Terms of one monomial are summed plainly and settled once: an
    integral sum is an int, a sum that cancels leaves no term."""
    ctx = RingContext(genus=0, factors=1)
    pt = ((POINT,), (0,), ())
    summed = dict(parse(ctx, "1/2 * [pt] + 1/2 * [pt]").coeffs)
    assert summed == {pt: 1} and type(summed[pt]) is int
    assert parse(ctx, "1 * [pt] + -1 * [pt]").is_zero()
    assert dict(parse(ctx, "1/3 * [pt] + 1/6 * [pt]").coeffs) == {pt: Fraction(1, 2)}
    one = ((UNIT,), (0,), ())
    assert element_from_terms(ctx, [(pt, Fraction(1, 2)), (one, 3), (pt, -1),
                                    (one, -3), (pt, Fraction(1, 2))]).is_zero()


def test_t_part():
    ctx = RingContext(genus=0, factors=1, rank=3)
    x = parse(ctx, "1 * [one] t^(0,2)")
    assert x == ctx.t_var(1) ** 2
    assert format_element(x) == "1 * [one] t^(0,2)"


def test_zero():
    ctx = RingContext(genus=0, factors=2)
    assert parse(ctx, "0").is_zero()
    assert format_element(ctx.zero()) == "0"


def test_range_error_reports_position():
    ctx = RingContext(genus=2, factors=2)
    with pytest.raises(ParseError) as err:
        parse(ctx, "[a9|one]")
    assert "a9" in str(err.value)
    assert err.value.pos == 1
    with pytest.raises(ParseError, match="letter a9 out of range") as err:
        parse(ctx, "[one|a9]")
    assert err.value.pos == 5
    # a0 and b0 are no letters, though their codes are those of one and pt
    for text in ("[a0|one]", "[b0|one]"):
        with pytest.raises(ParseError, match="out of range for genus 2"):
            parse(ctx, text)


def test_syntax_error_reports_position():
    ctx = RingContext(genus=0, factors=2)
    for text in ("1 * [one|one] w^(0)", "1 * [one]", "1 * [one|one] +",
                 "1 [one|one]", "1 * [one|one", "[one|one] +", "", " "):
        with pytest.raises(ParseError) as err:
            parse(ctx, text)
        assert 0 <= err.value.pos <= len(text)
    for text in ("1/0 * [one]", "2/0 * [one]"):
        with pytest.raises(ParseError) as err:
            parse(RingContext(genus=0, factors=1), text)
        assert err.value.pos == 0


@pytest.mark.parametrize("rank, text, message", [
    (0, "[one|one] w^(0)", "w-vector must have 2 entries"),
    (0, "[one|one] w^(1, x)", "expected integer"),
    (0, "[one|pt] w^(1,-1)", "w-exponents must be non-negative"),
    (2, "[pt|one] t^(-1)", "t-exponents must be non-negative"),
    (2, "[one|one] w^(1,0) t^(0, 0,1)", "t index 2 out of range for rank 2"),
])
def test_field_errors_point_inside_their_group(rank, text, message):
    ctx = RingContext(genus=0, factors=2, rank=rank)
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse(ctx, text)
    group = text.rindex("(")
    assert group < err.value.pos <= text.rindex(")")


@pytest.mark.parametrize("text, group", [
    ("%s * [one|one]", "coeff"), ("-1/%s * [one|one]", "coeff"),
    ("[a%s|one]", "letter"), ("[one|one] w^(%s,0)", "w"),
    ("[one|one] t^(1, %s)", "t"),
])
def test_number_past_the_digit_limit_reports_position(text, group):
    # Python's int() refuses more than 4300 digits with a bare ValueError
    ctx = RingContext(genus=1, factors=2, rank=2)
    text = text % ("9" * 5000)
    with pytest.raises(ParseError, match="number longer than") as err:
        parse(ctx, text)
    first = text.index("9")
    if group == "coeff":
        assert err.value.pos == 0
    elif group == "letter":
        assert err.value.pos == 1
    else:
        assert text.rindex("(") < err.value.pos <= first


@pytest.mark.parametrize("text", ["[a\u0661|one]", "\u0661 * [one|one]",
                                  "[one|one] w^(\u0661,0)",
                                  "[one|one] t^(\uff11)", "\xa00",
                                  "[one|\xa0one]"])
def test_non_ascii_digits_and_spaces_rejected(text):
    # "\u0661" is ARABIC-INDIC DIGIT ONE, "\uff11" FULLWIDTH DIGIT ONE and
    # "\xa0" NO-BREAK SPACE
    with pytest.raises(ParseError):
        parse(RingContext(genus=1, factors=2, rank=2), text)


def test_t_rejected_in_rank_zero():
    ctx = RingContext(genus=0, factors=1)
    with pytest.raises(ParseError):
        parse(ctx, "1 * [one] t^(1)")


def test_canonical_order_matches_pinned_output():
    ctx = RingContext(genus=0, factors=2)
    from quotcells.cells import cell_class
    text = format_element(cell_class(ctx, (0, 2)))
    assert text == ("1 * [one|one] w^(0,2) + 1 * [pt|one] w^(1,0) "
                    "+ 1 * [one|pt] w^(1,0) + 1 * [pt|one] w^(0,1) "
                    "+ 1 * [one|pt] w^(0,1)")


@pytest.mark.parametrize("name, code", [("a10", alpha(10)), ("b10", beta(10)),
                                        ("b12", beta(12))])
def test_two_digit_letters_read_and_write_back(name, code):
    ctx = RingContext(genus=12, factors=1)
    x = ctx.letter_at(1, code)
    assert parse(ctx, "[%s]" % name) == x
    assert format_element(x) == "1 * [%s]" % name


def test_round_trips():
    rng = random.Random(17)
    for genus in (0, 1, 2):
        for rank in (0, 2):
            ctx = RingContext(genus=genus, factors=2, rank=rank)
            for degree in (0, 1, 2, 3, 4):
                x = random_homogeneous(ctx, degree, rng, terms=4)
                if rank:
                    x = x * (ctx.t_var(1) + ctx.one())
                text = format_element(x)
                assert parse(ctx, text) == x
                assert format_element(parse(ctx, text)) == text


def test_whitespace_between_tokens_round_trips():
    # spaces and tabs may stand between any two tokens, but not inside
    # "w^", "t^", a rational or a letter name
    token = re.compile(r"w\^|t\^|-?\d+(?:/\d+)?|one|pt|[ab]\d+|[*\[\]|(),+]")
    rng = random.Random(29)
    for genus in (0, 1, 2):
        for rank in (0, 2):
            for factors in (0, 1, 2, 3):
                ctx = RingContext(genus=genus, factors=factors, rank=rank)
                for degree in (0, 1, 2, 3):
                    x = random_homogeneous(ctx, degree, rng, terms=3)
                    if rank:
                        x = x * (ctx.t_var(1) + ctx.one())
                    tokens = token.findall(format_element(x))
                    assert "".join(tokens) == format_element(x).replace(" ", "")
                    text = "".join(rng.choice(("", " ", "\t", " \t ")) + tok
                                   for tok in tokens) + rng.choice(("", "\t"))
                    assert parse(ctx, text) == x, text


def random_element(ctx, rng, terms):
    """Random terms of any letters, omega and t the context allows, with
    integral, fractional and negative coefficients."""
    basis = ctx.curve_basis()
    max_t = 3 if ctx.rank is UNBOUNDED else ctx.rank
    out = []
    for _ in range(terms):
        letters = tuple(rng.choice(basis) for _ in range(ctx.factors))
        omega = tuple(rng.choice((0, 0, 1, 2, 11)) for _ in range(ctx.factors))
        t = tuple(rng.choice((0, 1, 3)) for _ in range(rng.randint(0, max_t)))
        coeff = Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 12)))
        out.append(((letters, omega, _trim(t)), coeff))
    return element_from_terms(ctx, out)


def test_format_matches_reference_on_random_elements():
    rng = random.Random(41)
    for genus in range(4):
        for rank in (0, 2, UNBOUNDED):
            for factors in range(4):
                ctx = RingContext(genus=genus, factors=factors, rank=rank)
                for terms in (0, 1, 2, 5, 12):
                    for _ in range(4):
                        x = random_element(ctx, rng, terms)
                        if rank != 0:
                            x = x * (ctx.t_var(1) + ctx.one())
                        assert format_element(x) == reference_format_element(x)


def test_letter_keys_are_shared_between_tuples():
    """Two formatted letter tuples hold the same (-degree, code) pair
    object wherever their codes agree, not a pair per factor."""
    ctx = RingContext(genus=2, factors=4)
    x = parse(ctx, "[a1|pt|one|b2] + [one|pt|b2|a1]")
    assert format_element(x) == reference_format_element(x)
    first = grammar._letter_facts((alpha(1), POINT, UNIT, beta(2)))[1]
    second = grammar._letter_facts((UNIT, POINT, beta(2), alpha(1)))[1]
    assert first == ((-1, alpha(1)), (-2, POINT), (0, UNIT), (-1, beta(2)))
    assert second == ((0, UNIT), (-2, POINT), (-1, beta(2)), (-1, alpha(1)))
    for i, j in ((0, 3), (1, 1), (2, 0), (3, 2)):
        assert first[i] is second[j]
    # a tuple repeating one letter holds one pair object for it
    zeros = grammar._letter_facts((UNIT,) * 1010)
    assert zeros[0] == 0 and len({id(pair) for pair in zeros[1]}) == 1


def test_format_matches_reference_at_1010_factors():
    """The class psi --u 0,...,0 prints at 1010 factors, from both routes,
    and a point class averaged over its 1010-member orbit."""
    ctx = RingContext(genus=0, factors=1010)
    u = (0,) * 1010
    for x in (quot_pullback(ctx, u), quot_pullback_combinatorial(ctx, u),
              average_twist(ctx, u, ctx.letter_at(1, POINT))):
        assert format_element(x) == reference_format_element(x)
