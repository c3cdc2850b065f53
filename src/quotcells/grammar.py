"""ASCII grammar for ring elements.

    element := term ("+" term)*
    term    := [rational "*"] "[" letter ("|" letter)* "]"
               ["w^(" int ("," int)* ")"] ["t^(" int ("," int)* ")"]
    letter  := "one" | "a"k | "b"k | "pt"

Omitted w/t vectors mean all-zero; an omitted coefficient means 1.  The
text "0" is zero, and with no factors the letters read "[]".  Whitespace
may stand between tokens, not inside "w^", "t^", a rational or a letter
name; digits and whitespace are ASCII only.  A ParseError points at the
start of a term that _TERM does not match, or inside the group of a
term that fails its own check, a number past Python's int digit limit
included.  The canonical form produced by format_element always writes
the coefficient (as a reduced fraction, possibly negative) and omits
all-zero w/t parts, and lists the terms in the canonical monomial order,
which is defined here alone: ascending in the flat key

    (degree, -t_sum, -t, -omega_sum, -omega, letters)

where degree counts each letter's degree and twice each omega and t
exponent, -t and -omega negate each entry, and letters holds
(-letter degree, letter code) per factor: pt, then a1, b1, a2, ..., one.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .ring import (POINT, UNIT, RingContext, RingElement, _trim, alpha, beta,
                   element_from_terms, letter_degree, letter_name)


class ParseError(ValueError):
    """Syntax or range error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# one term and the "+" or the end of text after it
_TERM = re.compile(r"""
    \s* (?: (?P<coeff> -?\d+ (?:/\d+)? ) \s* \* \s* )?
    \[ (?P<letters> [^\]]* ) \]
    (?: \s* w\^ \s* \( (?P<w> [^)]* ) \) )?
    (?: \s* t\^ \s* \( (?P<t> [^)]* ) \) )?
    \s* (?: (?P<plus> \+ ) | \Z )""", re.VERBOSE | re.ASCII)
_LETTER = re.compile(r"\s*(one|pt|[ab](\d+))\s*", re.ASCII)
_INT = re.compile(r"\s*(-?\d+)\s*", re.ASCII)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII


def _int(digits: str, pos: int) -> int:
    """int(digits); a number past Python's int digit limit raises a
    ParseError at pos instead of a bare ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number longer than %d digits"
                         % sys.get_int_max_str_digits(), pos) from None


def _letter_codes(ctx: RingContext, m) -> tuple:
    pos, letters = m.start("letters"), []
    # with no factors the group is "[]" or blank
    for piece in m["letters"].split("|") if m["letters"].strip(_SPACE) else ():
        lm = _LETTER.fullmatch(piece)
        if not lm:
            raise ParseError("expected letter (one, pt, a<k> or b<k>)", pos)
        name, k = lm.group(1, 2)
        if k is None:
            letters.append(UNIT if name == "one" else POINT)
        elif 1 <= (k := _int(k, pos)) <= ctx.genus:
            letters.append(alpha(k) if name[0] == "a" else beta(k))
        else:
            raise ParseError("letter %s out of range for genus %d" % (name, ctx.genus), pos)
        pos += len(piece) + 1
    if len(letters) != ctx.factors:
        raise ParseError("expected %d letters, got %d" % (ctx.factors, len(letters)),
                         m.start("letters") - 1)
    return tuple(letters)


def _exponents(ctx: RingContext, m, group: str) -> tuple:
    pos = start = m.start(group)
    values = []
    for piece in m[group].split(","):
        im = _INT.fullmatch(piece)
        if not im:
            raise ParseError("expected integer", pos)
        values.append(_int(im.group(1), pos))
        pos += len(piece) + 1
    if group == "w" and len(values) != ctx.factors:
        raise ParseError("w-vector must have %d entries" % ctx.factors, start)
    if any(v < 0 for v in values):
        raise ParseError("%s-exponents must be non-negative" % group, start)
    if group == "w":
        return tuple(values)
    t = _trim(tuple(values))
    try:
        ctx._check_t_length(len(t))
    except ValueError as exc:
        raise ParseError(str(exc), start) from None
    return t


def _term(ctx: RingContext, m):
    """One term's monomial and coefficient, an int unless the text has a
    denominator."""
    coeff = 1
    if m["coeff"]:
        pos = m.start("coeff")
        numerator, _, denominator = m["coeff"].partition("/")
        coeff = _int(numerator, pos)
        if denominator:
            try:
                coeff = Fraction(coeff, _int(denominator, pos))
            except ZeroDivisionError:
                raise ParseError("zero denominator in %s" % m["coeff"],
                                 pos) from None
    letters = _letter_codes(ctx, m)
    omega = _exponents(ctx, m, "w") if m["w"] is not None else (0,) * ctx.factors
    t = _exponents(ctx, m, "t") if m["t"] is not None else ()
    return (letters, omega, t), coeff


def parse(ctx: RingContext, text: str) -> RingElement:
    # the zero element has no term syntax of its own
    if text.strip(_SPACE) == "0":
        return ctx.zero()
    if not text.strip(_SPACE):
        raise ParseError("empty input", len(text))
    terms, pos, more = [], 0, True
    while more:
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError("expected a term like '-1/2 * [a1|pt] w^(0,1) t^(2)'", pos)
        terms.append(_term(ctx, m))
        pos, more = m.end(), m["plus"] is not None
    return element_from_terms(ctx, terms)


@cache
def _letter_key(code):
    """The pair (-letter degree, code), one object per letter code."""
    return -letter_degree(code), code


@cache
def _letter_facts(letters):
    """(letter degree, letters part of the sort key, "|"-joined names) of
    a letter tuple; the key holds the shared pair of each letter."""
    key = tuple([_letter_key(c) for c in letters])
    return (-sum([d for d, _c in key]), key,
            "|".join([letter_name(c) for c in letters]))


@cache
def _exponent_facts(e):
    """(sum, negated entries, ","-joined text) of an omega or t tuple."""
    return sum(e), tuple([-x for x in e]), ",".join([str(x) for x in e])


def format_element(x: RingElement) -> str:
    coeffs = x.coeffs
    if not coeffs:
        return "0"
    # one read of each term's facts gives both its text and its key in
    # the canonical order
    rows = []
    for (letters, omega, t), c in coeffs.items():
        degree, letters_key, names = _letter_facts(letters)
        omega_sum, omega_key, omega_text = _exponent_facts(omega)
        t_sum, t_key, t_text = _exponent_facts(t)
        piece = "%s * [%s]" % (c, names)
        if omega_sum:
            piece += " w^(%s)" % omega_text
        if t:
            piece += " t^(%s)" % t_text
        rows.append(((degree + 2 * (omega_sum + t_sum), -t_sum, t_key,
                      -omega_sum, omega_key, letters_key), piece))
    rows.sort(key=itemgetter(0))
    return " + ".join([piece for _key, piece in rows])
