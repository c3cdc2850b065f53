"""ASCII grammar for ring elements.

    element := term ("+" term)*
    term    := [rational "*"] "[" letter ("|" letter)* "]"
               ["w^(" int ("," int)* ")"] ["t^(" int ("," int)* ")"]
    letter  := "one" | "a"k | "b"k | "pt"

Omitted w/t vectors mean all-zero; an omitted coefficient means 1.  The
canonical form produced by format_element always writes the coefficient
(as a reduced fraction, possibly negative) and omits all-zero w/t parts;
terms are listed in the canonical monomial order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter

from .ring import (POINT, UNIT, RingContext, RingElement, _letter_facts,
                   _trim, element_from_terms, monomial_sort_key)


class ParseError(ValueError):
    """Syntax or range error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_RATIONAL = re.compile(r"-?\d+(/\d+)?")
_LETTER = re.compile(r"one|pt|a(\d+)|b(\d+)")
_INT = re.compile(r"-?\d+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def accept(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.accept(literal):
            raise ParseError("expected %r" % literal, self.pos)

    def regex(self, pattern, what: str):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise ParseError("expected %s" % what, self.pos)
        self.pos = m.end()
        return m


def _parse_int_vector(sc: _Scanner):
    sc.expect("(")
    values = [int(sc.regex(_INT, "integer").group())]
    while sc.accept(","):
        values.append(int(sc.regex(_INT, "integer").group()))
    sc.expect(")")
    return values


def _parse_letter(sc: _Scanner, ctx: RingContext) -> int:
    pos = sc.pos
    m = sc.regex(_LETTER, "letter (one, pt, a<k> or b<k>)")
    token = m.group()
    if token == "one":
        return UNIT
    if token == "pt":
        return POINT
    k = int(token[1:])
    if not 1 <= k <= ctx.genus:
        raise ParseError("letter %s out of range for genus %d" % (token, ctx.genus), pos)
    return 2 * k if token[0] == "a" else 2 * k + 1


def _parse_term(sc: _Scanner, ctx: RingContext):
    sc.skip_ws()
    coeff = Fraction(1)
    if sc.pos < len(sc.text) and sc.text[sc.pos] != "[":
        pos = sc.pos
        token = sc.regex(_RATIONAL, "rational coefficient").group()
        try:
            coeff = Fraction(token)
        except ZeroDivisionError:
            raise ParseError("zero denominator in %s" % token, pos) from None
        sc.expect("*")
    pos = sc.pos
    sc.expect("[")
    letters = []
    if ctx.factors == 0:
        sc.expect("]")
    else:
        letters.append(_parse_letter(sc, ctx))
        while sc.accept("|"):
            letters.append(_parse_letter(sc, ctx))
        sc.expect("]")
        if len(letters) != ctx.factors:
            raise ParseError("expected %d letters, got %d" % (ctx.factors, len(letters)), pos)
    omega = (0,) * ctx.factors
    t = ()
    if sc.accept("w^"):
        pos = sc.pos
        values = _parse_int_vector(sc)
        if len(values) != ctx.factors:
            raise ParseError("w-vector must have %d entries" % ctx.factors, pos)
        if any(v < 0 for v in values):
            raise ParseError("w-exponents must be non-negative", pos)
        omega = tuple(values)
    if sc.accept("t^"):
        pos = sc.pos
        values = _parse_int_vector(sc)
        if any(v < 0 for v in values):
            raise ParseError("t-exponents must be non-negative", pos)
        t = _trim(tuple(values))
        try:
            ctx._check_t_length(len(t))
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
    return (tuple(letters), omega, t), coeff


def parse(ctx: RingContext, text: str) -> RingElement:
    # the zero element has no term syntax of its own
    if text.strip() == "0":
        return ctx.zero()
    sc = _Scanner(text)
    if sc.eof():
        raise ParseError("empty input", sc.pos)
    terms = [_parse_term(sc, ctx)]
    while sc.accept("+"):
        terms.append(_parse_term(sc, ctx))
    if not sc.eof():
        raise ParseError("trailing input", sc.pos)
    return element_from_terms(ctx, terms)


def format_element(x: RingElement) -> str:
    coeffs = x.coeffs
    if not coeffs:
        return "0"
    rows = [(monomial_sort_key(mono), _letter_facts(mono[0])[2], mono, c)
            for mono, c in coeffs.items()]
    rows.sort(key=itemgetter(0))
    parts = []
    for _key, names, (_letters, omega, t), c in rows:
        piece = "%s * [%s]" % (c, names)
        if any(omega):
            piece += " w^(%s)" % ",".join([str(e) for e in omega])
        if t:
            piece += " t^(%s)" % ",".join([str(e) for e in t])
        parts.append(piece)
    return " + ".join(parts)
