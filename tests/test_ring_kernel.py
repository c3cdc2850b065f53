"""The ring kernel against a term-by-term reference.

RingElement.__mul__ groups terms by letter tuple and settles letter
collisions and signs once per pair of letter tuples; permute_factors and
permute_factors_omega settle the odd-letter sign once per letter tuple.
The references below are the plain loops over every pair of terms (and
every term), written from the product table and the Koszul rule alone.
The tests also pin the coefficient invariant: every coefficient is an
int, or a Fraction with denominator > 1.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quotcells.grammar import format_element, parse
from quotcells.ring import (POINT, UNBOUNDED, UNIT, RingContext, RingElement,
                            letter_degree, monomial_sort_key, permute_factors,
                            permute_factors_omega)
from quotcells.weights import permutations


def _letter_product(a, b):
    """Product of two basis letters: (sign, code), or None when zero."""
    if a == UNIT:
        return (1, b)
    if b == UNIT:
        return (1, a)
    if a == POINT or b == POINT:
        return None
    if a ^ 1 == b:  # the symplectic pair a_k, b_k
        return (1, POINT) if a < b else (-1, POINT)
    return None


def _koszul_sign(lx, ly):
    # (-1)^{sum_{i<j} |y_i||x_j|}; only odd letters contribute.
    total = 0
    for j in range(len(lx)):
        for i in range(j):
            total += letter_degree(ly[i]) * letter_degree(lx[j])
    return -1 if total % 2 else 1


def reference_product(x, y):
    """x * y as a dict, one monomial pair at a time, in Fraction arithmetic."""
    out = {}
    for (lx, ox, tx), cx in x.coeffs.items():
        for (ly, oy, ty), cy in y.coeffs.items():
            sign = 1
            letters = []
            for a, b in zip(lx, ly):
                p = _letter_product(a, b)
                if p is None:
                    break
                sign *= p[0]
                letters.append(p[1])
            else:
                sign *= _koszul_sign(lx, ly)
                length = max(len(tx), len(ty))
                t = tuple((tx[i] if i < len(tx) else 0) + (ty[i] if i < len(ty) else 0)
                          for i in range(length))
                mono = (tuple(letters), tuple(a + b for a, b in zip(ox, oy)), t)
                out[mono] = out.get(mono, 0) + sign * Fraction(cx) * Fraction(cy)
    return {m: c for m, c in out.items() if c}


def reference_permute(sigma, x, with_omega):
    out = {}
    for (letters, omega, t), c in x.coeffs.items():
        n = len(letters)
        nl, no = [UNIT] * n, list(omega)
        for i in range(n):
            nl[sigma[i]] = letters[i]
            if with_omega:
                no[sigma[i]] = omega[i]
        odd = [sigma[i] for i in range(n) if letter_degree(letters[i]) == 1]
        inversions = sum(1 for a in range(len(odd)) for b in range(a + 1, len(odd))
                         if odd[a] > odd[b])
        out[(tuple(nl), tuple(no), t)] = c * (-1) ** inversions
    return out


def assert_normal(x):
    for c in x.coeffs.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


# rank 0 carries no t-variables; rank 2 allows t_0, t_1; UNBOUNDED a few more
RANKS = {0: 0, 2: 2, UNBOUNDED: 3}

coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.sampled_from([1, 1, 1, 2, 3, 4]))


@st.composite
def contexts(draw):
    rank = draw(st.sampled_from([0, 2, UNBOUNDED]))
    return RingContext(genus=draw(st.integers(0, 2)),
                       factors=draw(st.integers(1, 4)), rank=rank)


@st.composite
def elements(draw, ctx, max_terms=6):
    n = ctx.factors
    acc = ctx.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        letters = draw(st.lists(st.sampled_from(ctx.curve_basis()),
                                min_size=n, max_size=n))
        omega = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        t = draw(st.lists(st.integers(0, 2), max_size=RANKS[ctx.rank]))
        acc = acc + ctx.monomial(letters, omega, t, draw(coefficients))
    return acc


@st.composite
def element_pairs(draw):
    ctx = draw(contexts())
    return draw(elements(ctx)), draw(elements(ctx))


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_product_matches_reference(pair):
    x, y = pair
    product = x * y
    assert dict(product.coeffs) == reference_product(x, y)
    assert_normal(product)


@settings(max_examples=150, deadline=None)
@given(element_pairs(), st.integers(0, 3), coefficients)
def test_coefficients_stay_normal(pair, e, q):
    x, y = pair
    ctx = x.ctx
    results = [x + y, x - y, y - x, x * y, x ** e, x * q, q * x, x + q,
               2 * x, x * Fraction(1, 2) * 2, parse(ctx, format_element(x))]
    for result in results:
        assert_normal(result)
    assert parse(ctx, format_element(x)) == x
    assert x * Fraction(1, 2) * 2 == x


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_format_matches_all_fraction_element(pair):
    x, y = pair
    for z in (x, x * y):
        as_fractions = RingElement(z.ctx, {m: Fraction(c) for m, c in z.coeffs.items()})
        assert format_element(z) == format_element(as_fractions)


def reference_sort_key(mono):
    """The canonical order as documented: degree, then t and omega (total,
    then entrywise, high first), then letters (high degree first)."""
    letters, omega, t = mono
    degree = sum(letter_degree(c) for c in letters) + 2 * sum(omega) + 2 * sum(t)
    return (degree, (-sum(t), tuple(-e for e in t)),
            (-sum(omega), tuple(-e for e in omega)),
            tuple((-letter_degree(c), c) for c in letters))


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_sort_key_matches_reference(pair):
    x, y = pair
    for z in (x, y, x * y):
        for mono in z.coeffs:
            assert monomial_sort_key(mono) == reference_sort_key(mono)


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_permutations_match_reference(pair):
    x, _ = pair
    for sigma in permutations(x.ctx.factors):
        assert dict(permute_factors(sigma, x).coeffs) == reference_permute(sigma, x, False)
        assert dict(permute_factors_omega(sigma, x).coeffs) == \
            reference_permute(sigma, x, True)
