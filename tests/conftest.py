import itertools
from fractions import Fraction

import pytest

from quotcells.ring import RingContext, RingElement, letter_degree
from quotcells.weights import compositions


@pytest.fixture
def ctx_g1_n2():
    return RingContext(genus=1, factors=2)


@pytest.fixture
def ctx_g0_n2():
    return RingContext(genus=0, factors=2)


def monomials_of_degree(ctx: RingContext, degree: int):
    """All t-free monomials (letters, omega) of the given total degree."""
    n = ctx.factors
    basis = ctx.curve_basis()
    for letters in itertools.product(basis, repeat=n):
        rest = degree - sum(letter_degree(c) for c in letters)
        if rest < 0 or rest % 2:
            continue
        for omega in compositions(rest // 2, n):
            yield (letters, omega, ())


def random_homogeneous(ctx, degree, rng, terms=3):
    """Random homogeneous element built from the monomial basis."""
    basis = list(monomials_of_degree(ctx, degree))
    if not basis:
        return ctx.zero()
    coeffs = {}
    for mono in rng.sample(basis, min(terms, len(basis))):
        coeffs[mono] = Fraction(rng.randint(-4, 4))
    return RingElement(ctx, {m: c for m, c in coeffs.items() if c})


def assert_read_only(x):
    """No caller can write through an element's public term view."""
    mono = next(iter(x.coeffs))
    with pytest.raises(AttributeError):
        x.coeffs.clear()
    with pytest.raises(TypeError):
        x.coeffs[mono] = 0
    with pytest.raises(TypeError):
        del x.coeffs[mono]
    with pytest.raises(AttributeError):
        x.coeffs = {}
