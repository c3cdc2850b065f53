import pytest

from quotcells.ring import RingContext


@pytest.fixture
def ctx_g1_n2():
    return RingContext(genus=1, factors=2)


@pytest.fixture
def ctx_g0_n2():
    return RingContext(genus=0, factors=2)


def random_homogeneous(ctx, degree, rng, terms=3):
    """Random homogeneous element built from the monomial basis."""
    from quotcells.ring import RingElement, monomials_of_degree
    from fractions import Fraction
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
