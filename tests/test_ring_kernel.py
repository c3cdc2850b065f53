"""The ring kernel against a term-by-term reference.

RingElement.__mul__ groups each element's terms by mask class (the
bitmasks of its non-unit, odd and point positions), keeps that grouping
on the element, and settles point collisions and the Koszul sign once
per pair of classes; permute_factors moves tuples with weights.mover,
the one memoized action of a permutation on tuples, reads the
odd-letter sign per (sigma, odd mask), once per class, and builds its
image grouped; ring._fixed_by_swap tests whether a transposition fixes
x term by term, with its own itemgetter, looking up one term of each
exchanged pair and counting the other, with the transposition's sign
in closed form, pinned to permute_factors'; every other sign is
ring._inversion_parity.  A
right-hand term with letters only, as every twist's is, keeps the left
term's omega and t, and a right operand of one term with unit letters
shifts each left term's exponents without grouping the left operand.  Products that are summed (the pullback orbit sums)
are added into one term dict by ring._add_product, and the invariant
letter classes, built from letter orbits, are checked against sums over
the whole group.  format_element reads each letter tuple's part of the
canonical text from grammar._letter_facts, whose sort key holds one
grammar._letter_key pair per letter code, and each omega or t tuple's
from grammar._exponent_facts.  Every such table is a function of its
own key, memoized once per process, so a fresh context starts with the
tables that earlier contexts filled; the tests below also check that
the tables are keyed by all they depend on.
The references below are the plain loops over every pair of terms (and
every term), written from the product table and the Koszul rule alone.
The tests also pin the coefficient invariant: every coefficient is an
int, or a Fraction with denominator > 1.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcells import grammar, ring, weights
from quotcells.grammar import format_element, parse
from quotcells.pullback import (_fixed_by_stabilizer, _letter_classes,
                                average_twist, invariant_letter_classes)
from quotcells.ring import (POINT, UNBOUNDED, UNIT, RingContext, RingElement,
                            alpha, beta, letter_degree, letter_monomials,
                            omega_layers, permute_factors)
from quotcells.weights import apply_perm, stabilizer, transposition

from conftest import assert_read_only, permutations, reference_sort_key


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


def reference_permute(sigma, x):
    out = {}
    for (letters, omega, t), c in x.coeffs.items():
        n = len(letters)
        nl, no = [UNIT] * n, [0] * n
        for i in range(n):
            nl[sigma[i]] = letters[i]
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


@st.composite
def unbounded_monomials(draw, n=3, genus=2):
    """A monomial (letters, omega, trimmed t) of a context of rank
    UNBOUNDED, with n factors and the given genus."""
    basis = RingContext(genus=genus, factors=n).curve_basis()
    letters = draw(st.lists(st.sampled_from(basis), min_size=n, max_size=n))
    omega = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(0, 2), max_size=4))
    return tuple(letters), tuple(omega), ring._trim(tuple(t))


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
    letters, omega, t = next(iter(x.coeffs), (None, None, ()))
    results = [x + y, x - y, y - x, x * y, x ** e, x * q, q * x, x + q,
               2 * x, x * Fraction(1, 2) * 2, parse(ctx, format_element(x)),
               ctx.scalar(q), ctx.monomial(letters, omega, t, coeff=q), x * 0]
    for result in results:
        assert_normal(result)
    assert not (x * 0).coeffs
    assert parse(ctx, format_element(x)) == x
    assert x * Fraction(1, 2) * 2 == x


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_format_matches_all_fraction_element(pair):
    x, y = pair
    for z in (x, x * y):
        as_fractions = RingElement(z.ctx, {m: Fraction(c) for m, c in z.coeffs.items()})
        assert format_element(z) == format_element(as_fractions)


def nested_sort_key(mono):
    """The same order in its former nested shape: (degree, t part, omega
    part, letters part)."""
    letters, omega, t = mono
    degree = sum(letter_degree(c) for c in letters) + 2 * sum(omega) + 2 * sum(t)
    return (degree, (-sum(t), tuple(-e for e in t)),
            (-sum(omega), tuple(-e for e in omega)),
            tuple((-letter_degree(c), c) for c in letters))


@settings(max_examples=100, deadline=None)
@given(st.lists(unbounded_monomials(), max_size=12), st.randoms())
def test_flat_sort_key_keeps_the_nested_order(monos, rng):
    rng.shuffle(monos)
    assert sorted(monos, key=reference_sort_key) == \
        sorted(monos, key=nested_sort_key)


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_permutations_match_reference(pair):
    x, _ = pair
    assert ring.permute_factors_omega is ring.permute_factors
    for sigma in permutations(x.ctx.factors):
        assert dict(permute_factors(sigma, x).coeffs) == reference_permute(sigma, x)


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_omega_layers_rebuild_the_element(pair):
    x, y = pair
    for z in (x, x * y):
        ctx = z.ctx
        total = ctx.zero()
        for omega, layer in omega_layers(z).items():
            assert layer
            assert all(not any(o) for _letters, o, _t in layer.coeffs)
            assert_read_only(layer)
            total = total + ctx.monomial(omega=omega) * layer
        assert total == z


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reused_operand_keeps_its_grouping(data):
    ctx = data.draw(contexts())
    x = data.draw(elements(ctx))
    others = data.draw(st.lists(elements(ctx), min_size=1, max_size=4))
    for y in others + [x]:
        assert dict((x * y).coeffs) == reference_product(x, y)
        assert dict((y * x).coeffs) == reference_product(y, x)
    assert x._grouped() is x._grouped()


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_operands_from_equal_contexts(pair):
    x, y = pair
    ctx = x.ctx
    twin = RingContext(genus=ctx.genus, factors=ctx.factors, rank=ctx.rank)
    assert twin == ctx and twin is not ctx
    y = RingElement(twin, dict(y.coeffs))
    for left, right in ((x, y), (y, x), (x, x * y)):
        product = left * right
        assert dict(product.coeffs) == reference_product(left, right)
        assert_normal(product)


@st.composite
def unit_and_odd_pairs(draw):
    """An element with only unit letters and one whose every term carries
    an odd letter."""
    ctx = RingContext(genus=draw(st.integers(1, 2)),
                      factors=draw(st.integers(1, 4)), rank=2)
    units = (UNIT,) * ctx.factors
    x = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        omega = draw(st.lists(st.integers(0, 2), min_size=ctx.factors,
                              max_size=ctx.factors))
        t = draw(st.lists(st.integers(0, 2), max_size=2))
        x = x + ctx.monomial(units, omega, t, draw(coefficients))
    odd = [c for c in ctx.curve_basis() if letter_degree(c) == 1]
    y = ctx.zero()
    for _ in range(draw(st.integers(1, 4))):
        letters = draw(st.lists(st.sampled_from(ctx.curve_basis()),
                                min_size=ctx.factors, max_size=ctx.factors))
        letters[draw(st.integers(0, ctx.factors - 1))] = draw(st.sampled_from(odd))
        y = y + ctx.monomial(letters, coeff=draw(coefficients))
    return x, y


@settings(max_examples=100, deadline=None)
@given(unit_and_odd_pairs())
def test_unit_letters_times_odd_letters(pair):
    x, y = pair
    for left, right in ((x, y), (y, x)):
        assert dict((left * right).coeffs) == reference_product(left, right)


@st.composite
def overlapping_odd_pairs(draw):
    """Two sums of odd-letter monomials that meet at some factors, with
    a_k * b_k and b_k * a_k both drawn at the meeting factors."""
    genus = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4))
    ctx = RingContext(genus=genus, factors=n)
    odd = [alpha(k) for k in range(1, genus + 1)] + \
        [beta(k) for k in range(1, genus + 1)]
    x, y = ctx.zero(), ctx.zero()
    for _ in range(draw(st.integers(1, 4))):
        meet = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        lx, ly = [UNIT] * n, [UNIT] * n
        for i in meet:
            lx[i] = draw(st.sampled_from(odd))
            ly[i] = lx[i] ^ 1 if draw(st.booleans()) else draw(st.sampled_from(odd))
        for i in set(range(n)) - set(meet):
            if draw(st.booleans()):
                (lx if draw(st.booleans()) else ly)[i] = draw(st.sampled_from(odd))
        x = x + ctx.monomial(lx, coeff=draw(coefficients))
        y = y + ctx.monomial(ly, coeff=draw(coefficients))
    return x, y


@settings(max_examples=150, deadline=None)
@given(overlapping_odd_pairs())
def test_overlapping_odd_letters(pair):
    x, y = pair
    for left, right in ((x, y), (y, x)):
        assert dict((left * right).coeffs) == reference_product(left, right)


# one context for every example: the first example fills the (sigma, 4)
# tables and the later ones read them
WARM = RingContext(genus=2, factors=4, rank=2)


@settings(max_examples=60, deadline=None)
@given(elements(WARM, max_terms=8))
def test_permutations_of_s4_on_a_warm_context(x):
    for sigma in permutations(4):
        assert dict(permute_factors(sigma, x).coeffs) == reference_permute(sigma, x)


def test_letter_monomials_match_brute_force():
    for genus in range(3):
        for n in range(1, 5):
            ctx = RingContext(genus=genus, factors=n)
            for degree in range(-1, 2 * n + 2):
                brute = [letters for letters in
                         itertools.product(ctx.curve_basis(), repeat=n)
                         if sum(map(letter_degree, letters)) == degree]
                assert list(letter_monomials(ctx, degree)) == brute


def _summed(dicts):
    out = {}
    for d in dicts:
        for mono, c in d.items():
            out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_multiply_accumulate_matches_summed_references(data):
    ctx = data.draw(contexts())
    pairs = data.draw(st.lists(st.tuples(elements(ctx), elements(ctx)),
                               min_size=1, max_size=3))
    if data.draw(st.booleans()):
        x, y = pairs[0]
        pairs.append((x, -y))  # every term of x * y cancels
    out = {}
    for x, y in pairs:
        ring._add_product(out, x, y)
    total = ring._settled(ctx, out)
    assert dict(total.coeffs) == _summed(reference_product(x, y) for x, y in pairs)
    assert_normal(total)


def reference_letter_classes(ctx, degree, group):
    """invariant_letter_classes summed over the whole group: for each
    letter monomial m of no earlier orbit, in order, the sum of the
    reference images of m over the group, kept unless it cancels; every
    image, cancelled or not, marks its letter tuple as seen."""
    zero = (0,) * ctx.factors
    seen = set()
    out = []
    for letters in letter_monomials(ctx, degree):
        if letters in seen:
            continue
        m = RingElement(ctx, {(letters, zero, ()): 1})
        images = [reference_permute(sigma, m) for sigma in group]
        seen.update(mono[0] for image in images for mono in image)
        total = _summed(images)
        if total:
            out.append(total)
    return out


def test_letter_classes_match_summed_references():
    """Every degree at genus 0-2 and n <= 4, over S_n and over St(v) for
    every v in {0, 1, 2}^n, listed or given by v itself as the labels:
    the same classes, scale included, in the same order, and no class for
    an orbit whose sum cancels."""
    for genus in (0, 1, 2):
        for n in range(1, 5):
            ctx = RingContext(genus=genus, factors=n)
            vectors = list(itertools.product(range(3), repeat=n))
            groups = [list(permutations(n))] + [stabilizer(v) for v in vectors]
            for degree in range(2 * n + 1):
                expected = {}
                for group in groups:
                    # St(v) is one group for every v of one position partition
                    key = frozenset(group)
                    if key not in expected:
                        expected[key] = reference_letter_classes(ctx, degree, group)
                    got = invariant_letter_classes(ctx, degree, group)
                    assert [dict(x.coeffs) for x in got] == expected[key], \
                        (genus, n, degree, group)
                for v, group in zip(vectors, groups[1:]):
                    got = _letter_classes(ctx, degree, v)
                    assert [dict(x.coeffs) for x in got] == \
                        expected[frozenset(group)], (genus, n, degree, v)
                assert invariant_letter_classes(ctx, degree) == \
                    invariant_letter_classes(ctx, degree, groups[0])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_letter_classes_skip_repeated_odd_letters(data):
    genus = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(2, 4))
    ctx = RingContext(genus=genus, factors=n)
    odd = data.draw(st.sampled_from([alpha(1), beta(1)]))
    letters = (odd, odd) + tuple(data.draw(st.lists(
        st.sampled_from(ctx.curve_basis()), min_size=n - 2, max_size=n - 2)))
    v = (0, 0) + tuple(data.draw(st.lists(st.integers(0, 2), min_size=n - 2,
                                          max_size=n - 2)))
    group = data.draw(st.sampled_from([list(permutations(n)), stabilizer(v)]))
    x = ctx.monomial(letters, coeff=data.draw(coefficients))
    # the swap of the first two factors fixes the letters and costs a sign
    assert _summed(reference_permute(s, x) for s in group) == {}
    assert average_twist(ctx, v, x) == ctx.zero()
    degree = sum(map(letter_degree, letters))
    for c in invariant_letter_classes(ctx, degree, group):
        assert all(mono[0] != letters for mono in c.coeffs)


def test_letter_classes_refuse_a_group_that_is_no_stabilizer():
    ctx = RingContext(genus=1, factors=3)
    three_cycles = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    # of the order of St((0, 1, 0)), which its 3-cycle does not keep
    unlabelled = [(0, 1, 2), (1, 2, 0)]
    # of the order of S_3, with repeats
    repeated = [(0, 1, 2), (1, 0, 2), (2, 1, 0)] * 2
    for group in (three_cycles, stabilizer((0, 0)), [(0, 1, 2), (0, 1, 2)],
                  unlabelled, repeated):
        with pytest.raises(ValueError):
            invariant_letter_classes(ctx, 2, group)


@st.composite
def unbounded_elements(draw):
    """Elements with omega, t and Fraction coefficients at rank UNBOUNDED."""
    ctx = RingContext(genus=draw(st.integers(0, 2)),
                      factors=draw(st.integers(1, 4)), rank=UNBOUNDED)
    return draw(elements(ctx, max_terms=8))


@settings(max_examples=150, deadline=None)
@given(unbounded_elements())
def test_format_lists_terms_in_reference_order(x):
    ctx = x.ctx
    text = format_element(x)
    assert parse(ctx, text) == x
    if not x:
        assert text == "0"
        return
    monos = [next(iter(parse(ctx, piece).coeffs)) for piece in text.split(" + ")]
    assert monos == sorted(x.coeffs, key=reference_sort_key)
    # a fresh context of the same parameters writes the same text
    twin = RingContext(genus=ctx.genus, factors=ctx.factors, rank=UNBOUNDED)
    assert format_element(RingElement(twin, dict(x.coeffs))) == text


def test_permutation_check_runs_for_every_length():
    """A tuple cached as a permutation of two factors is still refused on
    three, and a non-permutation is refused every time."""
    two = RingContext(genus=1, factors=2)
    three = RingContext(genus=1, factors=3)
    x = two.letter_at(1, alpha(1)) * two.letter_at(2, beta(1))
    y = three.letter_at(1, alpha(1)) * three.pt(3)
    swapped = -two.letter_at(1, beta(1)) * two.letter_at(2, alpha(1))
    for _ in range(2):
        assert permute_factors((1, 0), x) == swapped
        with pytest.raises(ValueError):
            permute_factors((1, 0), y)  # too short for three factors
        assert permute_factors((2, 1, 0), y) == three.pt(1) * three.letter_at(3, alpha(1))
        with pytest.raises(ValueError):
            permute_factors((2, 1, 0), x)  # too long for two factors
        for sigma in ((0, 0, 1), (0, 1, 3)):
            with pytest.raises(ValueError):
                permute_factors(sigma, y)


KERNEL_TABLES = (ring._mask_class, ring._koszul_parity, weights.mover,
                 ring._reversed_parity, ring._packed, ring._meeting_fields,
                 ring._unpacked, grammar._letter_key, grammar._letter_facts,
                 grammar._exponent_facts)


def _immutable(value):
    """Whether value is built of ints, strings, tuples and itemgetters
    only, or is the tuple constructor (the mover of n <= 1 factors)."""
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    return value is tuple or type(value) in (int, str, itemgetter)


def test_kernel_tables_are_cached_functions_of_immutable_values():
    ctx = RingContext(genus=2, factors=3)
    x = parse(ctx, "[a1|b2|pt] + 1/2 * [b1|one|a2] w^(1,0,0)")
    for sigma in permutations(3):
        permute_factors(sigma, x)
    letters = [(mono[0],) for mono in x.coeffs]
    keys = {ring._mask_class: letters,
            ring._koszul_parity: [(0b011, 0b101), (0, 0b111)],
            weights.mover: [(sigma, 3) for sigma in permutations(3)]
            + [((0,), 1), ((), 0)],
            ring._reversed_parity: [(sigma, odd) for sigma in permutations(3)
                                    for odd in range(8)],
            ring._packed: [(letters, 3) for (letters,) in letters],
            ring._meeting_fields: [(both, 3) for both in range(1, 8)],
            ring._unpacked: [(ring._packed(letters, 3), 3, 3)
                             for (letters,) in letters],
            grammar._letter_key: [(c,) for c in (UNIT, POINT, alpha(1), beta(2))],
            grammar._letter_facts: letters,
            grammar._exponent_facts: [(mono[1],) for mono in x.coeffs]
            + [((),), ((0, 2),)]}
    assert set(keys) == set(KERNEL_TABLES)
    for table in KERNEL_TABLES:
        assert table.cache_parameters() == {"maxsize": None, "typed": False}
        for args in keys[table]:
            assert _immutable(table(*args)), (table, args)


def test_apply_perm_and_permute_factors_share_one_mover():
    ctx = RingContext(genus=1, factors=5)
    x = ctx.letter_at(1, alpha(1)) * ctx.letter_at(4, beta(1))
    sigma = (4, 2, 0, 1, 3)
    assert apply_perm(sigma, (9, 8, 7, 6, 5)) == (7, 6, 8, 5, 9)
    size = weights.mover.cache_info().currsize
    # a1 moves to factor 5 and b1 to factor 2, past each other
    assert permute_factors(sigma, x) \
        == -ctx.letter_at(2, beta(1)) * ctx.letter_at(5, alpha(1))
    assert weights.mover.cache_info().currsize == size


def test_a_fresh_context_adds_no_table_entries():
    def work(ctx):
        x = ring.diagonal(ctx, 1, 2) * ctx.omega(3) + ctx.letter_at(3, alpha(2))
        y = parse(ctx, "[a1|b1|one] + 1/2 * [b2|one|a1] w^(0,1,0) t^(1)")
        text = format_element(x * y)
        images = [format_element(permute_factors(sigma, x))
                  for sigma in permutations(3)]
        return text, images

    first = work(RingContext(genus=2, factors=3, rank=2))
    sizes = [table.cache_info().currsize for table in KERNEL_TABLES]
    fresh = RingContext(genus=2, factors=3, rank=2)
    # a context holds no kernel table of its own, only the field width
    # of its packed letter codes
    assert set(vars(fresh)) == {"genus", "factors", "rank", "degrees",
                                "_width", "_cell_cache", "_memo"}
    assert work(fresh) == first
    assert [table.cache_info().currsize for table in KERNEL_TABLES] == sizes


@st.composite
def letters_only_products(draw):
    """(x, y) with y letters-only, as every twist is, and a term of x
    carrying both omega and t."""
    ctx = RingContext(genus=draw(st.integers(0, 2)),
                      factors=draw(st.integers(1, 4)),
                      rank=draw(st.sampled_from([2, UNBOUNDED])))
    n = ctx.factors
    letters = st.lists(st.sampled_from(ctx.curve_basis()), min_size=n, max_size=n)
    omega = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    t = st.lists(st.integers(0, 2), min_size=1, max_size=2).filter(any)
    x = draw(elements(ctx)) + ctx.monomial(draw(letters), draw(omega), draw(t),
                                           draw(coefficients))
    y = ctx.zero()
    for _ in range(draw(st.integers(1, 4))):
        y = y + ctx.monomial(draw(letters), coeff=draw(coefficients))
    return x, y


@settings(max_examples=150, deadline=None)
@given(letters_only_products(), st.booleans())
def test_letters_only_right_operand(pair, cancel):
    x, y = pair
    pairs = [(x, y), (y, y)] + ([(x, -y)] if cancel else [])  # x * y cancels
    out = {}
    for left, right in pairs:
        ring._add_product(out, left, right)
    total = ring._settled(x.ctx, out)
    assert dict(total.coeffs) == _summed(reference_product(a, b) for a, b in pairs)
    assert_normal(total)
    # each product monomial keeps the left term's own omega and t tuples
    out = {}
    ring._add_product(out, x, y)
    own = {id(part) for mono in x.coeffs for part in mono[1:]}
    assert all(id(mono[1]) in own and (not mono[2] or id(mono[2]) in own)
               for mono in out)


@st.composite
def unit_letter_products(draw):
    """(x, y) with y one term whose letters are all UNIT, a scalar times
    w^omega t^e carrying omega only, t only, both or neither, at genus
    0 to 3."""
    ctx = RingContext(genus=draw(st.integers(0, 3)),
                      factors=draw(st.integers(1, 4)),
                      rank=draw(st.sampled_from([2, UNBOUNDED])))
    n = ctx.factors
    shape = draw(st.sampled_from(["omega", "t", "both", "neither"]))
    omega, t = None, ()
    if shape in ("omega", "both"):
        omega = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                     .filter(any))
    if shape in ("t", "both"):
        t = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)
                 .filter(any))
    y = ctx.monomial(omega=omega, t=t, coeff=draw(coefficients))
    return draw(elements(ctx)), y, draw(elements(ctx)), draw(elements(ctx))


@settings(max_examples=100, deadline=None)
@given(unit_letter_products(), st.booleans())
def test_unit_letter_right_operand(case, cancel):
    x, y, z, u = case
    # a general product first, so the shifts add into a filled dict;
    # x * -y then x * y cancels every term the first of them put in
    pairs = [(z, u), (x, y)] + ([(x, -y), (x, y)] if cancel else [])
    out = {}
    for left, right in pairs:
        ring._add_product(out, left, right)
    total = ring._settled(x.ctx, out)
    assert dict(total.coeffs) == _summed(reference_product(a, b) for a, b in pairs)
    assert_normal(total)
    out = {}
    ring._add_product(out, x, -y)
    ring._add_product(out, x, y)
    ring._settled(x.ctx, out)
    assert out == {}
    # an exponent shift reads the left operand's terms, not its grouping
    left = RingElement(x.ctx, dict(x.coeffs))
    product = left * y
    assert left._groups is None
    assert dict(product.coeffs) == reference_product(x, y)
    assert_normal(product)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permuted_image_is_built_grouped(data):
    ctx = data.draw(contexts())
    x = data.draw(elements(ctx))
    sigma = tuple(data.draw(st.permutations(range(ctx.factors))))
    image = permute_factors(sigma, x)
    assert dict(image.coeffs) == reference_permute(sigma, x)
    assert_normal(image)
    # kept as it was built: the grouping of the image's own terms
    assert image._groups is not None
    assert image._groups == RingElement(ctx, dict(image.coeffs))._grouped()
    y = data.draw(elements(ctx))
    assert dict((y * image).coeffs) == reference_product(y, image)


@st.composite
def near_misses(draw):
    """The 1-based factors i and j of a transposition tau and an element
    that tau fixes, y + tau(y), or that element changed at one term:
    negated, its coefficient doubled, or dropped, so that the image of
    its partner is missing.  Odd letters at both moved factors make tau
    cost a sign."""
    ctx = RingContext(genus=draw(st.integers(1, 2)),
                      factors=draw(st.integers(2, 4)),
                      rank=draw(st.sampled_from([0, 2])))
    n = ctx.factors
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    tau = transposition(n, i, j)
    y = draw(elements(ctx))
    odd = [c for c in ctx.curve_basis() if letter_degree(c) == 1]
    for _ in range(draw(st.integers(0, 2))):
        letters = draw(st.lists(st.sampled_from(ctx.curve_basis()),
                                min_size=n, max_size=n))
        letters[i - 1] = draw(st.sampled_from(odd))
        letters[j - 1] = draw(st.sampled_from(odd))
        y = y + ctx.monomial(letters, coeff=draw(coefficients))
    terms = dict((y + permute_factors(tau, y)).coeffs)
    change = draw(st.sampled_from(["none", "negate", "double", "drop"]))
    if terms and change != "none":
        mono = draw(st.sampled_from(sorted(terms, key=repr)))
        if change == "negate":
            terms[mono] = -terms[mono]
        elif change == "double":
            terms[mono] = 2 * terms[mono]
        else:
            del terms[mono]
    return i, j, RingElement(ctx, terms)


@settings(max_examples=200, deadline=None)
@given(near_misses())
def test_term_by_term_invariance_matches_the_image(case):
    i, j, x = case
    tau = transposition(x.ctx.factors, i, j)
    low, high = sorted((i - 1, j - 1))
    assert ring._fixed_by_swap(x, low, high) == (permute_factors(tau, x) == x)


def test_term_by_term_invariance_reads_the_sign():
    """tau([a1|b1]) = -[b1|a1]: the odd letters pass each other."""
    ctx = RingContext(genus=1, factors=2)
    ab = ctx.monomial([alpha(1), beta(1)])
    ba = ctx.monomial([beta(1), alpha(1)])
    assert ring._fixed_by_swap(ab - ba, 0, 1)
    assert not ring._fixed_by_swap(ab + ba, 0, 1)       # the other sign
    assert not ring._fixed_by_swap(ab - 2 * ba, 0, 1)   # another coefficient
    assert not ring._fixed_by_swap(ab, 0, 1)            # the image is missing
    assert ring._fixed_by_swap(ctx.zero(), 0, 1)


def swap_test_elements(ctx, i, j, rng):
    """Elements to test the swap of the 0-based factors i < j on: random
    sums y, some of whose terms carry odd letters (points at genus 0) at
    i, at j or at both and at the factors between them, each as y, as
    y + tau(y), which tau fixes, and as y + tau(y) changed at one term."""
    n, basis = ctx.factors, ctx.curve_basis()
    odd = [c for c in basis if letter_degree(c) == 1] or [POINT]
    tau = transposition(n, i + 1, j + 1)
    out = []
    for _ in range(12):
        y = ctx.zero()
        for _ in range(rng.randint(1, 3)):
            letters = [rng.choice(basis) for _ in range(n)]
            for k in range(i, j + 1):
                if rng.random() < 0.6:
                    letters[k] = rng.choice(odd)
            omega = [rng.choice((0, 0, 1)) for _ in range(n)]
            y = y + ctx.monomial(letters, omega, coeff=rng.choice((1, -1, 2)))
        fixed = y + permute_factors(tau, y)
        terms = dict(fixed.coeffs)
        if terms:
            mono = rng.choice(sorted(terms, key=repr))
            terms[mono] = rng.choice((-terms[mono], 2 * terms[mono]))
        out += [y, fixed, RingElement(ctx, terms)]
    return tau, out


def test_swap_test_matches_the_image_on_every_pair():
    """The swap test against tau(x) == x for every pair i < j of factors,
    genus 0-3 and n = 2-5, on elements with odd letters at the swapped
    factors and between them, on elements that tau fixes and on those
    changed at one term."""
    rng = random.Random(3011)
    counts = Counter()
    for g in range(4):
        for n in range(2, 6):
            ctx = RingContext(genus=g, factors=n)
            for i, j in itertools.combinations(range(n), 2):
                tau, xs = swap_test_elements(ctx, i, j, rng)
                for x in xs:
                    fixed = permute_factors(tau, x) == x
                    assert ring._fixed_by_swap(x, i, j) == fixed, (g, i, j, x)
                    counts[fixed] += 1
    assert counts[True] > 500 and counts[False] > 500


class _CountedLookups(dict):
    """A term dict that counts the images the swap test looks up."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _swap_side_cases(g):
    """(name, terms, i, j, fixed, lookups) over 5 factors at genus g.  A
    term whose pairs (letter, omega) at i and j are equal needs no
    lookup, one with the greater pair at i looks up its image, and one
    with the lesser pair at i is only counted.  At genus 0 there is no
    odd letter, so only the even cases are made."""
    def mono(letters, omega=(0,) * 5):
        return (tuple(letters), tuple(omega), ())

    one, pt, a, b = UNIT, POINT, alpha(g), beta(g)
    points, w_i, w_j = (pt, pt, one, one, one), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1)
    cases = [
        ("lesser side alone", {mono((one, pt, one, one, one)): 1}, 0, 1, False, 0),
        ("greater side alone", {mono((pt, one, one, one, one)): 1}, 0, 1, False, 1),
        ("unit ends", {mono((one, pt, pt, one, pt)): 2}, 0, 3, True, 0),
        ("point ends", {mono((pt, one, one, pt, one)): -1}, 0, 3, True, 0),
        ("omega only, units", {mono((one,) * 5, (2, 0, 0, 0, 0)): 1,
                               mono((one,) * 5, (0, 0, 0, 2, 0)): 1}, 0, 3, True, 1),
        ("omega only, points", {mono(points, w_i): 3, mono(points, w_j): 3}, 0, 1, True, 1),
        ("omega only, points, another coefficient",
         {mono(points, w_i): 3, mono(points, w_j): -3}, 0, 1, False, 1),
    ]
    if g == 0:
        return cases
    odd_ends = (a, a, pt, one, one)
    return cases + [
        ("lesser side alone, odd", {mono((one, a, one, one, one)): 1}, 0, 1, False, 0),
        ("greater side alone, odd", {mono((b, a, one, one, one)): 1}, 0, 1, False, 1),
        ("equal odd ends, adjacent", {mono(odd_ends): 1}, 0, 1, False, 0),
        ("equal odd ends, no odd between", {mono((a, one, pt, a, one)): 1}, 0, 3, False, 0),
        ("equal odd ends, one odd between", {mono((a, b, pt, a, one)): 1}, 0, 3, False, 0),
        ("equal odd ends, two odd between", {mono((a, b, a, a, one)): 1}, 0, 3, False, 0),
        ("omega only, odd ends", {mono(odd_ends, w_i): 1, mono(odd_ends, w_j): -1},
         0, 1, True, 1),
        ("omega only, odd ends, the other sign",
         {mono(odd_ends, w_i): 1, mono(odd_ends, w_j): 1}, 0, 1, False, 1),
    ]


@pytest.mark.parametrize("g", range(4))
def test_swap_test_reads_each_exchanged_pair_once(g):
    """Each side of the swap test on named cases, against tau(x) == x,
    with the number of images it looks up."""
    ctx = RingContext(genus=g, factors=5)
    for name, terms, i, j, fixed, lookups in _swap_side_cases(g):
        x = RingElement(ctx, dict(terms))
        assert (permute_factors(transposition(5, i + 1, j + 1), x) == x) == fixed, name
        counted = RingElement(ctx, _CountedLookups(terms))
        assert ring._fixed_by_swap(counted, i, j) == fixed, name
        assert counted._coeffs.lookups == lookups, name


def _cycle_parity(perm):
    """Parity of a permutation of range(k) from its cycles: k minus the
    number of cycles."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return (len(perm) - cycles) & 1


def test_inversion_parity_is_the_cycle_sign():
    """The one sign of the ring against the cycle decomposition, for every
    permutation of up to 6 entries, also when the entries are pairs as
    the orbit sums pass them."""
    for k in range(7):
        for perm in itertools.permutations(range(k)):
            sign = _cycle_parity(perm)
            assert ring._inversion_parity(list(perm)) == sign, perm
            assert ring._inversion_parity([divmod(v, 2) for v in perm]) == sign


def test_koszul_parity_is_the_direct_sum():
    """The Koszul parity against sum_{i<j} |y_i||x_j| for every pair of odd
    masks over 5 factors (every n <= 5 is a prefix of these)."""
    for odd_x in range(32):
        for odd_y in range(32):
            direct = sum(odd_y >> i & odd_x >> j & 1
                         for i, j in itertools.combinations(range(5), 2))
            assert ring._koszul_parity(odd_x, odd_y) == direct & 1, (odd_x, odd_y)


def _closed_form_swap_sign(odd, i, j):
    """The sign the swap of the factors i < j costs a class with the odd
    mask `odd`: odd letters at both factors (each odd letter between them
    is passed twice), or at one of them and an odd number of odd letters
    between."""
    both, between = 1 << i | 1 << j, (1 << j) - (2 << i)
    ends = odd & both
    return bool(ends == both or ends and (odd & between).bit_count() & 1)


def test_swap_sign_matches_the_closed_form():
    """The swap test's sign per class against the closed form, and the
    closed form against permute_factors, whose sign is the one rule
    _inversion_parity, for every pair i < j of 9 factors and every odd
    mask: a1 at each odd factor but j, b1 at j, so that the swap moves
    the tuple unless both ends are units; tau(m) = s m' for the closed
    form's sign s, and m + s m' is fixed exactly for that sign."""
    ctx = RingContext(genus=1, factors=9)
    zero = (0,) * 9
    for i, j in itertools.combinations(range(9), 2):
        tau = transposition(9, i + 1, j + 1)
        for odd in range(1 << 9):
            letters = [UNIT] * 9
            for k in range(9):
                if odd >> k & 1:
                    letters[k] = beta(1) if k == j else alpha(1)
            moved = list(letters)
            moved[i], moved[j] = letters[j], letters[i]
            m, image = (tuple(letters), zero, ()), (tuple(moved), zero, ())
            negate = _closed_form_swap_sign(odd, i, j)
            assert permute_factors(tau, RingElement(ctx, {m: 1})) \
                == RingElement(ctx, {image: -1 if negate else 1}), (i, j, odd)
            if m == image:
                assert ring._fixed_by_swap(RingElement(ctx, {m: 1}), i, j) != negate
                continue
            s = -1 if negate else 1
            assert ring._fixed_by_swap(RingElement(ctx, {m: 1, image: s}), i, j), (i, j, odd)
            assert not ring._fixed_by_swap(RingElement(ctx, {m: 1, image: -s}), i, j)


def test_swaps_of_neighbours_add_one_sign_entry():
    """An S_60-invariant element with two odd letters per term: testing
    all 59 neighbour swaps adds no entry to permute_factors' sign table,
    whatever the positions of the odd letters, since the swap test's
    sign is in closed form."""
    ctx = RingContext(genus=1, factors=60)
    labels = (0,) * 60
    x = average_twist(ctx, labels, ctx.letter_at(1, alpha(1)) * ctx.letter_at(2, beta(1)))
    assert len(x.coeffs) == 60 * 59
    ring._reversed_parity.cache_clear()
    assert _fixed_by_stabilizer(labels, x)
    assert ring._reversed_parity.cache_info().currsize == 0


def _letter_rule(lx, ly):
    """(flip, letters) for two letter tuples whose odd letters meet and
    whose points meet only units, or None: each meeting pair must be
    a_k, b_k in some order, b_k on the left costs a flip, and the
    meeting holds the point; elsewhere one side is a unit."""
    flip, letters = 0, []
    for a, b in zip(lx, ly):
        if a > POINT and b > POINT:
            if a ^ 1 != b:
                return None
            flip ^= a > b
            letters.append(POINT)
        else:
            letters.append(a or b)
    return flip, tuple(letters)


def test_packed_meetings_match_the_letter_rule():
    """The packed test, flip and product tuple of the kernel's meeting
    branch against the letter-level rule, for every pair of letter
    tuples whose odd letters meet and whose points meet only units, at
    genus 0-4 and n <= 3 (genus 0 has no odd letter, so no pair)."""
    counts = Counter()
    for g in range(5):
        for n in range(1, 4):
            ctx = RingContext(genus=g, factors=n)
            width = ctx._width
            tuples = [(letters, ring._mask_class(letters), ring._packed(letters, width))
                      for letters in itertools.product(ctx.curve_basis(), repeat=n)]
            for lx, (sx, ox, px), cx in tuples:
                for ly, (sy, oy, py), cy in tuples:
                    both = ox & oy
                    if not both or sx & py or px & sy:
                        continue
                    fields, ones = ring._meeting_fields(both, width)
                    expected = _letter_rule(lx, ly)
                    survives = (cx ^ cy) & fields == ones
                    assert survives == (expected is not None), (g, lx, ly)
                    counts[survives] += 1
                    if survives:
                        assert ((cx & ones).bit_count() & 1,
                                ring._unpacked((cx | cy) & ~fields | ones, width, n)) \
                            == expected, (g, lx, ly)
    assert counts[True] > 1000 and counts[False] > 10000


def test_field_width_steps_up_at_genus_4():
    """b_g = 2g + 1 fills the field: 3 bits up to genus 3, 4 from genus 4."""
    assert [RingContext(genus=g)._width for g in range(9)] \
        == [1, 2, 3, 3, 4, 4, 4, 4, 5]


def test_letter_code_round_trip_at_1010_factors():
    rng = random.Random(1010)
    for g in (1, 2, 8):
        ctx = RingContext(genus=g, factors=1010)
        letters = tuple(rng.choice(ctx.curve_basis()) for _ in range(1010))
        code = ring._packed(letters, ctx._width)
        assert ring._unpacked(code, ctx._width, 1010) == letters
        x = ctx.monomial(letters)
        (cls, [(grouped, packed, _terms)]), = x._grouped()
        assert (grouped, packed) == (letters, code)


def test_product_at_genus_8_matches_reference():
    """Width 5, where b_8 = 17 needs the fifth bit: sums of monomials
    whose odd letters meet, with a_k b_k and b_k a_k at the meetings."""
    rng = random.Random(88)
    ctx = RingContext(genus=8, factors=3, rank=2)
    odd = [c for c in ctx.curve_basis() if c > POINT]
    x, y = ctx.zero(), ctx.zero()
    for _ in range(12):
        lx = [rng.choice(odd + [UNIT, POINT]) for _ in range(3)]
        ly = [code ^ 1 if code > POINT and rng.random() < 0.7 else UNIT
              for code in lx]
        omega = [rng.choice((0, 1)) for _ in range(3)]
        x = x + ctx.monomial(lx, omega, coeff=rng.choice((1, -2, 3)))
        y = y + ctx.monomial(ly, t=(rng.choice((0, 1)),), coeff=rng.choice((1, -1)))
    for left, right in ((x, y), (y, x)):
        product = left * right
        assert product and dict(product.coeffs) == reference_product(left, right)


def test_swap_test_reads_the_terms_ungrouped():
    ctx = RingContext(genus=2, factors=3)
    x = parse(ctx, "[a1|b2|pt] + -1 * [b2|a1|pt] + [pt|pt|b1]")
    assert ring._fixed_by_swap(x, 0, 1)
    assert not ring._fixed_by_swap(x, 1, 2)
    assert x._groups is None
