"""Exact graded-commutative arithmetic in the model ring

    H*(C^n; Q) (x) Q[w_1..w_n] (x) Q[t_0..t_{r-1}]

for a smooth projective genus-g curve C.

H*(C) is realized on the basis {1, a_1..a_g, b_1..b_g, pt} with degrees
0, 1, 1, 2 and the symplectic product table a_k * b_k = pt = -(b_k * a_k);
every other product of positive-degree classes vanishes.  Tensor factors
multiply with the Koszul sign (-1)^{sum_{i<j} |y_i||x_j|}; the variables
w_i and t_a are even and central.  Every sign is that rule, -1 per pair
of odd letters passing each other, computed by _inversion_parity alone.

Elements are sparse maps monomial -> coefficient, where a coefficient is
an int when it is integral and a Fraction (denominator > 1) otherwise.
_settled is the one place that rule is written: scalar, monomial, scalar
and element products, element_from_terms and the twist averages of
pullback fill a plain dict and end in it.  Two sites keep their own zero
test: x + y, which merges into a copy of x that a settle pass would walk
whole, and localization.top_term_product, whose expected side stays
independent of the kernel it checks.  All arithmetic is exact; no
floating point anywhere.  Elements are immutable values: every
operation returns a fresh element and `coeffs` is a read-only view, so
elements are safe to share between concurrent tasks and caches.

The symmetric group acts on the factors by one action, permute_factors,
which moves each factor's letter together with its omega exponent.

The kernel reads a letter tuple through its mask class: three bitmasks
over the factors, (support, odd, points), the positions holding a
non-unit letter, an odd letter (a_k or b_k) and the point.  Whether two
tuples multiply to zero because a point meets a letter, and the Koszul
sign, depend on the classes alone, so products and permutation signs are
settled per class.  Only where odd letters meet does a product look at
the letters, and then through integers: each tuple holding an odd letter
carries its letter code, sum_i letters[i] << (w * i), next to it in the
grouped form, where the field width w = (2g + 1).bit_length() is fixed
per context.  With the mask `fields` of every bit of the meeting
positions and `ones` of their low bits, a pair survives iff its codes
differ by exactly `ones` there (a_k = 2k and b_k = 2k + 1 differ in the
low bit alone), x's b_k read (cx & ones).bit_count() symplectic signs
b_k a_k = -pt, and the product's code is (cx | cy) & ~fields | ones,
the point (1) at each meeting (Dorst, Fontijne & Mann, Geometric Algebra
for Computer Science, 2007, ch. 19, for such bitmap products).  Tuples
with disjoint supports merge letter by letter.  Each of these facts is
a function of its own key, memoized once per process: the class of
every letter tuple (at most (2g+2)^n per (g, n)), the Koszul parity per
pair of odd masks (at most 4^n per n), the sign of a permutation sigma
per odd mask (at most n! * 2^n per n), the code of each letter tuple
holding an odd letter, the (fields, ones) pair per (meeting mask,
width) and the letter tuple of each product code met;
permute_factors moves tuples by weights.mover.  The tables grow only
with what the process meets, and a fresh context starts warm.  Each
element keeps its terms grouped by class once it has been multiplied
or permuted, and its omega layers (omega_layers) from the first split
on.

A permutation reads its operand grouped, too: one sign lookup per mask
class and one moved tuple, with its code, per letter tuple.
permute_factors builds its image straight into the grouped form, which
the image keeps, so a twist permuted along an orbit is grouped once and
each of its images is ready for the product.  _fixed_by_swap tests
whether swapping two factors fixes x term by term, reading x's terms as
they are, without grouping x or building the image, and stops at the
first term that differs; it reads each term's sign from
permute_factors' table, keyed by the odd mask of the term's class,
where all swaps of neighbours share one entry.

Sums of products go into one term dict by plain sums: the
multiply-accumulate _add_product adds x * y into a caller's dict (a
product is one call into a fresh dict, and a restriction to a fixed
point one call per omega layer with nonzero omega; its omega-free layer
is added term by term), and _settled alone drops what cancels when it
makes the element.  A right operand of one term whose letters are all
UNIT, a scalar times w^o t^e, is an exponent shift: each left term keeps
its letters, adds o and e and multiplies its coefficient into the dict,
with no grouping and no class pair.  The powers of omega_i at a fixed
point w with no equal entry before w_i and degree 0 are such terms,
t_{w_i}^e.  A right-hand term with letters only, zero omega and no t,
as every twist's terms are, gives each product the left term's own
omega and t tuples, with no exponent sums.  No sum here runs over a
group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add, itemgetter, or_
from types import MappingProxyType

from .weights import mover

# Letter codes for the H*(C) basis: UNIT, POINT, alpha_k = 2k, beta_k = 2k+1.
UNIT = 0
POINT = 1


def alpha(k: int) -> int:
    return 2 * k


def beta(k: int) -> int:
    return 2 * k + 1


def letter_degree(code: int) -> int:
    if code == UNIT:
        return 0
    if code == POINT:
        return 2
    return 1


def letter_name(code: int) -> str:
    if code == UNIT:
        return "one"
    if code == POINT:
        return "pt"
    k, odd = divmod(code, 2)
    return ("b%d" if odd else "a%d") % k


def _trim(t):
    """Drop trailing zeros so t-monomials hash canonically."""
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


UNBOUNDED = None  # rank sentinel: t-variables indexed on demand


class RingContext:
    """Global parameters: genus, number of factors, equivariant rank, degrees.

    rank 0 disables the t-variables, a positive rank r allows t_0..t_{r-1}
    and restricts weight entries to [0, r-1]; rank UNBOUNDED (None) allows
    arbitrarily many t-variables and unrestricted weight entries.
    degrees[a] is the degree of the line bundle L_a (all-zero default).

    A context is an immutable value: equal and hashed by its four
    parameters, with per-context caches (_cell_cache, _memo) and the
    field width of its packed letter codes (_width) beside them.
    """

    def __init__(self, genus: int = 0, factors: int = 1,
                 rank: int | None = 0, degrees: tuple = ()):
        if genus < 0 or factors < 0:
            raise ValueError("genus and factors must be non-negative")
        if rank is not UNBOUNDED and rank < 0:
            raise ValueError("rank must be >= 0 or UNBOUNDED")
        degrees = tuple(degrees)
        if rank == 0 and degrees:
            raise ValueError("rank-0 context carries no line-bundle degrees")
        if rank not in (0, UNBOUNDED) and len(degrees) not in (0, rank):
            raise ValueError("degrees must have length rank (or be empty)")
        vars(self).update(genus=genus, factors=factors, rank=rank,
                          degrees=degrees, _width=(2 * genus + 1).bit_length(),
                          _cell_cache={}, _memo={})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.genus, self.factors, self.rank, self.degrees)
                == (other.genus, other.factors, other.rank, other.degrees))

    def __hash__(self):
        return hash((self.genus, self.factors, self.rank, self.degrees))

    def __repr__(self):
        return "RingContext(genus=%r, factors=%r, rank=%r, degrees=%r)" % (
            self.genus, self.factors, self.rank, self.degrees)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    # -- scalars and generators -------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def scalar(self, q) -> "RingElement":
        mono = ((UNIT,) * self.factors, (0,) * self.factors, ())
        return _settled(self, {mono: Fraction(q)})

    def monomial(self, letters=None, omega=None, t=(), coeff=1) -> "RingElement":
        n = self.factors
        letters = tuple(letters) if letters is not None else (UNIT,) * n
        omega = tuple(omega) if omega is not None else (0,) * n
        if len(letters) != n or len(omega) != n:
            raise ValueError("letters and omega must have length %d" % n)
        for code in letters:
            self._check_letter(code)
        if any(e < 0 for e in omega) or any(e < 0 for e in t):
            raise ValueError("exponents must be non-negative")
        t = _trim(tuple(t))
        self._check_t_length(len(t))
        if type(coeff) is not int:
            coeff = Fraction(coeff)
        return _settled(self, {(letters, omega, t): coeff})

    def omega(self, i: int, power: int = 1) -> "RingElement":
        """The class w_i (1-based factor index)."""
        self._check_factor(i)
        exps = [0] * self.factors
        exps[i - 1] = power
        return self.monomial(omega=exps)

    def t_var(self, a: int) -> "RingElement":
        """The equivariant parameter t_a (0-based)."""
        if a < 0:
            raise ValueError("t index must be >= 0")
        self._check_t_length(a + 1)
        return self.monomial(t=(0,) * a + (1,))

    def letter_at(self, i: int, code: int) -> "RingElement":
        """The pullback p_i^*(class) of a single curve class."""
        self._check_factor(i)
        self._check_letter(code)
        letters = [UNIT] * self.factors
        letters[i - 1] = code
        return self.monomial(letters=letters)

    def pt(self, i: int) -> "RingElement":
        return self.letter_at(i, POINT)

    def curve_basis(self):
        """Letter codes of the H*(C) basis, in degree order."""
        g = self.genus
        return [UNIT] + [alpha(k) for k in range(1, g + 1)] + \
            [beta(k) for k in range(1, g + 1)] + [POINT]

    def bundle_degree(self, a: int) -> int:
        return self.degrees[a] if a < len(self.degrees) else 0

    # -- validation --------------------------------------------------------

    def _check_factor(self, i: int):
        if not 1 <= i <= self.factors:
            raise ValueError("factor index %d out of range [1, %d]" % (i, self.factors))

    def _check_letter(self, code: int):
        if code in (UNIT, POINT):
            return
        k = code // 2
        if not 1 <= k <= self.genus:
            raise ValueError("letter %s out of range for genus %d" % (letter_name(code), self.genus))

    def _check_t_length(self, length: int):
        if length == 0:
            return
        if self.rank == 0:
            raise ValueError("t-variables are not available in a rank-0 context")
        if self.rank is not UNBOUNDED and length > self.rank:
            raise ValueError("t index %d out of range for rank %d" % (length - 1, self.rank))


@cache
def _mask_class(letters):
    """The mask class (support, odd, points) of a letter tuple: bit i of
    each mask is set when factor i holds a non-unit letter, an odd
    letter, the point."""
    support = odd = 0
    for i, code in enumerate(letters):
        if code != UNIT:
            support |= 1 << i
            if code > POINT:
                odd |= 1 << i
    return support, odd, support & ~odd


def _inversion_parity(entries):
    """Parity of the pairs of entries in decreasing order, the sign of
    sorting them (Knuth, TAOCP vol. 3, 5.1.1): every sign of the ring."""
    return sum(b > a for i, a in enumerate(entries) for b in entries[:i]) & 1


@cache
def _koszul_parity(odd_x, odd_y):
    """Parity of the pairs i < j with y_i and x_j odd, the exponent of the
    Koszul sign of x * y: x_j goes to 2j, then y_i to 2i + 1, so a pair
    inverts exactly when i < j."""
    return _inversion_parity([2 * j for j in range(odd_x.bit_length()) if odd_x >> j & 1]
                             + [2 * i + 1 for i in range(odd_y.bit_length()) if odd_y >> i & 1])


@cache
def _packed(letters, width):
    """The letter code sum_i letters[i] << (width * i): one field of
    `width` bits per factor, the first factor lowest."""
    code = 0
    for letter in reversed(letters):
        code = code << width | letter
    return code


@cache
def _unpacked(code, width, n):
    """The letter tuple of n factors packed in `code`."""
    field = (1 << width) - 1
    return tuple(code >> shift & field for shift in range(0, width * n, width))


@cache
def _meeting_fields(both, width):
    """(fields, ones) for odd letters meeting at the positions of the
    mask `both`: every bit of each such position's field, and its low
    bit.  Two odd letters multiply to the point iff they are a_k = 2k
    and b_k = 2k + 1, which differ in the low bit alone."""
    fields = ones = 0
    while both:
        low = both & -both
        shift = width * (low.bit_length() - 1)
        fields |= ((1 << width) - 1) << shift
        ones |= 1 << shift
        both ^= low
    return fields, ones


def _add_products(out, letters, negate, xs, ys):
    """Add to `out` the products of the terms xs and ys, [(omega, t,
    coeff)], whose letters multiply to `letters`, negated if `negate`."""
    if len(ys) == 1:
        oy, ty, cy = ys[0]
        if not ty and not any(oy):
            # a letters-only right term, as every twist's is: each
            # product keeps the left term's own omega and t tuples
            if negate:
                cy = -cy
            for ox, tx, cx in xs:
                mono = (letters, ox, tx)
                out[mono] = out.get(mono, 0) + cx * cy
            return
    for ox, tx, cx in xs:
        if negate:
            cx = -cx
        for oy, ty, cy in ys:
            if tx and ty:
                ta, tb = (tx, ty) if len(tx) >= len(ty) else (ty, tx)
                t = tuple(map(add, ta, tb)) + ta[len(tb):]
            else:
                t = tx or ty
            mono = (letters, tuple(map(add, ox, oy)), t)
            out[mono] = out.get(mono, 0) + cx * cy


def _add_product(out, x, y):
    """Add x * y into the term dict `out`, monomial -> coefficient, by
    plain sums, which may leave zeros until _settled drops them."""
    _require_ctx(x.ctx, y)
    if len(y._coeffs) == 1:
        ((ly, oy, ty), cy), = y._coeffs.items()
        if not any(ly):
            # every letter UNIT (code 0): y = cy w^oy t^ty shifts each
            # term's exponents, with no letter product and no sign
            shift = any(oy)
            for (lx, ox, tx), cx in x._coeffs.items():
                if shift:
                    ox = tuple(map(add, ox, oy))
                if tx and ty:
                    ta, tb = (tx, ty) if len(tx) >= len(ty) else (ty, tx)
                    tx = tuple(map(add, ta, tb)) + ta[len(tb):]
                else:
                    tx = tx or ty
                mono = (lx, ox, tx)
                out[mono] = out.get(mono, 0) + cx * cy
            return
    # Whether a pair of letter tuples survives and with which sign is
    # settled per pair of mask classes where the classes decide it; only
    # exponent sums and coefficient products run per term pair.
    right = y._grouped()
    for (sx, ox, px), xs in x._grouped():
        for (sy, oy, py), ys in right:
            if sx & py or px & sy:
                continue  # a point meets a non-unit letter
            if not sx or not sy:
                # units only on one side: the other tuple is the
                # product, and no odd letter passes another
                for lx, _cx, xterms in xs:
                    for ly, _cy, yterms in ys:
                        _add_products(out, ly if not sx else lx, False,
                                      xterms, yterms)
                continue
            negate = _koszul_parity(ox, oy)
            both = ox & oy
            if not both:  # disjoint supports
                for lx, _cx, xterms in xs:
                    for ly, _cy, yterms in ys:
                        _add_products(out, tuple(map(or_, lx, ly)),
                                      negate, xterms, yterms)
                continue
            # odd letters meet at `both`: a pair survives iff each
            # meeting is a_k, b_k in either order, costs the symplectic
            # sign b_k a_k = -pt once per b_k on x's side, and holds the
            # point (1) at each meeting
            width, n = x.ctx._width, x.ctx.factors
            fields, ones = _meeting_fields(both, width)
            for _lx, cx, xterms in xs:
                for _ly, cy, yterms in ys:
                    if (cx ^ cy) & fields == ones:
                        _add_products(
                            out, _unpacked((cx | cy) & ~fields | ones, width, n),
                            negate ^ (cx & ones).bit_count() & 1, xterms, yterms)


def _require_ctx(ctx, x):
    """Raise unless the element x was built against ctx or an equal
    context."""
    if x.ctx is not ctx and x.ctx != ctx:
        raise ValueError("elements built against different contexts")


def _settled(ctx, out):
    """The element of a term dict filled by plain sums, the one
    coefficient normalizer: each zero is dropped and each integral
    Fraction made an int, in place."""
    zeros = []
    for mono, c in out.items():
        if not c:
            zeros.append(mono)
        elif type(c) is not int and c.denominator == 1:
            out[mono] = c.numerator
    for mono in zeros:
        del out[mono]
    return RingElement(ctx, out)


class RingElement:
    """Sparse exact-rational combination of tensor-omega-t monomials.

    The constructor takes ownership of a dict monomial -> nonzero
    coefficient, each an int or a Fraction with denominator > 1.
    """

    __slots__ = ("ctx", "_coeffs", "_groups", "_layers")

    def __init__(self, ctx: RingContext, coeffs: dict):
        self.ctx = ctx
        self._coeffs = coeffs
        self._groups = None
        self._layers = None

    def _grouped(self):
        """The terms grouped by mask class, then by letter tuple:
        [((support, odd, points), [(letters, code, [(omega, t, coeff)])])],
        where code is the tuple's _packed letter code when it holds an
        odd letter, and None otherwise.
        Filled on the first product and kept, since elements are
        immutable; two threads filling it at once build equal lists."""
        groups = self._groups
        if groups is None:
            by_letters = {}
            for (letters, omega, t), c in self._coeffs.items():
                terms = by_letters.get(letters)
                if terms is None:
                    by_letters[letters] = [(omega, t, c)]
                else:
                    terms.append((omega, t, c))
            classes, width = {}, self.ctx._width
            for letters, terms in by_letters.items():
                cls = _mask_class(letters)
                entry = (letters, _packed(letters, width) if cls[1] else None,
                         terms)
                entries = classes.get(cls)
                if entries is None:
                    classes[cls] = [entry]
                else:
                    entries.append(entry)
            groups = self._groups = list(classes.items())
        return groups

    @property
    def coeffs(self):
        """Read-only view of the terms, monomial -> coefficient."""
        return MappingProxyType(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self._coeffs == other._coeffs)

    def __hash__(self):
        # an element equal to a number hashes as that number, as == reads it
        coeffs = self._coeffs
        if not coeffs:
            return hash(0)
        if len(coeffs) == 1:
            ((letters, omega, t), c), = coeffs.items()
            if not t and not any(letters) and not any(omega):
                return hash(c)
        return hash((self.ctx, frozenset(coeffs.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        elif not isinstance(other, RingElement):
            return NotImplemented
        _require_ctx(self.ctx, other)
        # its own zero test: a settle pass would walk the whole left copy
        out = dict(self._coeffs)
        for mono, c in other._coeffs.items():
            s = out.get(mono, 0) + c
            if not s:
                out.pop(mono, None)
            elif type(s) is int or s.denominator != 1:
                out[mono] = s
            else:
                out[mono] = s.numerator
        return RingElement(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ctx, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _settled(self.ctx, {m: c * other
                                       for m, c in self._coeffs.items()})
        if not isinstance(other, RingElement):
            return NotImplemented
        out = {}
        _add_product(out, self, other)
        return _settled(self.ctx, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        from .grammar import format_element
        return "<%s>" % format_element(self)


def element_from_terms(ctx: RingContext, terms) -> RingElement:
    """Build an element from (monomial, coefficient) pairs, merging duplicates."""
    out = {}
    for mono, c in terms:
        out[mono] = out.get(mono, 0) + c
    return _settled(ctx, out)


def cohomological_degree(x: RingElement):
    """Degree of a homogeneous element; "inhomogeneous" otherwise, None for 0."""
    degs = set()
    for letters, omega, t in x._coeffs:
        # an odd letter has degree 1 and the point 2: one per support bit,
        # one more per point bit
        support, _odd, points = _mask_class(letters)
        degs.add(support.bit_count() + points.bit_count()
                 + 2 * (sum(omega) + sum(t)))
    if not degs:
        return None
    if len(degs) > 1:
        return "inhomogeneous"
    return degs.pop()


# -- symmetric-group actions ------------------------------------------------

@cache
def _reversed_parity(sigma, odd):
    """Parity of the pairs of positions in the mask `odd` whose order
    sigma reverses: moving odd letters past each other costs that sign.
    Read only with a checked sigma: weights.mover's, or _fixed_by_swap's."""
    return _inversion_parity([sigma[i] for i in range(len(sigma)) if odd >> i & 1])


def permute_factors(sigma, x: RingElement) -> RingElement:
    """Left action of the symmetric group on the factors: the ring
    automorphism sending p_i^*(a) w_i^l to p_{sigma(i)}^*(a) w_{sigma(i)}^l,
    whose invariants realize the image of the quot-scheme cohomology inside
    the complete-flag model.

    sigma is a tuple with sigma[i] = image of (0-based) position i.  The
    letter and the omega exponent of factor i move to factor sigma[i];
    transposing two odd letters costs a sign; t exponents are untouched.
    The image is built straight into the grouped form that products
    read: x's grouping is moved class by class, and the image keeps it.
    """
    # the action is a bijection on monomials that maps each mask class
    # onto one class, so no two terms meet and no two classes merge
    sigma = tuple(sigma)
    move, width = mover(sigma, x.ctx.factors), x.ctx._width
    coeffs, groups = {}, []
    for (_support, odd, _points), entries in x._grouped():
        # with at most one odd letter no pair can be reversed
        negate = odd & (odd - 1) and _reversed_parity(sigma, odd)
        moved_entries = []
        for letters, _code, terms in entries:
            moved = move(letters)
            moved_terms = []
            for omega, t, c in terms:
                if any(omega):
                    omega = move(omega)
                if negate:
                    c = -c
                coeffs[moved, omega, t] = c
                moved_terms.append((omega, t, c))
            moved_entries.append(
                (moved, _packed(moved, width) if odd else None, moved_terms))
        groups.append((_mask_class(moved_entries[0][0]), moved_entries))
    image = RingElement(x.ctx, coeffs)
    image._groups = groups
    return image


def _fixed_by_swap(x: RingElement, i: int, j: int) -> bool:
    """Whether the transposition of the 0-based factors i < j fixes x,
    tested term by term up to the first term whose image is missing from
    x or carries another signed coefficient.  It reads x's terms as they
    are and leaves x ungrouped.  Tuples move by an itemgetter of this
    call's own.  The sign of a term is the one permute_factors reads for
    its mask class, _reversed_parity of its odd letters in the window
    i..j under the swap of the window's two ends, so the library's swaps
    of neighbours add one key to that table however large n is."""
    order = list(range(x.ctx.factors))
    order[i], order[j] = j, i
    move = itemgetter(*order)
    swap = (j - i, *range(1, j - i), 0)
    coeffs = x._coeffs
    for (letters, omega, t), c in coeffs.items():
        odd = (_mask_class(letters)[1] & (2 << j) - 1) >> i
        if odd & (odd - 1) and _reversed_parity(swap, odd):
            c = -c
        if coeffs.get((move(letters), move(omega), t)) != c:
            return False
    return True


# The former name of the same action, kept bound because the traced
# benchmark (bench/spans.py) wraps it.
permute_factors_omega = permute_factors


# -- diagonal and point classes ---------------------------------------------

def diagonal(ctx: RingContext, i: int, j: int) -> RingElement:
    """Kunneth representative of the diagonal class in factors i < j:

        pt_i + pt_j - sum_k (a_k^(i) b_k^(j) - b_k^(i) a_k^(j)).

    The sign convention is pinned by diagonal^2 = (2-2g) pt_i pt_j.
    """
    ctx._check_factor(i)
    ctx._check_factor(j)
    if not i < j:
        raise ValueError("need i < j")

    def mono(at_i, at_j):
        letters = [UNIT] * ctx.factors
        letters[i - 1], letters[j - 1] = at_i, at_j
        return tuple(letters), (0,) * ctx.factors, ()

    coeffs = {mono(POINT, UNIT): 1, mono(UNIT, POINT): 1}
    for k in range(1, ctx.genus + 1):
        coeffs[mono(alpha(k), beta(k))] = -1
        coeffs[mono(beta(k), alpha(k))] = 1
    return RingElement(ctx, coeffs)


def small_diagonal(ctx: RingContext, subset) -> RingElement:
    """Class of the small diagonal over a subset of factors.

    Computed as the product of pairwise diagonals along the sorted chain,
    which starts at the first pair; any spanning tree of pairwise
    diagonals gives the same class.  Memoized per context; the factors
    are checked on every call.
    """
    members = tuple(sorted(set(subset)))
    for i in members:
        ctx._check_factor(i)
    key = ("small_diagonal", members)
    got = ctx._memo.get(key)
    if got is None:
        if len(members) < 2:
            got = ctx.one()
        else:
            got = diagonal(ctx, members[0], members[1])
            for a, b in zip(members[1:], members[2:]):
                got = got * diagonal(ctx, a, b)
        ctx._memo[key] = got
    return got


def point_class(ctx: RingContext, subset) -> RingElement:
    """Product of point classes over a subset of factors: one monomial."""
    letters = [UNIT] * ctx.factors
    for i in set(subset):
        ctx._check_factor(i)
        letters[i - 1] = POINT
    return RingElement(ctx, {(tuple(letters), (0,) * ctx.factors, ()): 1})


def top_part(x: RingElement, part: int) -> RingElement:
    """The terms of x whose omega exponents (part 1) or t exponents
    (part 2) have the largest sum; x itself when x is 0."""
    if not x._coeffs:
        return x
    top = max(sum(m[part]) for m in x._coeffs)
    return RingElement(x.ctx, {m: c for m, c in x._coeffs.items()
                               if sum(m[part]) == top})


def omega_layers(x: RingElement) -> MappingProxyType:
    """The terms of x split by omega vector: omega -> the omega-free
    element of the terms carrying w^omega, so x = sum w^omega * layer.

    The split is made on the first call and kept with x, since elements
    are immutable; every call returns a read-only view of it, so no
    caller can change what the next one reads."""
    layers = x._layers
    if layers is None:
        zero = (0,) * x.ctx.factors
        split = {}
        for (letters, omega, t), c in x._coeffs.items():
            split.setdefault(omega, {})[(letters, zero, t)] = c
        layers = x._layers = MappingProxyType(
            {omega: RingElement(x.ctx, terms) for omega, terms in split.items()})
    return layers


def letter_monomials(ctx: RingContext, degree: int):
    """All letter tuples (no omega, no t) of the given total degree, in the
    order of itertools.product(ctx.curve_basis(), repeat=ctx.factors).

    Built factor by factor, each prefix kept only while the factors after
    it can still make up the degree left: a letter has degree at most 2,
    and at genus 0 every letter degree is even."""
    basis = [(code, letter_degree(code)) for code in ctx.curve_basis()]
    step = 1 if ctx.genus else 2
    prefixes = [((), degree)]
    for rest in range(ctx.factors - 1, -1, -1):
        prefixes = [(letters + (code,), left - d)
                    for letters, left in prefixes for code, d in basis
                    if 0 <= left - d <= 2 * rest and (left - d) % step == 0]
    for letters, left in prefixes:
        if left == 0:
            yield letters
