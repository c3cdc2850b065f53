"""Exact graded-commutative arithmetic in the model ring

    H*(C^n; Q) (x) Q[w_1..w_n] (x) Q[t_0..t_{r-1}]

for a smooth projective genus-g curve C.

H*(C) is realized on the basis {1, a_1..a_g, b_1..b_g, pt} with degrees
0, 1, 1, 2 and the symplectic product table a_k * b_k = pt = -(b_k * a_k);
every other product of positive-degree classes vanishes.  Tensor factors
multiply with the Koszul sign (-1)^{sum_{i<j} |y_i||x_j|}; the variables
w_i and t_a are even and central.

Elements are sparse maps monomial -> coefficient, where a coefficient is
an int when it is integral and a Fraction (denominator > 1) otherwise;
the few places that make coefficients (scalar, monomial, sums, products
and element_from_terms) keep that normalization.  All arithmetic is
exact; no floating point anywhere.  Elements are immutable values: every
operation returns a fresh element and `coeffs` is a read-only view, so
elements are safe to share between concurrent tasks and caches.

The symmetric group acts on the factors by one action, permute_factors,
which moves each factor's letter together with its omega exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from types import MappingProxyType

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


def _normal(q):
    """A coefficient as an int when it is integral, else as a Fraction."""
    return q.numerator if q.denominator == 1 else q


UNBOUNDED = None  # rank sentinel: t-variables indexed on demand


@dataclass(frozen=True)
class RingContext:
    """Global parameters: genus, number of factors, equivariant rank, degrees.

    rank 0 disables the t-variables, a positive rank r allows t_0..t_{r-1}
    and restricts weight entries to [0, r-1]; rank UNBOUNDED (None) allows
    arbitrarily many t-variables and unrestricted weight entries.
    degrees[a] is the degree of the line bundle L_a (all-zero default).
    """

    genus: int = 0
    factors: int = 1
    rank: int | None = 0
    degrees: tuple = ()

    def __post_init__(self):
        if self.genus < 0 or self.factors < 0:
            raise ValueError("genus and factors must be non-negative")
        if self.rank is not UNBOUNDED and self.rank < 0:
            raise ValueError("rank must be >= 0 or UNBOUNDED")
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if self.rank == 0 and self.degrees:
            raise ValueError("rank-0 context carries no line-bundle degrees")
        if self.rank not in (0, UNBOUNDED) and len(self.degrees) not in (0, self.rank):
            raise ValueError("degrees must have length rank (or be empty)")
        object.__setattr__(self, "_cell_cache", {})
        object.__setattr__(self, "_memo", {})

    # -- scalars and generators -------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def scalar(self, q) -> "RingElement":
        q = _normal(Fraction(q))
        if q == 0:
            return self.zero()
        mono = ((UNIT,) * self.factors, (0,) * self.factors, ())
        return RingElement(self, {mono: q})

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
        coeff = _normal(Fraction(coeff))
        if coeff == 0:
            return self.zero()
        return RingElement(self, {(letters, omega, t): coeff})

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


def monomial_degree(mono) -> int:
    letters, omega, t = mono
    return sum(letter_degree(c) for c in letters) + 2 * sum(omega) + 2 * sum(t)


def monomial_sort_key(mono):
    """Canonical total order: degree, then t, omega (graded lex, high first),
    then letters factor-by-factor (high degree first)."""
    letters, omega, t = mono
    degrees = [letter_degree(c) for c in letters]
    return (
        sum(degrees) + 2 * sum(omega) + 2 * sum(t),
        (-sum(t), tuple([-e for e in t])),
        (-sum(omega), tuple([-e for e in omega])),
        tuple([(-d, c) for d, c in zip(degrees, letters)]),
    )


def _letters_product(lx, ly):
    """Product of two letter tuples: (sign, letters), or None when the
    letters of some factor collide.  The sign is the product of the
    symplectic signs (b_k * a_k = -pt) and the Koszul sign
    (-1)^{sum_{i<j} |y_i||x_j|}, both counted in one pass over the
    factors; the odd letters are the codes above POINT."""
    flips = 0
    odd_y = 0  # odd letters of ly left of the current factor
    letters = []
    for a, b in zip(lx, ly):
        if a > POINT:
            flips += odd_y
        if b > POINT:
            odd_y += 1
        if a == UNIT:
            letters.append(b)
        elif b == UNIT:
            letters.append(a)
        elif a ^ 1 == b:  # neither is UNIT, so this is a_k * b_k or b_k * a_k
            letters.append(POINT)
            if a > b:
                flips += 1
        else:
            return None
    return (-1 if flips & 1 else 1), tuple(letters)


def _by_letters(coeffs):
    """The terms grouped by letter tuple: letters -> [(omega, t, coeff)]."""
    groups = {}
    for (letters, omega, t), c in coeffs.items():
        terms = groups.get(letters)
        if terms is None:
            groups[letters] = [(omega, t, c)]
        else:
            terms.append((omega, t, c))
    return groups


class RingElement:
    """Sparse exact-rational combination of tensor-omega-t monomials.

    The constructor takes ownership of a dict monomial -> nonzero
    coefficient, each an int or a Fraction with denominator > 1.
    """

    __slots__ = ("ctx", "_coeffs")

    def __init__(self, ctx: RingContext, coeffs: dict):
        self.ctx = ctx
        self._coeffs = coeffs

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
        return hash((self.ctx, frozenset(self._coeffs.items())))

    def _require_same_ctx(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("elements built against different contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        self._require_same_ctx(other)
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
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _normal(Fraction(other))
            if q == 0:
                return self.ctx.zero()
            return RingElement(self.ctx, {m: _normal(c * q)
                                          for m, c in self._coeffs.items()})
        self._require_same_ctx(other)
        # The letters decide whether a pair of terms survives and with
        # which sign, so that is settled once per pair of letter tuples;
        # only exponent sums and coefficient products run per term pair.
        out = {}
        right = _by_letters(other._coeffs).items()
        for lx, xs in _by_letters(self._coeffs).items():
            for ly, ys in right:
                p = _letters_product(lx, ly)
                if p is None:
                    continue
                sign, letters = p
                for ox, tx, cx in xs:
                    if sign < 0:
                        cx = -cx
                    for oy, ty, cy in ys:
                        if tx and ty:
                            ta, tb = (tx, ty) if len(tx) >= len(ty) else (ty, tx)
                            t = tuple(map(add, ta, tb)) + ta[len(tb):]
                        else:
                            t = tx or ty
                        mono = (letters, tuple(map(add, ox, oy)), t)
                        s = out.get(mono, 0) + cx * cy
                        if s:
                            out[mono] = s
                        else:
                            del out[mono]
        for mono, c in out.items():
            if type(c) is not int and c.denominator == 1:
                out[mono] = c.numerator
        return RingElement(self.ctx, out)

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
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return RingElement(ctx, {m: _normal(c) for m, c in out.items()})


def cohomological_degree(x: RingElement):
    """Degree of a homogeneous element; "inhomogeneous" otherwise, None for 0."""
    degs = {monomial_degree(m) for m in x._coeffs}
    if not degs:
        return None
    if len(degs) > 1:
        return "inhomogeneous"
    return degs.pop()


# -- symmetric-group actions ------------------------------------------------

def _sources(sigma, n):
    """Inverse of the permutation sigma of n positions, as a list."""
    if len(sigma) != n or set(sigma) != set(range(n)):
        raise ValueError("not a permutation of %d factors" % n)
    source = [0] * n
    for i, target in enumerate(sigma):
        source[target] = i
    return source


def _moved_letters(sigma, source, letters, moved):
    """(sign, letters) of a letter tuple moved by sigma, computed once per
    letter tuple in `moved`; the sign is -1 to the number of pairs of odd
    letters whose order sigma reverses."""
    image = moved.get(letters)
    if image is None:
        targets = [sigma[i] for i, c in enumerate(letters) if c > POINT]
        inversions = 0
        for a in range(len(targets)):
            for b in range(a + 1, len(targets)):
                if targets[a] > targets[b]:
                    inversions += 1
        image = moved[letters] = (-1 if inversions % 2 else 1,
                                  tuple([letters[i] for i in source]))
    return image


def permute_factors(sigma, x: RingElement) -> RingElement:
    """Left action of the symmetric group on the factors: the ring
    automorphism sending p_i^*(a) w_i^l to p_{sigma(i)}^*(a) w_{sigma(i)}^l,
    whose invariants realize the image of the quot-scheme cohomology inside
    the complete-flag model.

    sigma is a tuple with sigma[i] = image of (0-based) position i.  The
    letter and the omega exponent of factor i move to factor sigma[i];
    transposing two odd letters costs a sign; t exponents are untouched.
    """
    source = _sources(sigma, x.ctx.factors)
    moved = {}
    out = {}
    # the action is a bijection on monomials, so no two terms meet
    for (letters, omega, t), c in x._coeffs.items():
        sign, nl = _moved_letters(sigma, source, letters, moved)
        if any(omega):  # every twist is omega-free: leave its zeros be
            omega = tuple([omega[i] for i in source])
        out[(nl, omega, t)] = c if sign > 0 else -c
    return RingElement(x.ctx, out)


# The former name of the same action, kept bound because the traced
# benchmark (bench/spans.py) wraps it.
permute_factors_omega = permute_factors


def project_invariant(perms, x: RingElement) -> RingElement:
    """Average of the factor-permutation action over a finite group."""
    perms = list(perms)
    acc = x.ctx.zero()
    for sigma in perms:
        acc = acc + permute_factors(sigma, x)
    return acc * Fraction(1, len(perms))


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
    acc = ctx.pt(i) + ctx.pt(j)
    for k in range(1, ctx.genus + 1):
        letters = [UNIT] * ctx.factors
        letters[i - 1], letters[j - 1] = alpha(k), beta(k)
        acc = acc - ctx.monomial(letters=letters)
        letters = list(letters)
        letters[i - 1], letters[j - 1] = beta(k), alpha(k)
        acc = acc + ctx.monomial(letters=letters)
    return acc


def small_diagonal(ctx: RingContext, subset) -> RingElement:
    """Class of the small diagonal over a subset of factors.

    Computed as the product of pairwise diagonals along the sorted chain;
    any spanning tree of pairwise diagonals gives the same class.  Memoized
    per context; the factors are checked on every call.
    """
    members = tuple(sorted(set(subset)))
    for i in members:
        ctx._check_factor(i)
    key = ("small_diagonal", members)
    got = ctx._memo.get(key)
    if got is None:
        got = ctx.one()
        for a, b in zip(members, members[1:]):
            got = got * diagonal(ctx, a, b)
        ctx._memo[key] = got
    return got


def point_class(ctx: RingContext, subset) -> RingElement:
    """Product of point classes over a subset of factors."""
    acc = ctx.one()
    for i in sorted(set(subset)):
        acc = acc * ctx.pt(i)
    return acc


def omega_degree(x: RingElement):
    """Largest total omega-exponent over the support (None for 0)."""
    if not x._coeffs:
        return None
    return max(sum(m[1]) for m in x._coeffs)


def omega_top_part(x: RingElement) -> RingElement:
    d = omega_degree(x)
    if d is None:
        return x
    return RingElement(x.ctx, {m: c for m, c in x._coeffs.items() if sum(m[1]) == d})


def omega_layers(x: RingElement) -> dict:
    """The terms of x split by omega vector: omega -> the omega-free
    element of the terms carrying w^omega, so x = sum w^omega * layer."""
    zero = (0,) * x.ctx.factors
    layers = {}
    for (letters, omega, t), c in x._coeffs.items():
        layers.setdefault(omega, {})[(letters, zero, t)] = c
    return {omega: RingElement(x.ctx, terms) for omega, terms in layers.items()}


def letter_monomials(ctx: RingContext, degree: int):
    """All letter tuples (no omega, no t) of the given total degree."""
    basis = ctx.curve_basis()
    for letters in itertools.product(basis, repeat=ctx.factors):
        if sum(letter_degree(c) for c in letters) == degree:
            yield letters
