"""Exact integer, rational, and univariate polynomial arithmetic.

Two coefficient domains are used throughout the package.  IntPoly wraps a
tuple of Python ints, RatPoly a tuple of Fractions.  Both store coefficients
in ascending order of exponent (so p.coeffs[k] multiplies x**k), trim
trailing zeros, and are immutable and hashable.  The degree of the zero
polynomial is NEG_INF, a value that compares below every integer.

Division over Q is one pass of long division over a coefficient list,
which gives the quotient and the remainder together, and Euclid's
remainder sequence over Q serves every elimination: extended gcds,
resultants and discriminants, and Sturm chains.  Beyond ring operations
the module provides the number-theoretic extras the rest of the package
relies on: content and fixed divisor, square-freeness read off the
discriminant, and first_nonnegative, the least integer where a
polynomial turns nonnegative.  That one search answers every sign
question in the package (the curve's negativity bound and each cutoff
of the non-triviality threshold) by bisection on generalised Sturm
counts, which handle repeated roots without a square-free pass and use
no floating point.  Everything here is exact; there is no numerical
fallback.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import InternalInconsistencyError

NEG_INF = float("-inf")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt(residues, moduli) -> int:
    """Combine congruences x = r_i (mod m_i) for pairwise coprime moduli."""
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        g, s, _ = xgcd(m % n, n)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        x += m * (((r - x) * s) % n)
        m *= n
    return x % m


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class _Poly:
    """Ring operations shared by IntPoly and RatPoly.

    A subclass fixes the coefficient type (_coeff) and the scalar types its
    + - * accept besides polynomials of its own class (_scalars).
    """

    __slots__ = ("coeffs",)
    _coeff = int
    _scalars = (int,)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(self._coeff(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else self._coeff(0)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __str__(self):
        return _pretty(self.coeffs)

    def _operand(self, other):
        """other as a polynomial of this class, or None if it is not one."""
        if isinstance(other, self._scalars):
            return type(self)((other,))
        return other if isinstance(other, type(self)) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return type(self)(x + y for x, y in
                          zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(c * other for c in self.coeffs)
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return type(self)()
        out = [self._coeff(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return type(self)(out)

    __rmul__ = __mul__

    def derivative(self):
        return type(self)(k * c for k, c in enumerate(self.coeffs) if k >= 1)


class IntPoly(_Poly):
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ()

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __call__(self, t):
        """Evaluate by Horner; accepts int or Fraction and preserves the type."""
        acc = 0 if isinstance(t, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_rational(self) -> "RatPoly":
        return RatPoly(self.coeffs)

    def content(self) -> int:
        """Positive gcd of the coefficients.  Errors on the zero polynomial."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no content")
        return gcd(*self.coeffs)

    def primitive_part(self) -> "IntPoly":
        """self divided by its content; the leading sign is preserved."""
        c = self.content()
        return IntPoly(v // c for v in self.coeffs)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient self / other in Z[x], by long division over Z;
        raises ValueError unless the quotient is in Z[x] with no remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.lc
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(quot) - 1, -1, -1):
            c, r = divmod(rem[i + d], lc)
            if r:
                raise ValueError("inexact polynomial division")
            quot[i] = c
            for j, oc in enumerate(other.coeffs):
                rem[i + j] -= c * oc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(quot)


class RatPoly(_Poly):
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ()
    _coeff = Fraction
    _scalars = (int, Fraction)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __call__(self, t):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __divmod__(self, other: "RatPoly"):
        """(quotient, remainder), by one pass of long division over a
        coefficient list."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.lc
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = rem[i + d] / lc
            if c:
                for j, oc in enumerate(other.coeffs[:d]):
                    rem[i + j] -= c * oc
        return RatPoly(quot), RatPoly(rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        return self * (1 / self.lc)

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coeffs))


def _pretty(coeffs) -> str:
    """Each term is written "+ t" or "- t", from the highest degree down;
    the leading "+ " then goes, and a leading "- " becomes "-"."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        coef = str(mag) if k == 0 else "" if mag == 1 else f"{mag}*"
        power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        terms.append(("- " if c < 0 else "+ ") + coef + power)
    text = " ".join(terms) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def rat_xgcd(p: RatPoly, q: RatPoly):
    """Extended gcd over Q[x]: (g, s, t) with s*p + t*q = g, g monic (or zero)."""
    old_r, r = p, q
    old_s, s = RatPoly.one(), RatPoly.zero()
    old_t, t = RatPoly.zero(), RatPoly.one()
    while not r.is_zero:
        quo, rem = divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r.is_zero:
        return old_r, old_s, old_t
    inv = 1 / old_r.lc
    return old_r * inv, old_s * inv, old_t * inv


def clear_denominators(p: RatPoly) -> IntPoly:
    """p times the lcm of its coefficient denominators, as an IntPoly."""
    den = p.denominator_lcm()
    return IntPoly((c * den).numerator for c in p.coeffs)


def fixed_divisor(p: IntPoly) -> int:
    """gcd of all values p(n), n in Z.

    The values at 0, 1, ..., deg p already determine it: writing p in the
    binomial basis, those values and the basis coefficients generate the same
    gcd, and every binomial coefficient is integer-valued.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no fixed divisor")
    d = len(p.coeffs) - 1
    g = 0
    for n in range(d + 1):
        g = gcd(g, p(n))
    return g


def is_squarefree(p: IntPoly) -> bool:
    """True when p has no repeated factor (over Q, hence over Z for
    primitive p): for degree at least 1, when its discriminant is nonzero."""
    if p.is_zero:
        raise ValueError("square-freeness is undefined for the zero polynomial")
    return p.degree < 1 or discriminant(p) != 0


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q), from Euclid's remainder sequence over Q: with r = p mod q,
    Res(p, q) = (-1)^(deg p deg q) lc(q)^(deg p - deg r) Res(q, r), and
    Res(p, c) = c^(deg p) for a constant c; it is 0 once a remainder
    vanishes."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    res = Fraction(1)
    a, b = p.to_rational(), q.to_rational()
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return 0
        if a.degree * b.degree % 2:
            res = -res
        res *= b.lc ** (a.degree - r.degree)
        a, b = b, r
    res *= b.lc ** a.degree
    if res.denominator != 1:
        raise InternalInconsistencyError(
            "the resultant of two integer polynomials is not an integer")
    return res.numerator


def discriminant(p: IntPoly) -> int:
    """disc(p) = (-1)^(d(d-1)/2) * Res(p, p') / lc(p), exact in Z."""
    d = p.degree
    if p.is_zero or d < 1:
        raise ValueError("discriminant requires degree at least 1")
    r = resultant(p, p.derivative())
    if (d * (d - 1) // 2) % 2:
        r = -r
    quo, rem = divmod(r, p.lc)
    if rem:
        raise InternalInconsistencyError(
            "leading coefficient must divide the resultant")
    return quo


def _sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Generalised Sturm sequence of p: its negated remainder sequence
    from p and p', each term divided by the last one (the gcd of p and p')
    when that is not constant.  The quotients form a Sturm chain of the
    square-free part of p, so repeated roots need no separate pass.  Each
    term is scaled by a positive integer into Z[x], where it evaluates
    fastest; the scaling keeps every sign."""
    chain = [p.to_rational(), p.derivative().to_rational()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(-rem)
    g = chain[-1]
    if g.degree > 0:
        chain = [h // g for h in chain]
    return [clear_denominators(h) for h in chain]


def _variations(signs) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _var_at(chain, t) -> int:
    return _variations(_sign(h(t)) for h in chain)


def first_nonnegative(p: IntPoly) -> int | None:
    """Least integer m with p(m) >= 0, or None when p is negative at every
    integer.  p must be negative at all sufficiently small integers: odd
    degree with positive leading coefficient, or even degree with negative
    leading coefficient (a negative constant included).

    Exact: the distinct real roots lie strictly within a Fujiwara bound
    of p, and the Sturm counts at integers between -bound and bound locate
    each one by bisection at integer granularity.  The ceiling of each
    root is a candidate, and the least candidate where p >= 0 is the
    answer.
    """
    if p.is_zero or (p.degree % 2 == 1) != (p.lc > 0):
        raise ValueError("need odd degree with positive leading coefficient"
                         " or even degree with negative leading coefficient")
    if p.degree == 0:
        return None
    chain = _sturm_chain(p)
    # every root has |z| <= 2 max_k |c_(d-k)/lc|^(1/k) (Fujiwara), and
    # |c/lc| < 2^(bits(c) - bits(lc) + 1), so |z| < 2^(shift + 1)
    d, lc_bits = p.degree, p.lc.bit_length()
    shift = max((-(-max(0, c.bit_length() - lc_bits + 1) // (d - j))
                 for j, c in enumerate(p.coeffs[:d]) if c), default=0)
    bound = 1 << (shift + 1)
    v_low = _var_at(chain, -bound)
    total = v_low - _var_at(chain, bound)

    def count_leq(t: int) -> int:
        return v_low - _var_at(chain, t)

    lo = -bound
    for i in range(1, total + 1):
        # least integer t with at least i roots <= t, i.e. ceil of the i-th root
        a, b = lo - 1, bound
        while a + 1 < b:
            mid = (a + b) // 2
            if count_leq(mid) >= i:
                b = mid
            else:
                a = mid
        lo = b
        if p(b) >= 0:
            return b
    return None
