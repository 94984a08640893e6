"""Divisor class arithmetic on the Jacobian, in Mumford coordinates.

A degree-zero divisor class is stored as a pair (a, b) of rational
polynomials: a monic, deg b < deg a <= genus, and a | b^2 - f.  The pair
cuts out the affine support (roots of a, with y-coordinates b(x)); the
class is completed by a multiple of the point at infinity.  The identity
is (1, 0).

Addition is Cantor's algorithm (Cantor, Math. Comp. 48, 1987): compose
the two ideals, then reduce until deg a <= genus.  When the supports are
coprime, as in every step kP + P of a chain of multiples, the composition
takes one cofactor s1 = a1^-1 mod a2 and reads off a3 = a1*a2 and
b3 = b1 + a1*(s1*(b2 - b1) mod a2) by the Chinese remainder theorem; only
supports that share a root (doubling, D + (-D)) take the general formula
with two extended gcds.  Each reduction step forms (f - b^2)/a from its
leading terms alone, since the division is exact.  Negation flips the
sign of b modulo a (the hyperelliptic involution).  Scalar multiples use
binary double-and-add.

check_divisor tests a | b^2 - f over Z[x] rather than with a Fraction
remainder: with e the common denominator of b and A = den*a primitive,
it is A | (e*b)^2 - e^2*f (Gauss's lemma), one long division over Z.
The division's quotient C completes the integral form (A, B, C, e) of
the divisor, B^2 - A*C = e^2*f, which check_divisor returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import OddHyperellipticCurve
from .errors import InvalidDivisorError
from .polyarith import IntPoly, RatPoly, clear_denominators, rat_xgcd


@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced Mumford pair (a, b) for a degree-zero divisor class."""

    a: RatPoly
    b: RatPoly

    def __str__(self):
        return f"({self.a}, {self.b})"


def identity() -> MumfordDivisor:
    return MumfordDivisor(RatPoly.one(), RatPoly.zero())


def from_point(curve: OddHyperellipticCurve, x0, y0) -> MumfordDivisor:
    """Class of P - infinity for an affine point P = (x0, y0)."""
    curve.require_point(x0, y0)
    x0, y0 = Fraction(x0), Fraction(y0)
    return MumfordDivisor(RatPoly((-x0, 1)), RatPoly((y0,)))


def check_divisor(curve: OddHyperellipticCurve,
                  D: MumfordDivisor) -> tuple[IntPoly, IntPoly, IntPoly, int]:
    """Raise InvalidDivisorError unless (a, b) is a reduced Mumford pair;
    return its integral form (A, B, C, e) with B^2 - A*C = e^2*f."""
    a, b = D.a, D.b
    if a.is_zero or a.lc != 1:
        raise InvalidDivisorError(f"a of degree {a.degree} is not monic")
    if a.degree > curve.genus:
        raise InvalidDivisorError(
            f"deg a = {a.degree} exceeds the genus {curve.genus}")
    if not b.is_zero and b.degree >= a.degree:
        raise InvalidDivisorError(f"deg b = {b.degree} is not below deg a")
    # a | b^2 - f in Q[x] iff A | B^2 - e^2 f in Z[x], where B = e*b and
    # A = den*a is primitive (a is monic): Gauss's lemma.  lc A = den > 0,
    # and no prime of e divides every coefficient of B
    e = b.denominator_lcm()
    A = clear_denominators(a)
    B = IntPoly((c * e).numerator for c in b.coeffs)
    try:
        C = (B * B - curve.f * (e * e)).exact_div(A)
    except ValueError:
        raise InvalidDivisorError("a does not divide b^2 - f") from None
    return A, B, C, e


def _inverse_mod(a: RatPoly, m: RatPoly) -> RatPoly | None:
    """s with s*a = 1 mod m, or None when gcd(a, m) != 1.  Euclid on
    (m, a mod m), keeping only the cofactor of a."""
    if m.degree == 0:
        return RatPoly.zero()
    r0, r1 = m, a % m
    s0, s1 = RatPoly.zero(), RatPoly.one()
    while r1.degree > 0:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero:
        return None
    return s1 * (1 / r1.lc)


def _next_a(f: IntPoly, a: RatPoly, b: RatPoly) -> RatPoly:
    """(f - b^2) / a for monic a dividing it.  Only the terms of degree
    >= deg a enter the quotient, so only those are formed."""
    d, ac, bc = a.degree, a.coeffs, b.coeffs
    rem = [0] * max(len(f.coeffs), 2 * len(bc) - 1)
    rem[d:len(f.coeffs)] = f.coeffs[d:]
    for i, x in enumerate(bc):
        for j in range(max(d - i, 0), len(bc)):
            rem[i + j] -= x * bc[j]
    quot = [0] * (len(rem) - d)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + d]
        if c:
            for j in range(max(d - i, 0), d):
                rem[i + j] -= c * ac[j]
    return RatPoly(quot)


def _reduce(curve: OddHyperellipticCurve, a: RatPoly, b: RatPoly) -> MumfordDivisor:
    """Reduce the pair (a, b), a monic and deg b < deg a, until
    deg a <= genus."""
    while a.degree > curve.genus:
        a = _next_a(curve.f, a, b)
        if a.lc != 1:
            a = a.monic()
        b = (-b) % a
    return MumfordDivisor(a, b)


def jac_add(curve: OddHyperellipticCurve, D1: MumfordDivisor,
        D2: MumfordDivisor) -> MumfordDivisor:
    """Sum of two divisor classes by composition and reduction."""
    a1, b1 = D1.a, D1.b
    a2, b2 = D2.a, D2.b
    s1 = _inverse_mod(a1, a2)
    if s1 is not None:
        # coprime supports: b3 = b1 mod a1 and b2 mod a2, by CRT
        return _reduce(curve, a1 * a2, b1 + a1 * ((s1 * (b2 - b1)) % a2))
    f = curve.f.to_rational()
    d1, e1, e2 = rat_xgcd(a1, a2)
    d, c1, c2 = rat_xgcd(d1, b1 + b2)
    a3 = (a1 * a2) // (d * d)
    num = c1 * (e1 * a1 * b2 + e2 * a2 * b1) + c2 * (b1 * b2 + f)
    return _reduce(curve, a3, (num // d) % a3)


def jac_neg(curve: OddHyperellipticCurve, D: MumfordDivisor) -> MumfordDivisor:
    """Image under the hyperelliptic involution, the group inverse."""
    return MumfordDivisor(D.a, (-D.b) % D.a)


def jac_smul(curve: OddHyperellipticCurve, k: int, D: MumfordDivisor) -> MumfordDivisor:
    """k-fold sum of D, double-and-add; negative k negates first."""
    if k < 0:
        return jac_smul(curve, -k, jac_neg(curve, D))
    acc = identity()
    base = D
    while k:
        if k & 1:
            acc = jac_add(curve, acc, base)
        k >>= 1
        if k:
            base = jac_add(curve, base, base)
    return acc
