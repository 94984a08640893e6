"""Denominator-controlled integral form of a Mumford divisor.

A reduced Mumford pair (a, b) has rational coefficients.  Scaling a to a
primitive integer polynomial A and clearing the denominator e of b gives
the integral data (A, B, C, e) with B^2 - A*C = e^2 * f as polynomials:
the rational quadratic form [A/e, 2B/e, C/e] has discriminant 4f and the
triple can be evaluated at integers without leaving Z.  check_divisor
computes that data while it checks the divisor (C is the quotient of its
one exact division), and to_alt_mumford wraps it.  This module also
normalises specialised values so the leading entry becomes coprime to e
(a unimodular shift), derives the congruence class of n on which that
coprimality is automatic, and computes the threshold below which the
specialised forms are provably far from the principal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .curve import OddHyperellipticCurve
from .errors import (
    BadDegreeError,
    DegreeTooLargeError,
    InternalInconsistencyError,
    NotPrimitiveError,
)
from .jacobian import MumfordDivisor, check_divisor
from .polyarith import (
    IntPoly,
    crt,
    first_nonnegative,
    fixed_divisor,
)
from .quadring import FACTOR_BOUND, factorint


@dataclass(frozen=True)
class AltMumfordForm:
    """Integral triple (A, B, C) with denominator e: B^2 - A*C = e^2 * f."""

    A: IntPoly
    B: IntPoly
    C: IntPoly
    e: int


FORM_CACHE = 16


@lru_cache(maxsize=FORM_CACHE)
def to_alt_mumford(curve: OddHyperellipticCurve,
                   D: MumfordDivisor) -> AltMumfordForm:
    """Integral representation of a reduced Mumford pair.

    A is the primitive integer multiple of a with positive leading term,
    e the least positive denominator with B = e*b integral, and C the
    exact cofactor (B^2 - e^2 f)/A: the quotient of check_divisor's one
    division, so B^2 - A*C = e^2 * f holds by construction.  The result
    is unique, so it is cached on the frozen (curve, D) pair.  An invalid
    divisor is not cached.
    """
    return AltMumfordForm(*check_divisor(curve, D))


def coprime_shift(a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """Shift the value form [a, 2b, c] so its leading entry is coprime to e.

    For gcd(a, 2b, c) = 1 there is a factorisation e = e1*e2 with
    gcd(e1, e2) = 1, gcd(a, e1) = 1, every prime of e2 dividing a, and
    gcd(c, e2) = 1; the unimodular substitution (X, Y) -> (X, e1*X + Y)
    turns the form into [a + 2*e1*b + e1^2*c, 2*(b + e1*c), c] whose
    leading entry is coprime to e.  Returns (a', b'); c is unchanged.

    Raises NotPrimitiveError when gcd(a, 2b, c) != 1.
    """
    content = gcd(gcd(a, 2 * b), c)
    if content != 1:
        # the entries can be far too long to print; give the size only
        raise NotPrimitiveError(
            f"value form is imprimitive: its content has "
            f"{content.bit_length()} bits")
    if e == 1 or gcd(a, e) == 1:
        return a, b
    # e1 = e stripped of every prime that divides a
    e1 = e
    while (g := gcd(e1, a)) > 1:
        e1 //= g
    a2 = a + 2 * e1 * b + e1 * e1 * c
    b2 = b + e1 * c
    if gcd(a2, e) != 1:
        raise InternalInconsistencyError(
            f"shifted leading entry of {a2.bit_length()} bits still shares "
            f"a factor with e of {e.bit_length()} bits")
    return a2, b2


@dataclass(frozen=True)
class CongruenceData:
    """Congruence class of n making gcd(A(n)/d_L, e) = 1 automatic.

    d_L = gcd(fixed_divisor(A), e); the modulus is a product over the
    primes p of e, and every n = N_L (mod modulus) has A(n)/d_L coprime
    to e.
    """

    d_L: int
    modulus: int
    N_L: int


def congruence_data(form: AltMumfordForm,
                    factor_bound: int = FACTOR_BOUND) -> CongruenceData:
    """Find (d_L, modulus, N_L) for the leading polynomial of the form.

    For each prime p | e the residue r_p is found by scanning; A(n)/d_L
    mod p is a function of n modulo p^(v_p(d_L)+1), so that power is the
    per-prime modulus (it reduces to p itself whenever p does not divide
    d_L).  The residues are combined by the Chinese remainder theorem.

    Raises InternalInconsistencyError when some p divides A(n)/d_L for
    every n, which would contradict d_L being the e-part of the fixed
    divisor of A.
    """
    A, e = form.A, form.e
    if e == 1:
        return CongruenceData(d_L=1, modulus=1, N_L=0)
    d_L = gcd(fixed_divisor(A), e)
    residues = []
    moduli = []
    for p, _ in sorted(factorint(e, factor_bound).items()):
        w = 0
        dd = d_L
        while dd % p == 0:
            dd //= p
            w += 1
        mod_p = p ** (w + 1)
        found = None
        for r in range(mod_p):
            if (A(r) // d_L) % p != 0:
                found = r
                break
        if found is None:
            raise InternalInconsistencyError(
                f"A(n)/{d_L} is divisible by {p} for every n; the fixed "
                f"divisor of A must then exceed d_L * (e-part)")
        residues.append(found)
        moduli.append(mod_p)
    modulus = 1
    for m in moduli:
        modulus *= m
    return CongruenceData(d_L=d_L, modulus=modulus, N_L=crt(residues, moduli))


def nontriviality_threshold(h: IntPoly, M: int,
                            curve: OddHyperellipticCurve) -> int:
    """Largest N <= negativity bound with, for every n <= N:
    |h(n)| > M, h(n) + f(n) < 0 and -h(n) + f(n) < 0.

    Below this threshold no integral form [u, 2v, w] of discriminant
    4 f(n) with M <= |u| <= |h(n)| and |u| minimal in its class can be
    principal, because the principal form represents 1 and these forms
    do not represent anything that small.

    Each condition fails first where a polynomial turns nonnegative:
    f + h, f - h and M^2 - h^2.  One exact Sturm search (first_nonnegative)
    finds each of those integers, in time polynomial in the coefficients'
    size, so N is exact however far out the roots of h lie.

    Raises DegreeTooLargeError when deg h >= deg f and BadDegreeError
    when h is constant (both bounds need |h| to grow, but slower than f).
    """
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    f = curve.f
    if h.is_zero or h.degree < 1:
        raise BadDegreeError("h must be nonconstant")
    if h.degree >= f.degree:
        raise DegreeTooLargeError(
            f"deg h = {h.degree} must be below deg f = {f.degree}")
    cutoffs = [curve.negativity_bound]
    # first integer where f + h or f - h turns nonnegative, and where |h|
    # dips to M or below, if it ever does
    cutoffs.append(first_nonnegative(f + h) - 1)
    cutoffs.append(first_nonnegative(f - h) - 1)
    dip = first_nonnegative(IntPoly((M * M,)) - h * h)
    if dip is not None:
        cutoffs.append(dip - 1)
    return min(cutoffs)
