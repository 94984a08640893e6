"""Exact polynomial arithmetic: ring laws, gcds, resultants, root localisation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclass.polyarith import (
    NEG_INF,
    IntPoly,
    RatPoly,
    clear_denominators,
    crt,
    discriminant,
    first_nonnegative,
    fixed_divisor,
    is_squarefree,
    rat_xgcd,
    resultant,
    xgcd,
)

int_polys = st.lists(st.integers(-40, 40), min_size=0, max_size=6).map(IntPoly)
rat_coeff = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)
rat_polys = st.lists(rat_coeff, min_size=0, max_size=5).map(RatPoly)


def test_xgcd_bezout():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, s, t = xgcd(a, b)
            assert g == math.gcd(a, b)
            assert s * a + t * b == g


def test_crt_small():
    assert crt([2, 3], [3, 5]) == 8
    assert crt([1], [7]) == 1
    assert crt([], []) == 0
    x = crt([3, 4, 5], [7, 9, 11])
    assert x % 7 == 3 and x % 9 == 4 and x % 11 == 5
    assert 0 <= x < 7 * 9 * 11


def test_intpoly_basics():
    p = IntPoly([-4, 0, 0, 1])  # x^3 - 4
    assert p.degree == 3
    assert p.lc == 1
    assert p(2) == 4
    assert p(0) == -4
    assert str(p) == "x^3 - 4"
    assert IntPoly.zero().degree == NEG_INF
    assert IntPoly.zero().is_zero
    assert IntPoly([0, 0, 0]) == IntPoly.zero()
    assert IntPoly.x() == IntPoly([0, 1])


@pytest.mark.parametrize("coeffs, text", [
    ([], "0"),
    ([0, 0], "0"),
    ([-7], "-7"),
    ([5], "5"),
    ([0, 0, -1], "-x^2"),
    ([3, -1, 0, -7], "-7*x^3 - x + 3"),
    ([-5, 1, -1, 2], "2*x^3 - x^2 + x - 5"),
    ([1, 0, -1, 1], "x^3 - x^2 + 1"),
    ([0, -1], "-x"),
    ([Fraction(-3, 2), 1, Fraction(-1, 3)], "-1/3*x^2 + x - 3/2"),
    ([Fraction(1, 2), 0, Fraction(-5, 4)], "-5/4*x^2 + 1/2"),
    ([Fraction(-1), Fraction(-1)], "-x - 1"),
])
def test_printed_polynomials(coeffs, text):
    cls = RatPoly if any(isinstance(c, Fraction) for c in coeffs) else IntPoly
    assert str(cls(coeffs)) == text


def test_intpoly_trailing_zeros_trimmed():
    assert IntPoly([1, 2, 0, 0]).degree == 1
    assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])


@given(int_polys, int_polys, int_polys)
@settings(max_examples=150)
def test_int_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + IntPoly.zero() == p
    assert p * IntPoly.one() == p
    assert p - p == IntPoly.zero()


@given(int_polys, st.integers(-10, 10))
@settings(max_examples=100)
def test_eval_is_ring_hom(p, t):
    q = IntPoly([3, -1, 2])
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)


def test_derivative():
    p = IntPoly([1, -3, 0, 5])  # 5x^3 - 3x + 1
    assert p.derivative() == IntPoly([-3, 0, 15])
    assert IntPoly([7]).derivative().is_zero


def test_content_and_primitive_part():
    p = IntPoly([6, -9, 12])
    assert p.content() == 3
    assert p.primitive_part() == IntPoly([2, -3, 4])
    with pytest.raises(ValueError):
        IntPoly.zero().content()
    # sign: primitive part keeps the sign of the input
    q = IntPoly([-6, 9, -12])
    assert q.primitive_part() == IntPoly([-2, 3, -4])


def test_exact_div():
    p = IntPoly([-8, 0, 0, 1])
    a = IntPoly([-2, 1])
    q = p.exact_div(a)
    assert q * a == p
    assert q == IntPoly([4, 2, 1])
    with pytest.raises(ValueError):
        IntPoly([1, 1]).exact_div(IntPoly([0, 1]))


@given(int_polys, int_polys, int_polys)
@settings(max_examples=200)
def test_exact_div_matches_rational_division(p, q, r):
    # oracle: division in Q[x], whose quotient must be integral and whose
    # remainder must vanish; p * q + r is exact only when r is a multiple
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.exact_div(q)
        return
    n = p * q + r
    quo, rem = divmod(n.to_rational(), q.to_rational())
    if rem.is_zero and all(c.denominator == 1 for c in quo.coeffs):
        assert n.exact_div(q) == IntPoly(c.numerator for c in quo.coeffs)
    else:
        with pytest.raises(ValueError):
            n.exact_div(q)
    assert (p * q).exact_div(q) == p


@given(rat_polys, rat_polys)
@settings(max_examples=120)
def test_ratpoly_divmod(p, q):
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


@given(rat_polys, rat_polys)
@settings(max_examples=80)
def test_rat_xgcd_bezout(p, q):
    g, s, t = rat_xgcd(p, q)
    assert s * p + t * q == g
    if not g.is_zero:
        assert g.lc == 1


def test_clear_denominators():
    p = RatPoly([Fraction(1, 6), Fraction(-2, 3)])
    q = clear_denominators(p)
    assert q == IntPoly([1, -4])


def test_denominator_lcm():
    p = RatPoly([Fraction(1, 6), Fraction(-2, 3), Fraction(5)])
    assert p.denominator_lcm() == 6
    assert RatPoly.zero().denominator_lcm() == 1


def test_fixed_divisor():
    # x(x+1) is always even
    assert fixed_divisor(IntPoly([0, 1, 1])) == 2
    # x(x+1)(x+2) divisible by 6
    assert fixed_divisor(IntPoly([0, 2, 3, 1])) == 6
    assert fixed_divisor(IntPoly([-4, 0, 0, 1])) == 1
    assert fixed_divisor(IntPoly([6])) == 6
    # 2*binomial(x,2) style: x^2+x over gcd with scaled content
    assert fixed_divisor(IntPoly([0, 3, 3])) == 6


@given(int_polys, st.integers(-20, 20))
@settings(max_examples=100)
def test_fixed_divisor_divides_values(p, t):
    if p.is_zero:
        return
    assert p(t) % fixed_divisor(p) == 0


def test_resultant_known_values():
    # res(x^2+1, x^2-1) = 4
    assert resultant(IntPoly([1, 0, 1]), IntPoly([-1, 0, 1])) == 4
    # res(x-a, x-b) = b-a ... with our row convention res(x-2, x-5) = (2-5)? check both orders multiply to product over roots
    r1 = resultant(IntPoly([-2, 1]), IntPoly([-5, 1]))
    assert abs(r1) == 3
    # res(p, q) = lc(q)^deg p * prod q-roots evaluated in p: degree-0 edge cases
    assert resultant(IntPoly([7]), IntPoly([1, 2, 3])) == 49
    assert resultant(IntPoly([1, 2, 3]), IntPoly([7])) == 49
    assert resultant(IntPoly([5]), IntPoly([3])) == 1
    with pytest.raises(ValueError):
        resultant(IntPoly.zero(), IntPoly([1, 1]))


@given(int_polys, int_polys, int_polys)
@settings(max_examples=60)
def test_resultant_multiplicative(p, q, r):
    if p.is_zero or q.is_zero or r.is_zero:
        return
    assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


@given(int_polys, int_polys)
@settings(max_examples=60)
def test_resultant_zero_iff_common_factor(p, q):
    if p.is_zero or q.is_zero:
        return
    shares = rat_xgcd(p.to_rational(), q.to_rational())[0].degree >= 1
    assert (resultant(p, q) == 0) == shares


def test_discriminant_values():
    # disc(x^2+bx+c) = b^2-4c
    assert discriminant(IntPoly([3, 1, 1])) == 1 - 12
    # disc(x^3+px+q) = -4p^3-27q^2
    assert discriminant(IntPoly([-4, 0, 0, 1])) == -27 * 16
    assert discriminant(IntPoly([-1, -1, 0, 1])) == -4 * (-1) ** 3 - 27
    # repeated root -> 0
    assert discriminant(IntPoly([1, 2, 1])) == 0


def test_is_squarefree():
    assert is_squarefree(IntPoly([-4, 0, 0, 1]))
    assert is_squarefree(IntPoly([0, -1, 0, 0, 0, 1]))
    assert not is_squarefree(IntPoly([1, 2, 1]))
    assert not is_squarefree(IntPoly([0, 0, 1]))


@given(int_polys, st.lists(st.integers(-9, 9), max_size=3).map(IntPoly))
@settings(max_examples=100)
def test_is_squarefree_matches_gcd_with_derivative(p, q):
    # p * q^2 has a repeated factor whenever q is not constant; a
    # nonzero constant is square-free, the zero polynomial is refused
    for r in (p, p * q * q):
        if r.is_zero:
            with pytest.raises(ValueError):
                is_squarefree(r)
            continue
        g = rat_xgcd(r.to_rational(), r.derivative().to_rational())[0]
        assert is_squarefree(r) == (g.degree == 0), r


def test_first_nonnegative_examples():
    assert first_nonnegative(IntPoly([-4, 0, 0, 1])) == 2
    assert first_nonnegative(IntPoly([0, -1, 0, 1])) == -1
    assert first_nonnegative(IntPoly([1, 0, 0, 1])) == -1
    assert first_nonnegative(IntPoly([-1, 1, 0, 0, 0, 1])) == 1
    # huge coefficients stay exact
    big = IntPoly([-(10**30), 0, 0, 1])
    m = first_nonnegative(big)
    assert big(m) >= 0 > big(m - 1)


@given(st.lists(st.integers(-50, 50), min_size=0, max_size=5), st.integers(1, 9))
@settings(max_examples=80)
def test_first_nonnegative_is_minimal(low, lead):
    # pad so the leading term always lands on an odd power
    p = IntPoly(low + [0] * (5 - len(low)) + [lead])
    m = first_nonnegative(p)
    assert p(m) >= 0
    assert p(m - 1) < 0


def test_first_nonnegative_edge_cases():
    assert first_nonnegative(IntPoly([-5])) is None
    # a double root is found by the one Sturm search, no square-free pass
    x3 = IntPoly([3, 1])
    assert first_nonnegative(x3 * x3 * IntPoly([-1, 1])) == -3
    assert first_nonnegative(-(x3 * x3)) == -3
    assert first_nonnegative(IntPoly([-1, 0, -1])) is None
    for bad in (IntPoly.zero(), IntPoly([5]), IntPoly([0, -1]),
                IntPoly([0, 0, 1])):
        with pytest.raises(ValueError):
            first_nonnegative(bad)


def _random_factored(rng):
    """A seeded product of small real and complex factors, some repeated,
    with every real root in [-12, 12]."""
    p = IntPoly([rng.randint(1, 5)])
    for _ in range(rng.randint(0, 4)):
        lin = IntPoly([rng.randint(-12, 12), rng.randint(1, 3)])
        for _ in range(rng.choice((1, 1, 2, 3))):
            p = p * lin
    if rng.random() < 0.4:
        p = p * IntPoly([rng.randint(1, 9), rng.randint(-3, 3), 1])
    return p


def test_first_nonnegative_matches_scan():
    rng = random.Random(20261018)
    seen_none = 0
    for _ in range(200):
        p = _random_factored(rng)
        # both admissible sign patterns: odd degree with a positive lead,
        # even degree with a negative one
        if (p.degree % 2 == 1) != (p.lc > 0):
            p = -p
        # beyond [-13, 13] the sign no longer changes
        scan = next((t for t in range(-13, 14) if p(t) >= 0), None)
        assert first_nonnegative(p) == scan, p
        seen_none += scan is None
    assert seen_none > 0
