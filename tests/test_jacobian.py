"""Jacobian group law in Mumford coordinates, checked against an
independent chord-and-tangent oracle on a genus-1 curve."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclass.curve import new_curve
from hyperclass.errors import InvalidDivisorError
from hyperclass.jacobian import (
    MumfordDivisor,
    check_divisor,
    from_point,
    identity,
    jac_add,
    jac_neg,
    jac_smul,
)
from hyperclass.polyarith import IntPoly, RatPoly, rat_xgcd

CURVE = new_curve(IntPoly([-4, 0, 0, 1]))  # y^2 = x^3 - 4
GEN2 = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))  # y^2 = x^5 + x - 1


# --- chord-and-tangent oracle, written against the curve equation only ---

def ct_add(c0, c1, c2, P, Q):
    """Affine addition on y^2 = x^3 + c2 x^2 + c1 x + c0.  None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y1 == -y2:
        return None
    if P == Q:
        lam = Fraction(3 * x1 * x1 + 2 * c2 * x1 + c1, 2 * y1)
    else:
        lam = Fraction(y2 - y1, x2 - x1)
    x3 = lam * lam - c2 - x1 - x2
    y3 = -(y1 + lam * (x3 - x1))
    return (x3, y3)


def ct_mul(c0, c1, c2, k, P):
    acc = None
    for _ in range(k):
        acc = ct_add(c0, c1, c2, acc, P)
    return acc


def mumford_xy(D):
    """Extract the affine point of a degree-1 Mumford pair."""
    if D.a.degree == 0:
        return None
    assert D.a.degree == 1
    x0 = -D.a.coeffs[0]
    return (x0, D.b(x0))


def test_small_multiples_match_chord_tangent():
    P = from_point(CURVE, 2, 2)
    for k in range(0, 9):
        got = mumford_xy(jac_smul(CURVE, k, P))
        want = ct_mul(-4, 0, 0, k, (Fraction(2), Fraction(2)))
        assert got == want


def test_known_multiples():
    P = from_point(CURVE, 2, 2)
    D2 = jac_smul(CURVE, 2, P)
    assert mumford_xy(D2) == (5, -11)
    D3 = jac_smul(CURVE, 3, P)
    assert mumford_xy(D3) == (Fraction(106, 9), Fraction(1090, 27))


def test_add_vs_oracle_mixed_points():
    # combine distinct multiples of the generator pairwise
    P = from_point(CURVE, 2, 2)
    mults = {k: jac_smul(CURVE, k, P) for k in range(1, 6)}
    for i in range(1, 6):
        for j in range(1, 6):
            got = jac_add(CURVE, mults[i], mults[j])
            want = ct_mul(-4, 0, 0, i + j, (Fraction(2), Fraction(2)))
            assert mumford_xy(got) == want


def test_identity_and_inverse():
    P = from_point(CURVE, 2, 2)
    e = identity()
    assert jac_add(CURVE, P, e) == P
    assert jac_add(CURVE, e, P) == P
    assert jac_add(CURVE, P, jac_neg(CURVE, P)) == e
    assert jac_neg(CURVE, e) == e
    assert jac_smul(CURVE, 0, P) == e


def test_neg_flips_sign_of_b():
    P = from_point(CURVE, 2, 2)
    assert jac_neg(CURVE, P) == from_point(CURVE, 2, -2)


def test_smul_negative_k():
    P = from_point(CURVE, 2, 2)
    assert jac_smul(CURVE, -3, P) == jac_neg(CURVE, jac_smul(CURVE, 3, P))


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_smul_is_additive(i, j):
    P = from_point(CURVE, 2, 2)
    lhs = jac_add(CURVE, jac_smul(CURVE, i, P), jac_smul(CURVE, j, P))
    assert lhs == jac_smul(CURVE, i + j, P)


def test_genus2_doubling():
    # Q = (1,1) on y^2 = x^5 + x - 1; doubling lands on a weight-2 divisor
    Q = from_point(GEN2, 1, 1)
    D = jac_smul(GEN2, 2, Q)
    check_divisor(GEN2, D)
    assert D.a.degree == 2
    # b interpolates the two points of the divisor: b^2 = f mod a
    assert (D.b * D.b - GEN2.f.to_rational()) % D.a == RatPoly.zero()
    assert D == MumfordDivisor(
        RatPoly([1, -2, 1]), RatPoly([Fraction(-2), Fraction(3)])
    )


def test_genus2_group_law_consistency():
    Q = from_point(GEN2, 1, 1)
    lhs = jac_add(GEN2, jac_smul(GEN2, 2, Q), jac_smul(GEN2, 3, Q))
    rhs = jac_add(GEN2, jac_smul(GEN2, 4, Q), Q)
    assert lhs == rhs
    assert jac_add(GEN2, lhs, jac_neg(GEN2, lhs)) == identity()


def test_check_divisor_rejects_junk():
    # non-monic a
    with pytest.raises(InvalidDivisorError):
        check_divisor(CURVE, MumfordDivisor(RatPoly([2, 2]), RatPoly([0])))
    # deg b >= deg a
    with pytest.raises(InvalidDivisorError):
        check_divisor(CURVE, MumfordDivisor(RatPoly([-2, 1]), RatPoly([0, 1])))
    # a does not divide b^2 - f
    with pytest.raises(InvalidDivisorError):
        check_divisor(CURVE, MumfordDivisor(RatPoly([-3, 1]), RatPoly([2])))
    # degree above the genus
    with pytest.raises(InvalidDivisorError):
        check_divisor(
            CURVE, MumfordDivisor(RatPoly([0, 0, 1]), RatPoly([0, 0])))


def test_from_point_validates():
    from hyperclass.errors import PointNotOnCurveError

    with pytest.raises(PointNotOnCurveError):
        from_point(CURVE, 3, 3)


# --- the coprime path and the integral divisor check -------------------------

GEN2B = new_curve(IntPoly([1, -1, 0, 0, 0, 1]))  # y^2 = x^5 - x + 1
GEN3 = new_curve(IntPoly([1, -1, 0, 0, 0, 0, 0, 1]))  # y^2 = x^7 - x + 1
# both curves pass through (x, +-1) for x = -1, 0, 1
SMALL_POINTS = [(x, y) for x in (-1, 0, 1) for y in (1, -1)]


def cantor_general(curve, D1, D2):
    """Cantor's composition with both extended gcds, the three-product
    numerator and a full division in each reduction step."""
    f = curve.f.to_rational()
    a1, b1, a2, b2 = D1.a, D1.b, D2.a, D2.b
    d1, e1, e2 = rat_xgcd(a1, a2)
    d, c1, c2 = rat_xgcd(d1, b1 + b2)
    a = (a1 * a2) // (d * d)
    num = c1 * (e1 * a1 * b2 + e2 * a2 * b1) + c2 * (b1 * b2 + f)
    b = (num // d) % a
    while a.degree > curve.genus:
        a = ((f - b * b) // a).monic()
        b = (-b) % a
    return MumfordDivisor(a.monic(), b % a if a.degree > 0 else RatPoly.zero())


def rational_check(curve, D):
    """Whether a | b^2 - f, by the Fraction remainder."""
    return ((D.b * D.b - curve.f.to_rational()) % D.a).is_zero


@pytest.fixture(scope="module")
def multiples():
    """kP for k = 1..112 on y^2 = x^3 - 4, P = (2, 2)."""
    P = from_point(CURVE, 2, 2)
    out = [P]
    for _ in range(111):
        out.append(jac_add(CURVE, out[-1], P))
    return out


def test_multiples_match_chord_tangent_and_general_formula(multiples):
    P = (Fraction(2), Fraction(2))
    want = None
    for k, D in enumerate(multiples[:40], start=1):
        want = ct_add(-4, 0, 0, want, P)
        assert mumford_xy(D) == want, k
    for k in range(1, 112):
        assert multiples[k] == cantor_general(CURVE, multiples[k - 1],
                                              multiples[0]), k


def test_random_pairs_of_multiples_genus1(multiples):
    rng = random.Random(113)
    for _ in range(60):
        i, j = rng.randrange(1, 57), rng.randrange(1, 57)
        Di = multiples[i - 1]
        Dj = multiples[j - 1] if rng.random() < 0.7 \
            else jac_neg(CURVE, multiples[j - 1])
        got = jac_add(CURVE, Di, Dj)
        assert got == cantor_general(CURVE, Di, Dj), (i, j)
        k = i + j if Dj == multiples[j - 1] else i - j
        assert got == (multiples[k - 1] if k > 0 else
                       jac_neg(CURVE, multiples[-k - 1]) if k < 0
                       else identity()), (i, j)


@pytest.mark.parametrize("curve", [GEN2B, GEN3], ids=["genus2", "genus3"])
def test_random_pairs_genus2_and_3(curve):
    pts = [from_point(curve, x, y) for x, y in SMALL_POINTS]
    rng = random.Random(127 + curve.genus)

    def random_divisor():
        D = identity()
        for _ in range(rng.randrange(1, 2 * curve.genus + 2)):
            D = cantor_general(curve, D, rng.choice(pts))
        return D

    for _ in range(40):
        D1, D2 = random_divisor(), random_divisor()
        for E1, E2 in ((D1, D2), (D1, D1), (D1, jac_neg(curve, D1))):
            got = jac_add(curve, E1, E2)
            check_divisor(curve, got)
            assert got == cantor_general(curve, E1, E2)


def test_supports_that_meet():
    # genus 2: a shared root with equal y (a double point) and with
    # opposite y (the pair cancels there), then the identity
    P0, P1 = from_point(GEN2B, 0, 1), from_point(GEN2B, 1, 1)
    P1n, Pm = from_point(GEN2B, 1, -1), from_point(GEN2B, -1, 1)
    D1 = jac_add(GEN2B, P0, P1)
    assert D1.a.degree == 2
    cases = [(D1, jac_add(GEN2B, P1, Pm)), (D1, jac_add(GEN2B, P1n, Pm)),
             (D1, D1), (D1, jac_neg(GEN2B, D1)), (D1, identity()),
             (identity(), D1), (identity(), identity()), (P0, P1)]
    for E1, E2 in cases:
        got = jac_add(GEN2B, E1, E2)
        check_divisor(GEN2B, got)
        assert got == cantor_general(GEN2B, E1, E2)
    assert jac_add(GEN2B, jac_add(GEN2B, D1, jac_add(GEN2B, P1n, Pm)),
                   jac_neg(GEN2B, P0)) == Pm
    assert jac_add(GEN2B, D1, jac_neg(GEN2B, D1)) == identity()


def test_coprime_supports_take_one_cofactor(multiples, monkeypatch):
    # kP + P for k >= 2 has coprime supports: no extended gcd with both
    # cofactors
    import hyperclass.jacobian as jac

    def no_xgcd(p, q):
        raise AssertionError("rat_xgcd on coprime supports")
    monkeypatch.setattr(jac, "rat_xgcd", no_xgcd)
    P, D = multiples[0], multiples[1]
    for k in range(2, 112):
        D = jac_add(CURVE, D, P)
        assert D == multiples[k]
    # doubling shares the whole support and takes the general formula
    with pytest.raises(AssertionError, match="rat_xgcd"):
        jac_add(CURVE, P, P)


def test_check_divisor_accepts_every_multiple(multiples):
    for D in multiples:
        check_divisor(CURVE, D)
    assert multiples[-1].a.coeffs[0].denominator.bit_length() > 4000


def test_check_divisor_rejects_wrong_denominators(multiples):
    # the numerators of a valid pair, over other denominators: a | b^2 - f
    # fails only through the denominators
    D3 = multiples[2]  # (x - 106/9, 1090/27)
    x = RatPoly.x()
    for a, b in ((x - Fraction(106, 9), RatPoly([Fraction(1090, 9)])),
                 (x - Fraction(106, 3), RatPoly([Fraction(1090, 27)])),
                 (x - 106, RatPoly([1090])),
                 (x - Fraction(106, 9), RatPoly([Fraction(1090, 81)]))):
        assert MumfordDivisor(a, b) != D3
        with pytest.raises(InvalidDivisorError, match="does not divide"):
            check_divisor(CURVE, MumfordDivisor(a, b))
    # the integral check against the Fraction remainder: scale the
    # numerator or the denominator of one coefficient of a valid pair
    rng = random.Random(131)
    cases = [(CURVE, D) for D in multiples[:30]]
    pts = [from_point(GEN2B, px, py) for px, py in SMALL_POINTS]
    for _ in range(30):
        D = identity()
        for _ in range(rng.randrange(2, 6)):
            D = jac_add(GEN2B, D, rng.choice(pts))
        cases.append((GEN2B, D))
    rejected = 0
    for curve, D in cases:
        for poly in ("a", "b"):
            p = getattr(D, poly)
            if p.degree < 1 and poly == "a":
                continue
            cs = list(p.coeffs) or [Fraction(0)]
            i = rng.randrange(len(cs) - (poly == "a"))
            s = Fraction(rng.choice((2, 3, 5, 7)))
            cs[i] = cs[i] * s if rng.random() < 0.5 else cs[i] / s
            bad = MumfordDivisor(RatPoly(cs), D.b) if poly == "a" \
                else MumfordDivisor(D.a, RatPoly(cs))
            if rational_check(curve, bad):
                check_divisor(curve, bad)
                continue
            rejected += 1
            with pytest.raises(InvalidDivisorError, match="does not divide"):
                check_divisor(curve, bad)
    assert rejected >= 100
