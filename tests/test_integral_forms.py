"""Integral form of a Mumford divisor, the coprime shift, congruence
classes, and the nontriviality threshold."""

import math
import random
import time
from fractions import Fraction

import pytest

from hyperclass.curve import new_curve
from hyperclass.errors import (
    BadDegreeError,
    DegreeTooLargeError,
    NotPrimitiveError,
)
from hyperclass.integral_forms import (
    AltMumfordForm,
    CongruenceData,
    congruence_data,
    coprime_shift,
    nontriviality_threshold,
    to_alt_mumford,
)
from hyperclass.jacobian import (
    MumfordDivisor,
    check_divisor,
    from_point,
    identity,
    jac_add,
    jac_neg,
    jac_smul,
)
from hyperclass import polyarith
from hyperclass.polyarith import (
    IntPoly,
    RatPoly,
    clear_denominators,
    fixed_divisor,
)

CURVE = new_curve(IntPoly([-4, 0, 0, 1]))
GEN2 = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))


def test_identity_form():
    F = to_alt_mumford(CURVE, identity())
    assert F.A == IntPoly([1])
    assert F.B == IntPoly.zero()
    assert F.C == -CURVE.f
    assert F.e == 1


def test_point_form():
    F = to_alt_mumford(CURVE, from_point(CURVE, 2, 2))
    assert F.A == IntPoly([-2, 1])
    assert F.B == IntPoly([2])
    assert F.C == IntPoly([-4, -2, -1])
    assert F.e == 1


def test_triple_point_form():
    # 3 * (2,2) has x-coordinate 106/9 and denominator 27 on b
    D = jac_smul(CURVE, 3, from_point(CURVE, 2, 2))
    F = to_alt_mumford(CURVE, D)
    assert F.A == IntPoly([-106, 9])
    assert F.B == IntPoly([1090])
    assert F.C == IntPoly([-11236, -954, -81])
    assert F.e == 27
    assert math.gcd(F.e, F.B.content()) == 1


def test_form_discriminant_identity():
    for k in range(1, 8):
        D = jac_smul(CURVE, k, from_point(CURVE, 2, 2))
        F = to_alt_mumford(CURVE, D)
        assert F.B * F.B - F.A * F.C == CURVE.f * (F.e * F.e)


def test_genus2_form():
    D = jac_smul(GEN2, 2, from_point(GEN2, 1, 1))
    F = to_alt_mumford(GEN2, D)
    assert F.A.degree == 2
    assert F.A.lc > 0
    assert F.A.content() == 1


def test_round_trip_scaling():
    # A/e recovers a up to the integer scaling lambda = lc(A)/denominator
    D = jac_smul(CURVE, 3, from_point(CURVE, 2, 2))
    F = to_alt_mumford(CURVE, D)
    lam = Fraction(F.A.lc)  # a is monic, so lambda is just lc(A)
    assert F.A.to_rational() == D.a * lam
    assert F.B.to_rational() == D.b * F.e


def test_idempotent_uniqueness():
    # rebuilding the divisor from the rational form and converting again
    # reproduces the identical integral form
    for k in (1, 2, 3, 5):
        D = jac_smul(CURVE, k, from_point(CURVE, 2, 2))
        F = to_alt_mumford(CURVE, D)
        a2 = F.A.to_rational().monic()
        b2 = F.B.to_rational() * Fraction(1, F.e)
        b2 = b2 % a2 if a2.degree >= 1 else RatPoly.zero()
        F2 = to_alt_mumford(CURVE, MumfordDivisor(a2, b2))
        assert F2 == F


# --- one construction: the form is check_divisor's division ----------------

GEN3 = new_curve(IntPoly([1, -1, 0, 0, 0, 0, 0, 1]))  # y^2 = x^7 - x + 1


def three_step_form(curve, D):
    """The integral form built apart from to_alt_mumford, so that each
    invariant of the form holds by its construction: check_divisor
    bounds deg a by the genus and deg b below deg a; A is the primitive
    multiple of a with a positive leading term; e is the lcm of b's
    denominators, so no prime of e divides every coefficient of B = e*b
    and B = 0 gives e = 1; and C is an exact division, so
    B^2 - A*C = e^2 * f."""
    check_divisor(curve, D)
    A = clear_denominators(D.a).primitive_part()
    if A.lc < 0:
        A = -A
    e = D.b.denominator_lcm()
    B = clear_denominators(D.b)
    C = (B * B - curve.f * (e * e)).exact_div(A)
    return AltMumfordForm(A=A, B=B, C=C, e=e)


def multiples_of(curve, P, ks):
    out, D = {}, identity()
    for k in range(max(ks) + 1):
        out[k] = D
        D = jac_add(curve, D, P)
    return [out[k] if k >= 0 else jac_neg(curve, out[-k]) for k in ks]


def random_sums_genus3(count):
    pts = [from_point(GEN3, x, y) for x in (-1, 0, 1) for y in (1, -1)]
    rng = random.Random(139)
    out = []
    for _ in range(count):
        D = identity()
        for _ in range(rng.randrange(1, 8)):
            D = jac_add(GEN3, D, rng.choice(pts))
        out.append(D)
    return out


@pytest.mark.parametrize("curve, divisors", [
    (CURVE, lambda: multiples_of(CURVE, from_point(CURVE, 2, 2),
                                 range(1, 113))),
    (GEN2, lambda: multiples_of(GEN2, from_point(GEN2, 1, 1),
                                range(-40, 41))),
    (GEN3, lambda: random_sums_genus3(60)),
], ids=["genus1-kP", "genus2-kP", "genus3-sums"])
def test_form_matches_the_three_step_construction(curve, divisors):
    degrees = set()
    for D in divisors():
        F = to_alt_mumford(curve, D)
        assert F == three_step_form(curve, D), D
        degrees.add(F.A.degree)
    assert max(degrees) == curve.genus


def test_coprime_shift_noop_cases():
    assert coprime_shift(5, 3, 2, 1) == (5, 3)
    assert coprime_shift(2, 1, 13, 5) == (2, 1)  # gcd(2,5)=1 already


def test_coprime_shift_example():
    # [25, 10, 2] of discriminant -100 = 4 * 25 * (-1), e = 5
    a2, b2 = coprime_shift(25, 5, 2, 5)
    assert (a2, b2) == (37, 7)
    assert math.gcd(37, 5) == 1
    # equivalent form: discriminant is preserved
    assert b2 * b2 - a2 * 2 == 25 - 25 * 2


def test_coprime_shift_rejects_imprimitive():
    with pytest.raises(NotPrimitiveError):
        coprime_shift(2, 1, 2, 2)  # [2,2,2]


def test_coprime_shift_preserves_disc_and_primitivity():
    import random

    rng = random.Random(61)
    seen = 0
    while seen < 300:
        a = rng.randrange(1, 400)
        b = rng.randrange(-200, 200)
        e = rng.randrange(1, 30)
        # c from the discriminant relation b^2 - ac = e^2 * fval, fval < 0
        fval = -rng.randrange(1, 50)
        num = b * b - e * e * fval
        if num % a:
            continue
        c = num // a
        if math.gcd(math.gcd(a, 2 * b), c) != 1:
            continue
        a2, b2 = coprime_shift(a, b, c, e)
        assert math.gcd(a2, e) == 1
        assert b2 * b2 - a2 * c == b * b - a * c
        assert math.gcd(math.gcd(a2, 2 * b2), c) == 1
        seen += 1


def test_congruence_data_e1():
    F = to_alt_mumford(CURVE, from_point(CURVE, 2, 2))
    cd = congruence_data(F)
    assert cd == CongruenceData(d_L=1, modulus=1, N_L=0)


def test_congruence_data_triple_point():
    D = jac_smul(CURVE, 3, from_point(CURVE, 2, 2))
    cd = congruence_data(to_alt_mumford(CURVE, D))
    assert (cd.d_L, cd.modulus, cd.N_L) == (1, 3, 0)
    # defining property on a window of congruent n
    A = IntPoly([-106, 9])
    for n in range(0, -300, -3):
        assert math.gcd(A(n), 27) == 1


def test_congruence_data_A_is_x_e_2():
    F = AltMumfordForm(IntPoly([0, 1]), IntPoly([1]), IntPoly([1]), 2)
    cd = congruence_data(F)
    assert (cd.d_L, cd.modulus, cd.N_L) == (1, 2, 1)


def test_congruence_data_even_fixed_divisor():
    # A = x^2 + x has content 1 but fixed divisor 2.  With e = 2 the residue
    # class must be taken mod 4, not mod 2: A(1)/2 = 1 is odd but A(3)/2 = 6
    # is even, so "n odd" alone does not make A(n)/2 coprime to e.
    F = AltMumfordForm(IntPoly([0, 1, 1]), IntPoly([1]), IntPoly([1]), 2)
    cd = congruence_data(F)
    assert (cd.d_L, cd.modulus, cd.N_L) == (2, 4, 1)
    A = IntPoly([0, 1, 1])
    assert (A(3) // 2) % 2 == 0  # the residue the coarser modulus would admit
    for k in range(200):
        n = 1 + 4 * k
        assert math.gcd(A(n) // 2, 2) == 1
        n = 1 - 4 * k
        assert math.gcd(A(n) // 2, 2) == 1


def test_congruence_property_random_window():
    # 100 congruent n below the bound keep A(n)/d_L coprime to e
    D = jac_smul(CURVE, 3, from_point(CURVE, 2, 2))
    F = to_alt_mumford(CURVE, D)
    cd = congruence_data(F)
    n = CURVE.negativity_bound
    while n % cd.modulus != cd.N_L % cd.modulus:
        n -= 1
    checked = 0
    while checked < 100:
        assert math.gcd(F.A(n) // cd.d_L, F.e) == 1
        n -= cd.modulus
        checked += 1


def test_threshold_examples():
    assert nontriviality_threshold(IntPoly([-2, 1]), 1, CURVE) == 0
    curve2 = new_curve(IntPoly([0, -1, 0, 1]))  # x^3 - x
    assert nontriviality_threshold(IntPoly([0, 1]), 2, curve2) == -3


def test_threshold_defining_property():
    h = IntPoly([-2, 1])
    N = nontriviality_threshold(h, 1, CURVE)
    f = CURVE.f
    for n in range(N, N - 50, -1):
        assert abs(h(n)) > 1
        assert h(n) + f(n) < 0
        assert -h(n) + f(n) < 0
    # N is the largest such integer: one step up breaks some condition
    n = N + 1
    assert (abs(h(n)) <= 1 or h(n) + f(n) >= 0 or -h(n) + f(n) >= 0
            or n > CURVE.negativity_bound)


def _window_threshold(h, M, curve):
    """nontriviality_threshold by its former method: scan every integer
    within the Cauchy bound of f + h, f - h and M^2 - h^2 for the first
    one where the polynomial is nonnegative."""
    cutoffs = [curve.negativity_bound]
    for q in (curve.f + h, curve.f - h, IntPoly((M * M,)) - h * h):
        bound = 2 + max(abs(c) for c in q.coeffs) // abs(q.lc)
        hits = [t for t in range(-bound, bound + 1) if q(t) >= 0]
        if hits:
            cutoffs.append(min(hits) - 1)
    return min(cutoffs)


def test_threshold_matches_window_scan():
    rng = random.Random(12)
    curves = (CURVE, new_curve(IntPoly([0, -1, 0, 1])), GEN2,
              new_curve(IntPoly([3, -5, 0, 0, 0, 1])))
    for _ in range(500):
        curve = rng.choice(curves)
        low = [rng.randint(-9, 9) for _ in range(rng.randint(1, curve.genus))]
        h = IntPoly(low + [rng.choice((-2, -1, 1, 2))])
        M = rng.randint(1, 12)
        assert (nontriviality_threshold(h, M, curve)
                == _window_threshold(h, M, curve)), (h, M, curve)


def test_threshold_far_roots_are_fast():
    # A's root x(13P) is about 2031, so the Cauchy bound of M^2 - A^2
    # spans about 2 * x(13P)^2 = 8 * 10^6 integers; a scan took seconds
    F = to_alt_mumford(CURVE, jac_smul(CURVE, 13, from_point(CURVE, 2, 2)))
    start = time.perf_counter()
    N = nontriviality_threshold(F.A, congruence_data(F).d_L, CURVE)
    assert time.perf_counter() - start < 1.0
    assert N == -1052807601738075
    # y^2 = x^3 + 2000001 through (10000, 1000001): A = x - 10000
    bigx = new_curve(IntPoly([2000001, 0, 0, 1]))
    F = to_alt_mumford(bigx, from_point(bigx, 10000, 1000001))
    assert nontriviality_threshold(F.A, 1, bigx) == -127


def test_threshold_cutoffs_take_few_chain_evaluations(monkeypatch):
    # the Sturm bisection starts from a Fujiwara bound on the roots, read
    # off bit lengths: the cutoffs at 40(2, 2) take about 1056 evaluations
    F = to_alt_mumford(CURVE, jac_smul(CURVE, 40, from_point(CURVE, 2, 2)))
    M = math.gcd(fixed_divisor(F.A), F.e)
    calls = []
    var_at = polyarith._var_at

    def counted(chain, t):
        calls.append(t)
        return var_at(chain, t)
    monkeypatch.setattr(polyarith, "_var_at", counted)
    N = nontriviality_threshold(F.A, M, CURVE)
    assert len(calls) <= 1100
    assert len(str(-N)) == 157 and -N % 10 ** 9 == 225325054


def test_threshold_errors():
    with pytest.raises(BadDegreeError):
        nontriviality_threshold(IntPoly([1]), 1, CURVE)
    with pytest.raises(DegreeTooLargeError):
        nontriviality_threshold(IntPoly([0, 0, 0, 2]), 1, CURVE)
    with pytest.raises(ValueError):
        nontriviality_threshold(IntPoly([0, 1]), 0, CURVE)
