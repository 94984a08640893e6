"""The class-number count over a against an independent count over b.

class_number_by_b is the sieve that counted class numbers before the
count over a: it reads each reduced form off a factorisation of the
principal form's value at its middle coefficient b.  It shares only
primes_up_to and sqrt_mod with the code under test, and it counts the
primitive forms of any discriminant directly, with no conductor formula.
"""

import random
from math import gcd, isqrt

from hyperclass.curve import new_curve
from hyperclass.jacobian import from_point
from hyperclass.polyarith import IntPoly
from hyperclass.quadring import (
    class_number_disc,
    class_number_from_conductor,
    conductor_data,
    primes_up_to,
    sqrt_mod,
    square_part,
)
from hyperclass.specialize import scan


def class_number_by_b(disc: int) -> int:
    """Number of classes of primitive positive-definite forms of disc < 0.

    Counts the reduced forms (a, b, c): for each middle coefficient
    b = s + 2i <= sqrt(-disc/3), s the parity of disc, a runs over the
    divisors of N(b) = (b^2 - disc)/4 = a*c in [max(b, 1), sqrt(N)].  The
    boundary cases are counted once and the interior pairs (b, -b) twice.
    The values N(b) = i^2 + s*i + (s - disc)/4 of the principal form are
    factored together by a sieve over the primes p <= sqrt(-disc/3): p
    divides N(b) exactly when b = +-sqrt(disc) mod p.  Since N(b) <=
    -disc/3, what the sieve leaves of each value is 1 or one prime.
    """
    s = disc % 2
    b_max = isqrt(-disc // 3)
    size = (b_max - s) // 2 + 1
    c0 = (s - disc) // 4
    values = [i * i + s * i + c0 for i in range(size)]
    rest = values[:]
    factors = [[] for _ in range(size)]
    for p in primes_up_to(b_max):
        if p == 2:
            # N(b + 4) - N(b) is even, so the parity of N(b) follows i's
            starts = {i for i in (0, 1) if i < size and values[i] % 2 == 0}
        else:
            r = sqrt_mod(disc, p)
            if r is None:
                continue
            half = (p + 1) // 2     # the inverse of 2 mod p
            starts = {(r - s) * half % p, (-r - s) * half % p}
        for start in starts:
            for i in range(start, size, p):
                x, e = rest[i] // p, 1
                while x % p == 0:
                    x, e = x // p, e + 1
                rest[i] = x
                factors[i].append((p, e))
    count = 0
    for i in range(size):
        b, N = s + 2 * i, values[i]
        lo, hi = max(b, 1), isqrt(N)
        if hi < lo:
            continue
        if rest[i] > 1:
            factors[i].append((rest[i], 1))
        divisors = [1]
        for p, e in factors[i]:
            layer = divisors
            for _ in range(e):
                layer = [d * p for d in layer if d * p <= hi]
                divisors += layer
        for a in divisors:
            if a < lo:
                continue
            c = N // a
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 2 if 0 < b < a < c else 1
    return count


def is_fundamental(disc: int) -> bool:
    if disc % 4 == 1:
        return square_part(disc) == 1
    return disc % 16 in (8, 12) and square_part(disc // 4) == 1


def test_every_small_discriminant():
    # fundamental or not: the non-fundamental ones take the conductor route
    for disc in range(-3, -3001, -1):
        if disc % 4 in (0, 1):
            assert class_number_disc(disc) == class_number_by_b(disc), disc


def test_random_fundamental_discriminants():
    # |D| log-uniform up to 10^10, so that every scale of the two ranges
    # of a is met
    rng = random.Random(1011)
    seen = 0
    while seen < 20:
        disc = -int(10 ** rng.uniform(3, 10))
        if disc % 4 not in (0, 1) or not is_fundamental(disc):
            continue
        seen += 1
        assert class_number_disc(disc) == class_number_by_b(disc), disc


def test_pinned_conductor_values():
    # the conductor formula, class_number_disc and the count over b agree
    # on the orders whose conductors are 12 and 420
    for v, h in ((-1119999888, 20480), (-882485100, 21312)):
        assert class_number_by_b(4 * v) == h
        assert class_number_disc(4 * v) == h
        cd = conductor_data(v)
        assert class_number_from_conductor(
            cd, class_number_disc(cd.disc_max)) == h


def test_genus2_scan_orders_divide_class_numbers():
    curve = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))
    rows = scan(curve, from_point(curve, 1, 1), -40, 0, class_numbers=True)
    checked = 0
    for r in rows:
        if r.order_maximal is not None:
            assert r.h_maximal % r.order_maximal == 0, r.n
            assert r.h_order % r.order_order == 0, r.n
            checked += 1
    assert checked == 21     # the even n; the odd ones are imprimitive
