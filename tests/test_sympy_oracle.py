"""Factoring, primality and resultants against sympy, an independent
implementation.

sympy is a test-only dependency: without it these tests are skipped.
"""

import math
import random

import pytest

import hyperclass.quadring as qr
from hyperclass.errors import FactorizationBoundError
from hyperclass.polyarith import IntPoly, discriminant, resultant
from hyperclass.quadring import (
    conductor_data,
    factorint,
    is_probable_prime,
    primes_up_to,
)

sympy = pytest.importorskip("sympy")


def test_primes_up_to_matches_sympy(monkeypatch):
    # an empty cache first grows to 2^10, then to each larger limit or
    # twice the cached one; smaller limits read a prefix of the cache
    monkeypatch.setattr(qr, "_SIEVE_LIMIT", 0)
    monkeypatch.setattr(qr, "_SIEVE_PRIMES", [])
    for limit in (1, 2, 3, 30, 1023, 1024, 1031, 1500, 2049, 2048, 5000,
                  99991, 10 ** 5 + 2, 2 * 10 ** 5 + 1, 17):
        assert primes_up_to(limit) == list(sympy.primerange(limit + 1)), limit
    # a fresh sieve straight to an odd or even limit
    for limit in (1025, 4096, 10 ** 5 + 3):
        monkeypatch.setattr(qr, "_SIEVE_LIMIT", 0)
        monkeypatch.setattr(qr, "_SIEVE_PRIMES", [])
        assert primes_up_to(limit) == list(sympy.primerange(limit + 1)), limit


def test_factorint_after_a_sieve_reset_matches_sympy(monkeypatch):
    # the block products follow the sieve they were taken from: a sieve to
    # 1024 ends inside the second block (727 to 1619), and that short
    # product must not be read once the sieve has grown past it
    monkeypatch.setattr(qr, "_SIEVE_LIMIT", 0)
    monkeypatch.setattr(qr, "_SIEVE_PRIMES", [])
    values = [1019 * 1021, 1031 * 1033, 2 * 1601 * 1607 * 1609,
              999983 * 1000003, 997 * 999979 * 1000003 * 1000033]
    for n in values:
        assert factorint(n) == sympy.factorint(n), n
    # a fresh sieve straight past 10^6, then a smaller one again
    for n in values[::-1]:
        monkeypatch.setattr(qr, "_SIEVE_LIMIT", 0)
        monkeypatch.setattr(qr, "_SIEVE_PRIMES", [])
        assert factorint(n) == sympy.factorint(n), n


def test_is_probable_prime_matches_sympy():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randrange(10 ** 30)
        assert is_probable_prime(n) == sympy.isprime(n), n
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))
        q = sympy.nextprime(p + rng.randrange(10 ** 6))
        assert is_probable_prime(p) and is_probable_prime(q)
        assert not is_probable_prime(p * q)


def test_strong_pseudoprime_to_the_primes_to_37_is_refused():
    # the least strong pseudoprime to every prime base up to 37; one more
    # base, 41, makes the test deterministic below 3.3e24
    n = 318665857834031151167461
    assert not is_probable_prime(n)
    assert factorint(n) == sympy.factorint(n) == {399165290221: 1,
                                                   798330580441: 1}


def test_factorint_matches_sympy():
    # sizes spread over every bit length below 10^30, so small and large
    # cofactors both occur.  A rho budget of 10^4 keeps the test short; a
    # refusal is allowed only where at least two prime factors lie past
    # the trial-division ceiling, and a larger budget must then succeed
    rng = random.Random(89)
    refused = []
    for _ in range(200):
        n = rng.randrange(1, min(10 ** 30, 2 ** rng.randrange(1, 101)))
        want = sympy.factorint(n)
        try:
            assert factorint(n, 10 ** 4) == want, n
        except FactorizationBoundError:
            assert sum(e for p, e in want.items() if p > 10 ** 6) >= 2, n
            refused.append(n)
    assert len(refused) <= 20
    for n in sorted(refused)[:1]:
        assert factorint(n) == sympy.factorint(n)


def test_factorint_of_two_large_primes_matches_sympy():
    # the factorisation is known from the construction: the primes p and
    # q that sympy finds after the seeded draws, and the factors of m
    m_factors = {1: {}, -1: {}, 12: {2: 2, 3: 1}, -90: {2: 1, 3: 2, 5: 1}}
    rng = random.Random(97)
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))
        q = sympy.nextprime(rng.randrange(10 ** 9, 2 * 10 ** 9))
        m = rng.choice((1, -1, 12, -90))
        want = {**m_factors[m], p: 1}
        want[q] = want.get(q, 0) + 1
        assert factorint(m * p * q) == want, (m, p, q)


def test_conductor_square_part_matches_sympy():
    # values with a planted square factor, so S > 1 is common
    rng = random.Random(101)
    for _ in range(100):
        v = -rng.randrange(1, 10 ** 4) ** 2 * rng.randrange(1, 10 ** 12)
        want = tuple((p, e // 2) for p, e in
                     sorted(sympy.factorint(-v).items()) if e > 1)
        cd = conductor_data(v)
        assert cd.S_factors == want, v
        assert cd.S ** 2 * cd.d == v and all(e == 1 for e in sympy.factorint(-cd.d).values())


def test_square_parts_match_sympy(monkeypatch):
    # square parts by trial division to B = min(10^6, icbrt|v| + 1) and
    # isqrt of the cofactor; _split's Miller-Rabin and rho run only on a
    # cofactor of B^3 or more, which needs |v| > 10^18
    split = qr._split
    splits = []

    def counted(m, factor_bound, out):
        splits.append(m)
        return split(m, factor_bound, out)
    monkeypatch.setattr(qr, "_split", counted)

    def check(*parts):
        # v is the product of the parts: primes the test drew, factored by
        # construction, and small cofactors that sympy factors
        v, factors = 1, {}
        for part in parts:
            v *= part
            for p, e in sympy.factorint(part).items():
                factors[p] = factors.get(p, 0) + e
        want = tuple((p, e // 2) for p, e in sorted(factors.items()) if e > 1)
        bound = min(10 ** 6, sympy.integer_nthroot(v, 3)[0] + 1)
        rho = math.prod(p ** e for p, e in factors.items()
                        if p > bound) >= bound ** 3
        splits.clear()
        assert conductor_data(-v).S_factors == want, v
        assert qr.square_part(v) == qr.square_part(-v) == \
            math.prod(p ** e for p, e in want), v
        assert bool(splits) == rho, v
        return rho

    rng = random.Random(107)
    # values on both sides of 10^18, a square planted in half of them
    for _ in range(40):
        v = rng.randrange(10 ** 17, 10 ** 19)
        if rng.random() < 0.5:
            s = rng.randrange(2, 10 ** 6)
            v = v // (s * s) * s * s
        assert not check(v) or v > 10 ** 18, v
    # three primes near 10^6, so the product lies on either side of 10^18:
    # below it no rho runs, above it a cofactor of three primes past 10^6
    # takes the rho
    sides = set()
    for _ in range(30):
        ps = [sympy.nextprime(rng.randrange(9 * 10 ** 5, 11 * 10 ** 5))
              for _ in range(3)]
        sides.add((math.prod(ps) > 10 ** 18, check(*ps)))
    assert sides == {(False, False), (True, False), (True, True)}
    # planted cofactors p^2, p*q and p with p just above the cube-root
    # bound: each even t has no prime above t/2, below the bound, and keeps
    # |v| under (p - 1)^3, so trial division stops short of p
    for _ in range(30):
        p = sympy.nextprime(rng.randrange(10 ** 3, 10 ** 6))
        q = sympy.nextprime(p + rng.randrange(1, 100))
        for cofactor, t in (((p, p), p - 3),
                            ((p, q), (p * p // q - 3) & -2),
                            ((p,), (p - 3) * (p - 1))):
            assert p > qr.icbrt(math.prod(cofactor) * t) + 1, (p, t)
            assert not check(*cofactor, t)
    # p^2 with p > 10^6 past 10^18: the cofactor p^2 * q takes the rho, and
    # p^2 alone is found by _split's isqrt
    for _ in range(10):
        p = sympy.nextprime(rng.randrange(10 ** 6, 10 ** 7))
        q = sympy.nextprime(rng.randrange(10 ** 6, 10 ** 7))
        t = rng.randrange(1, 10 ** 3)
        assert check(p, p, q, t)
        r = sympy.nextprime(rng.randrange(10 ** 9, 10 ** 10))
        assert check(r, r, t)


def test_integer_cube_root_matches_sympy():
    rng = random.Random(109)
    ks = list(range(1, 200)) + [rng.randrange(1, 10 ** rng.randrange(2, 41))
                                for _ in range(300)] + [10 ** 40]
    assert qr.icbrt(0) == 0
    for k in ks:
        for n, want in ((k ** 3 - 1, k - 1), (k ** 3, k), (k ** 3 + 1, k)):
            assert qr.icbrt(n) == want == sympy.integer_nthroot(n, 3)[0], n
    with pytest.raises(ValueError):
        qr.icbrt(-1)


def test_class_number_split_matches_sympy(monkeypatch):
    # class_number_disc splits disc = f^2 * d0 by the square part of |disc|;
    # below DISC_CAP < 10^18 that needs neither Miller-Rabin nor the rho
    assert qr.DISC_CAP < qr._TRIAL_CEILING ** 3
    counted, kernels = [], []
    monkeypatch.setattr(qr, "_count_reduced_forms",
                        lambda disc: counted.append(disc) or 1)
    kernel_factor = qr._kernel_factor

    def recorded(disc_max, m, primes):
        # the primes of f exactly: an extra 2 would not change the value
        # when it ramifies, so only the record shows it
        kernels.append((disc_max, m, sorted(primes)))
        return kernel_factor(disc_max, m, primes)
    monkeypatch.setattr(qr, "_kernel_factor", recorded)

    def no_split(m, factor_bound, out):
        raise AssertionError(f"rho on {m}")
    monkeypatch.setattr(qr, "_split", no_split)

    def check(disc):
        # d0 from the square-free kernel of |disc| by sympy's factorint
        core = -math.prod(p for p, e in sympy.factorint(-disc).items()
                          if e % 2)
        d0 = core if core % 4 == 1 else 4 * core
        f = math.isqrt(disc // d0)
        assert f * f * d0 == disc, disc
        counted.clear()
        kernels.clear()
        got = qr.class_number_disc(disc)
        assert counted == [d0], disc
        assert kernels == [(d0, f, sorted(sympy.factorint(f)))], disc
        assert got == kernel_factor(d0, f, sympy.factorint(f)), disc
        return d0, f

    for disc, want in ((-3, (-3, 1)), (-4, (-4, 1)), (-8, (-8, 1)),
                       (-12, (-3, 2)), (-16, (-4, 2)), (-32, (-8, 2))):
        assert check(disc) == want

    def squarefree(n):
        return all(e == 1 for e in sympy.factorint(n).values())

    # planted fundamental d0 of each 2-adic kind: 1 mod 4, and 4m with
    # m = 2 or 3 mod 4, times f^2 with f a power of 2 times odd primes to
    # the first, second or third power, in bands of |disc| up to DISC_CAP
    rng = random.Random(113)
    kinds = set()
    for case in range(90):
        r = (1, 2, 3)[case % 3]
        f = 0
        while not 0 < f <= 10 ** 7:
            f = 2 ** rng.randrange(4) * math.prod(
                sympy.prime(rng.randrange(2, 40)) ** rng.randrange(1, 4)
                for _ in range(rng.randrange(3)))
        top = max(8, qr.DISC_CAP // (4 * f * f) // 10 ** rng.randrange(14))
        k = 0
        while not (k > 0 and squarefree(k)):
            k = rng.randrange(1, top)
            k -= (k + r) % 4
        # d = -k = r mod 4 is square-free
        d0 = -k if r == 1 else -4 * k
        disc = f * f * d0
        assert -disc <= qr.DISC_CAP
        assert check(disc) == (d0, f), disc
        kinds.add((r, f % 2))
    assert kinds == {(r, p) for r in (1, 2, 3) for p in (0, 1)}
    check(-qr.DISC_CAP)


def test_legendre_matches_sympy():
    # every prime below 100 against every discriminant in [-1000, -3]
    for p in primes_up_to(99):
        for disc in range(-1000, -2):
            if disc % 4 < 2:
                want = sympy.kronecker_symbol(disc, p)
                assert qr._legendre(disc, p) == want, (disc, p)


def test_resultant_and_discriminant_match_sympy():
    # operands of degree 0 to 8, constants among them, pairs with a planted
    # common factor, and 40-digit coefficients.  The resultant is checked
    # against sympy's determinant of the Sylvester matrix: sympy 1.14's
    # resultant has the wrong sign when both degrees are odd and the first
    # is the smaller (it gives Res(x + 1, x^3) = 1, not -1)
    rng = random.Random(103)
    x = sympy.Symbol("x")

    def draw(degree, size):
        cs = [rng.randint(-size, size) for _ in range(degree)]
        return IntPoly(cs + [rng.choice((-1, 1)) * rng.randint(1, size)])

    def sylvester_det(p, q):
        m, n = len(p.coeffs) - 1, len(q.coeffs) - 1
        rows = ([[0] * i + list(p.coeffs[::-1]) + [0] * (n - 1 - i)
                 for i in range(n)]
                + [[0] * i + list(q.coeffs[::-1]) + [0] * (m - 1 - i)
                   for i in range(m)])
        return sympy.Matrix(m + n, m + n, sum(rows, [])).to_DM().det()

    for case in range(240):
        size = 10 ** 40 if case % 4 == 3 else 50
        p, q = draw(rng.randint(0, 8), size), draw(rng.randint(0, 8), size)
        if case % 4 == 2:
            common = draw(rng.randint(1, 3), size)
            p, q = p * common, q * common
            assert resultant(p, q) == 0, (p, q)
        assert resultant(p, q) == sylvester_det(p, q), (p, q)
        if p.degree >= 1:
            want = sympy.Poly(p.coeffs[::-1], x).discriminant()
            assert discriminant(p) == want, p
