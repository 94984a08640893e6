"""Ideals and class groups of imaginary quadratic rings.

Two layers live here.  The concrete one is the ring Z[sqrt(D)] for a
negative non-square D: its ideals are stored in the normal form
q*(a, y - b) with integer q, a >= 1 and 0 <= b < a, where y denotes
sqrt(D); the Z-basis of such an ideal is {q*a, q*(y - b)} and its norm is
q^2*a.  Products and two-generator ideals are brought to this normal form
by a two-column Hermite reduction.

The abstract layer is the form class group of an arbitrary negative
discriminant: primitive positive-definite integral binary quadratic forms
up to SL2-equivalence, each class held as its unique reduced form.  Forms
are composed by the direct formula (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 5.4.7) in one private kernel on plain
(a, b, c) triples, which takes two modular inverses at most and then
reduces; products, powers and the baby-step giant-step class order all
run on it.  The inverse of a reduced (a, b, c) is (a, -b, c), so the
order search keys its babies by (a, |b|, c): one entry stands for x^j and
x^-j, and a giant step tests 2s + 1 exponents around its own with one
lookup, about 0.6 times the compositions of a search that stores x^-j
alone.  The kernel checks nothing: compose, IdealClass.from_form and
IdealClass.__mul__ check the discriminants and primitivity once, at the
public entry.  The layers meet in ideal_to_class and push_to_maximal,
which extends an ideal of Z[sqrt(D)] to the maximal order of Q(sqrt(D))
in the basis {1, w}, w = (s + sqrt(disc))/2 with s the parity of the
discriminant, by the normal form of (a, e*w - b) that extend_ideal also
takes: one inverse of e mod a, or a Hermite reduction when gcd(a, e) > 1.
An ideal far longer than sqrt|disc| is brought near a reduced basis by
one Lehmer partial Euclid before its form is reduced.

Class numbers are counted over the first coefficient a of the reduced
forms.  For a fundamental discriminant the number of roots of
b^2 = disc mod 4a is multiplicative in a, so one sieve over the primes
up to sqrt(|disc|/3), one modular power each, gives the count for every
a up to sqrt(|disc|)/2, where each root is one reduced form.  The few a
above that list their roots by one Chinese remainder step from those of
the cofactor left by the largest prime, one root of each pair b, -b,
and keep those with c >= a.  A non-fundamental discriminant goes through the conductor
formula, the same one that scales the maximal-order class number to
Z[sqrt(D)].  The count takes O(|disc|^(1/2 + eps)) time and
O(|disc|^(1/2)) memory.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt, prod

from .errors import (
    ClassNumberBoundError,
    DiscriminantMismatchError,
    DivisibilityError,
    FactorizationBoundError,
    InternalInconsistencyError,
    NonInvertibleError,
    OrderBoundError,
)
from .polyarith import xgcd

# Resource limits: the default rho budget of factorint, the largest
# class order that IdealClass.order searches for (the bound on its baby
# table; an order found by order_dividing is exact and not capped), and
# the largest |disc| whose class number is counted (its sieves take about
# 1.9 GB at the cap).  Past them the tool raises FactorizationBoundError,
# OrderBoundError or ClassNumberBoundError instead of computing on.
FACTOR_BOUND = 10 ** 6
ORDER_CAP = 10 ** 7
DISC_CAP = 10 ** 17

# The class order's baby-step giant-step starts with _BSGS_BABIES baby
# steps and doubles them once the giant exponent passes _BSGS_GROWTH times
# their number squared.  Both were chosen by counting compositions.  On
# the 201 orders of a genus-1 scan over [-400, 1], 16 babies take fewer
# than 8 or 32, and growth 4 is within 2% of the least count over growths
# 1, 2, 4, 8 and 16 (growth 8's).  On orders from 10^4 to 10^8 growth 4
# takes 11% to 17% fewer than growth 8, and growth 2 saves 1% to 7% more
# at up to twice the baby table.
_BSGS_BABIES = 16
_BSGS_GROWTH = 4

# ---------------------------------------------------------------------------
# integer utilities: primality, factorisation, square parts


def sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p (one power when
    p = 3 mod 4 or p = 5 mod 8, else Tonelli-Shanks): 0 when p | n, None
    when n is a non-residue."""
    n %= p
    if n == 0:
        return 0
    if p & 3 == 3:
        r = pow(n, (p + 1) >> 2, p)
    elif p & 7 == 5:
        # Atkin: v = (2n)^((p - 5)/8), i = 2n v^2 is a square root of -1
        v = pow(2 * n, p >> 3, p)
        r = n * v * (2 * n * v * v - 1) % p
    else:
        q, m = p >> 3, 3
        while not q & 1:
            q, m = q >> 1, m + 1
        z = 3       # 2 is a square mod p
        while pow(z, p >> 1, p) == 1:
            z += 2
        c, x = pow(z, q, p), pow(n, q >> 1, p)
        r = n * x % p
        t = r * x % p
        # invariant: r^2 = n*t, the order of t divides 2^(m-1), c has
        # order 2^m; t of order 2^m means n is a non-residue
        while t != 1:
            k, t2 = 1, t * t % p
            while t2 != 1:
                k, t2 = k + 1, t2 * t2 % p
            if k == m:
                return None
            b = pow(c, 1 << (m - k - 1), p)
            r, c = r * b % p, b * b % p
            t, m = t * c % p, k
    return r if r * r % p == n else None


_SIEVE_LIMIT = 0
_SIEVE_PRIMES: list[int] = []


def _sieve(limit: int) -> list[int]:
    """The cached list of every prime <= _SIEVE_LIMIT, first grown to
    limit or twice its old limit when limit is past it."""
    global _SIEVE_LIMIT, _SIEVE_PRIMES
    if limit > _SIEVE_LIMIT:
        new_limit = max(limit, 2 * _SIEVE_LIMIT, 1 << 10)
        # flags[i] stands for the odd number 2i + 1
        flags = bytearray([1]) * ((new_limit + 1) // 2)
        flags[0] = 0
        for i in range(1, (isqrt(new_limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                start = p * p // 2
                flags[start::p] = bytes(len(range(start, len(flags), p)))
        _SIEVE_PRIMES = [2, *compress(range(1, new_limit + 1, 2), flags)]
        _SIEVE_LIMIT = new_limit
    return _SIEVE_PRIMES


def primes_up_to(limit: int) -> list[int]:
    """Cached list of primes <= limit, grown on demand."""
    primes = _sieve(limit)
    if _SIEVE_LIMIT == limit:
        return primes
    return primes[:bisect_right(primes, limit)]


# Trial division tests _PRIME_BLOCK consecutive primes of the sieve at once,
# by one gcd with their product (Bernstein, "How to find smooth parts of
# integers", 2004), so the remainders are taken in C.  On the genus-1
# values |n^3 - 4| and the genus-2 values |n^5 + n - 1|, blocks of 64, 256
# and 512 primes were each slower than 128 on some set.  The products are
# kept with the sieve list they were taken from and are built afresh when
# the sieve is, only as far as a call's walk reaches.  Every walk stops at
# _TRIAL_CEILING = 10^6, so there are at most 614 of them, about 0.2 MB.
_PRIME_BLOCK = 128
_BLOCKS_OF: list[int] = []
_BLOCK_PRODUCTS: list[int] = []


def _trial_division(n: int, limit: int) -> tuple[dict[int, int], int]:
    """Strip the primes p <= limit from n >= 1: ({p: exponent}, cofactor),
    the primes ascending.

    One gcd tests a block of primes, and a block that shares a factor
    with n is divided prime by prime until that gcd is used up.  The walk
    stops at the first block whose least prime, squared, exceeds the
    cofactor, which then has no prime below that least one and is 1 or a
    prime.  So the cofactor is 1, a prime, or free of primes <= limit.
    """
    global _BLOCKS_OF, _BLOCK_PRODUCTS
    primes = _sieve(limit)
    if primes is not _BLOCKS_OF:
        _BLOCKS_OF, _BLOCK_PRODUCTS = primes, []
    top = bisect_right(primes, limit)
    products = _BLOCK_PRODUCTS
    out: dict[int, int] = {}
    for k, start in enumerate(range(0, top, _PRIME_BLOCK)):
        p = primes[start]
        if p * p > n:
            break
        if k == len(products):
            products.append(prod(primes[start:start + _PRIME_BLOCK]))
        g = gcd(n, products[k])
        if g == 1:
            continue
        # the last block may hold primes past limit: g keeps those
        for p in primes[start:min(start + _PRIME_BLOCK, top)]:
            if g % p == 0:
                n, e = n // p, 1
                while n % p == 0:
                    n, e = n // p, e + 1
                out[p] = e
                g //= p
                if g == 1:
                    break
    return out, n


# the primes to 41: those to 37 pass the composite 318665857834031151167461,
# and the least strong pseudoprime to all of them is 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, max_iters: int) -> int | None:
    """Brent-cycle factor hunt over the constants c = 1, ..., 19, all of
    them within one budget of max_iters iterations; returns a nontrivial
    factor or None.  n is odd: trial division strips every 2 first."""
    iters = 0
    for c in range(1, 20):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            iters += r
            if iters > max_iters:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if iters > max_iters:
            return None
    return None


# The trial division of factorint stops at _TRIAL_CEILING, so a cofactor
# below its square that no prime up to there divides is a prime without
# a primality test.  Past it only a composite with two or more primes
# above the ceiling reaches the rho and its FACTOR_BOUND budget.  The
# square part's trial division, for values and class-number
# discriminants alike, stops at the same ceiling, or sooner.
_TRIAL_CEILING = 10 ** 6


def icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by Newton's method in integers from the
    power of two above the root, so any size of n is exact."""
    if n < 0:
        raise ValueError(f"n of {n.bit_length()} bits must be >= 0")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _split(m: int, factor_bound: int, out: dict[int, int]) -> None:
    """Add the primes of a cofactor m >= 2 left by trial division to out:
    Miller-Rabin, then a Brent-style rho with an iteration budget of
    factor_bound for each composite, shared by every constant the rho
    tries on it.  A survivor beyond the budget raises
    FactorizationBoundError instead of guessing."""
    stack = [m]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _brent_rho(m, factor_bound)
        if d is None:
            raise FactorizationBoundError(
                f"no factor of {m} found within the work bound {factor_bound}")
        stack.extend((d, m // d))


def factorint(n: int, factor_bound: int = FACTOR_BOUND) -> dict[int, int]:
    """Prime factorisation of |n| as {prime: exponent}; n must be nonzero.

    Trial division up to the bound min(10^6, isqrt(|n|) + 1), by block
    gcds (_trial_division).  A cofactor below the bound squared is then 1
    or a prime, with no Miller-Rabin.  A larger one goes to _split's
    Miller-Rabin and rho, with the budget factor_bound for each composite.
    This is the full factorisation that order_dividing and congruence_data
    need; the square part of a value takes _square_factors instead.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    bound = min(_TRIAL_CEILING, isqrt(n) + 1)
    out, n = _trial_division(n, bound)
    if n < bound * bound:
        if n > 1:
            out[n] = 1
        return out
    _split(n, factor_bound, out)
    return out


def _square_factors(n: int, factor_bound: int) -> tuple[tuple[int, int], ...]:
    """The largest S with S^2 dividing |n|, n nonzero, as ascending (prime,
    exponent in S) pairs.

    Trial division runs to B = min(10^6, icbrt(|n|) + 1).  A cofactor
    m < B^3 then has at most two primes, all above B, so it is 1, p, p*q
    or p^2, and its square part is isqrt(m) exactly when m is a perfect
    square, with no primality test.  Only a cofactor m >= B^3, which needs
    |n| > 10^18, goes to _split's Miller-Rabin and rho under factor_bound,
    and only that one can raise FactorizationBoundError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    bound = min(_TRIAL_CEILING, icbrt(n) + 1)
    out, m = _trial_division(n, bound)
    if m < bound ** 3:
        root = isqrt(m)
        if m > 1 and root * root == m:
            out[root] = 2
    else:
        _split(m, factor_bound, out)
    return tuple((p, e // 2) for p, e in sorted(out.items()) if e > 1)


def square_part(n: int, factor_bound: int = FACTOR_BOUND) -> int:
    """Largest S >= 1 with S^2 dividing |n|, from _square_factors: below
    |n| = 10^18 it needs no rho and never raises FactorizationBoundError."""
    return prod(p ** e for p, e in _square_factors(n, factor_bound))


# ---------------------------------------------------------------------------
# binary quadratic forms


@dataclass(frozen=True)
class IntBinaryForm:
    """a*X^2 + b2*X*Y + c*Y^2 with integer coefficients."""

    a: int
    b2: int
    c: int

    @property
    def disc(self) -> int:
        return self.b2 * self.b2 - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b2), self.c) == 1

    def conjugate(self) -> "IntBinaryForm":
        return IntBinaryForm(self.a, -self.b2, self.c)

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b2 * x * y + self.c * y * y

    def __str__(self):
        return f"[{self.a},{self.b2},{self.c}]"

    def sizes(self) -> str:
        """The coefficients' bit lengths, for messages: the coefficients
        themselves can be far too long to print."""
        return (f"[{self.a.bit_length()},{self.b2.bit_length()},"
                f"{self.c.bit_length()}] bits")


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced triple -a < b <= a <= c (b >= 0 when a = c) equivalent
    to the positive-definite form (a, b, c); no checks."""
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            c += (a * k + b) * k
            b += 2 * a * k
        if a <= c:
            if a == c and b < 0:
                b = -b
            return a, b, c
        a, b, c = c, -b, a


def _partial_euclid(r0: int, r1: int,
                    bound: int) -> tuple[int, int, int, int]:
    """Euclid's remainders of r0 > r1 >= 0 down to r1 <= bound, with the
    cofactors of the initial r1: returns (r0', r1', c0, c1) where r0' and
    r1' are consecutive remainders, r0' = c0*r1 and r1' = c1*r1 modulo the
    initial r0, and c1 has the sign (-1)^(number of steps).  With bound 0
    it ends at (gcd, 0, c0, c1), so c0 inverts r1 when the gcd is 1.

    Lehmer's method (Knuth, TAOCP 2, Sec. 4.5.2, Alg. L): the quotients
    are taken from the leading 62 bits of r0 and the same bits of r1, and
    a batch of them is applied to the full numbers as one 2x2 matrix.  A
    step with leading remainder v and cofactor u joins the batch only when
    v - u > bound's leading bits.  That implies Collins' condition
    u <= v, the test of CPython's math.gcd, which proves the quotient the
    true one; and the true remainder exceeds (v - u)*2^shift > bound, so
    no step of a batch passes the bound, and the loop ends at the first
    remainder <= bound.  A batch of no step is one full division.
    """
    c0, c1 = 0, 1
    while r1 > bound:
        shift = r0.bit_length() - 62
        k = 0
        if shift > 0:
            x, y, lim = r0 >> shift, r1 >> shift, bound >> shift
            # after k steps, (x, y) = (A*x0 - B*y0, D*y0 - C*x0) for even
            # k and (A*y0 - B*x0, D*x0 - C*y0) for odd k, A, B, C, D >= 0
            A, B, C, D = 1, 0, 0, 1
            while y != C:
                q = (x + A - 1) // (y - C)
                u = B + q * D
                v = x - q * y
                if v - u <= lim:
                    break
                x, y = y, v
                A, B, C, D = D, C, u, A + q * C
                k += 1
        if k == 0:
            q, r = divmod(r0, r1)
            r0, r1, c0, c1 = r1, r, c1, c0 - q * c1
        elif k & 1:
            r0, r1 = A * r1 - B * r0, D * r0 - C * r1
            c0, c1 = A * c1 - B * c0, D * c0 - C * c1
        else:
            r0, r1 = A * r0 - B * r1, D * r1 - C * r0
            c0, c1 = A * c0 - B * c1, D * c1 - C * c0
    return r0, r1, c0, c1


# The modulus size from which _inverse takes its inverse from
# _partial_euclid rather than from pow, which runs in C but grows faster
# with the size: the two cross between 3500 and 4500 bits on a 2-vCPU
# host with Python 3.11
_LEHMER_INVERSE_BITS = 4000


def _inverse(e: int, a: int) -> int:
    """e^-1 mod a for a >= 1; ValueError, as from pow, when gcd(a, e) > 1."""
    if a.bit_length() < _LEHMER_INVERSE_BITS:
        return pow(e, -1, a)
    g, _, c0, _ = _partial_euclid(a, e % a, 0)
    if g != 1:
        raise ValueError("base is not invertible for the given modulus")
    return c0 % a


def _compose(f: tuple[int, int, int],
             g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Reduced Gauss composition of two primitive positive-definite
    triples of one discriminant; no checks.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.4.7,
    with its two extended gcds taken as modular inverses: with a1 <= a2,
    d = gcd(a1, a2) = u*a2 + v*a1 and d1 = gcd(d, (b1 + b2)/2), the
    product is (a1*a2/d1^2, b2 + 2*(a2/d1)*r, ...) for one residue r
    modulo a1/d1.
    """
    if f[0] > g[0]:
        f, g = g, f
    a1, b1 = f[0], f[1]
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d = gcd(a1, a2)
        y1 = pow(a2 // d, -1, a1 // d)      # y1*a2 = d mod a1
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1 = gcd(s, d)
        x2 = pow(s // d1, -1, d // d1)      # x2*s = d1 mod d
        y2 = (x2 * s - d1) // d
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return _reduce(v1 * v2, b2 + 2 * v2 * r,
                   (c2 * d1 + r * (b2 + v2 * r)) // v1)


def _baby_steps(babies: dict, baby: tuple[int, int, int],
                x: tuple[int, int, int], j: int,
                last: int) -> tuple[int | None, tuple[int, int, int]]:
    """Enters the babies x^j = baby, ..., x^last into the order search's
    table, which holds x^0, ..., x^(j - 1); returns (None, x^last), or
    (k, x^i) when x^i ends the search at the order k: x^i = x^-ii for an
    entry ii (k = i + ii, and k = i when x^i is trivial), or x^i is its
    own inverse, with b = 0, b = a or a = c (k = 2i)."""
    while True:
        a, b, c = baby
        key = a, abs(b), c
        jj = babies.get(key)
        if jj is not None:
            return j + abs(jj), baby
        if b == 0 or b == a or a == c:
            return 2 * j, baby
        babies[key] = j if b > 0 else -j
        if j == last:
            return None, baby
        j, baby = j + 1, _compose(baby, x)


def _power(x: tuple[int, int, int], k: int,
           one: tuple[int, int, int]) -> tuple[int, int, int]:
    """x^k for k >= 0 by square-and-multiply on reduced triples; one is
    the principal triple of x's discriminant."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else _compose(acc, x)
        k >>= 1
        if k:
            x = _compose(x, x)
    return one if acc is None else acc


def reduce_form(F: IntBinaryForm) -> IntBinaryForm:
    """SL2-reduced representative of a positive-definite form."""
    if F.disc >= 0:
        raise ValueError(f"form {F} is not definite (disc {F.disc})")
    if F.a <= 0:
        raise ValueError(f"form {F} is not positive definite")
    return IntBinaryForm(*_reduce(F.a, F.b2, F.c))


def _principal(disc: int) -> tuple[int, int, int]:
    s = disc % 2
    return 1, s, (s - disc) // 4


def principal_form(disc: int) -> IntBinaryForm:
    """The identity class [1, s, (s - disc)/4], s the parity of disc."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    return IntBinaryForm(*_principal(disc))


def _omega_rho_sigma(disc: int) -> tuple[int, int]:
    """(rho, sigma) with w^2 = rho + sigma*w for w = (sigma + sqrt(disc))/2."""
    sigma = disc % 2
    return (disc - sigma) // 4, sigma


def _hnf_module(rows) -> tuple[int, int, int]:
    """Hermite form of the Z-module spanned by rows (u, v) ~ u + v*w.

    Returns (q, a, t) describing the module q*(a*Z + (w - t)*Z) with
    a >= 1 and 0 <= t < a.  Raises InternalInconsistencyError when the
    span is not of that shape (i.e. the input was not an ideal).
    """
    cu, cv = 0, 0
    for (u, v) in rows:
        if v == 0:
            continue
        g, s, t_ = xgcd(cv, v)
        cu = s * cu + t_ * u
        cv = g
    if cv == 0:
        raise InternalInconsistencyError("module has rank < 2 over Z")
    alpha = 0
    for (u, v) in rows:
        alpha = gcd(alpha, u - (v // cv) * cu)
    if alpha == 0:
        raise InternalInconsistencyError("module has rank < 2 over Z")
    if alpha % cv or cu % cv:
        raise InternalInconsistencyError("module is not an ideal of the order")
    a = alpha // cv
    t = (-(cu // cv)) % a
    return cv, a, t


def _generator_rows(gens, rho: int, sigma: int):
    """Spanning rows of the ideal generated by gens (u, v) ~ u + v*w, where
    w^2 = rho + sigma*w: each generator and its product with w."""
    rows = []
    for (u, v) in gens:
        rows.append((u, v))
        rows.append((v * rho, u + v * sigma))
    return rows


def _ideal_rows_product(a1: int, t1: int, a2: int, t2: int,
                        rho: int, sigma: int):
    """Spanning rows of (a1, w - t1)*(a2, w - t2) in the {1, w} basis."""
    return [
        (a1 * a2, 0),
        (-a1 * t2, a1),
        (-a2 * t1, a2),
        (rho + t1 * t2, sigma - t1 - t2),
    ]


def _extend(disc: int, a: int, b: int, e: int) -> tuple[int, int, int]:
    """Normal form (q, a', t), q*(a', w - t), of the ideal (a, e*w - b) of
    the order of discriminant disc, for 0 <= b, e < a: t = b/e mod a by
    one inverse when gcd(a, e) = 1, else the Hermite form of the span."""
    if gcd(a, e) == 1:
        return 1, a, b * _inverse(e, a) % a
    rho, sigma = _omega_rho_sigma(disc)
    return _hnf_module(_generator_rows([(a, 0), (-b, e)], rho, sigma))


def _class_from_hnf(disc: int, a: int, t: int) -> "IdealClass":
    """Class of the ideal (a, w - t) of the order of discriminant disc, for
    a >= 1, 0 <= t < a and disc < 0, as every caller guarantees.

    The basis {a, t - w} gives the form [a, 2t - s, N(t - w)/a], whose
    coefficients are as long as a.  Partial Euclid on (a, t) down to about
    sqrt(a)*|disc|^(1/4), NUCOMP's PARTEUCL step (Cohen, Alg. 5.4.9),
    finds a basis alpha = r0 - c0*w, beta = r1 - c1*w of the same lattice
    with N(beta)/a at most about sqrt|disc|; its form
    [N(alpha)/a, Tr(alpha*conj(beta))/a, N(beta)/a] is nearly reduced,
    and _reduce finishes on numbers of about the size of sqrt|disc|.
    Each Euclid step turns the basis over and flips the sign of c1, so
    beta is negated when c1 < 0.  An a at most sqrt|disc| takes no step.
    Content is an SL2 invariant, so primitivity is read off the small
    form, and the divisions that build it are exact exactly when a
    divides N(t - w).
    """
    rho, sigma = _omega_rho_sigma(disc)
    r0, r1, c0, c1 = _partial_euclid(a, t, isqrt(a * isqrt(-disc)))
    if c1 < 0:
        r1, c1 = -r1, -c1
    a1, rem_a = divmod(r0 * r0 - sigma * r0 * c0 - rho * c0 * c0, a)
    b, rem_b = divmod(2 * r0 * r1 - sigma * (r0 * c1 + r1 * c0)
                      - 2 * rho * c0 * c1, a)
    c, rem_c = divmod(r1 * r1 - sigma * r1 * c1 - rho * c1 * c1, a)
    if rem_a or rem_b or rem_c:
        raise InternalInconsistencyError("ideal norm does not divide the form")
    if gcd(gcd(a1, b), c) != 1:
        raise NonInvertibleError(
            f"ideal yields an imprimitive form of "
            f"{IntBinaryForm(a1, b, c).sizes()}; not invertible")
    return IdealClass(disc, IntBinaryForm(*_reduce(a1, b, c)))


def compose(F1: IntBinaryForm, F2: IntBinaryForm) -> IntBinaryForm:
    """Reduced Gauss composition of primitive positive-definite forms of
    one discriminant."""
    disc = F1.disc
    if disc != F2.disc:
        raise DiscriminantMismatchError(
            f"discriminants differ (of {disc.bit_length()} and "
            f"{F2.disc.bit_length()} bits)")
    if not (F1.is_primitive and F2.is_primitive):
        raise NonInvertibleError("composition needs primitive forms")
    if disc >= 0 or F1.a <= 0 or F2.a <= 0:
        raise ValueError("composition needs positive-definite forms")
    return IntBinaryForm(*_compose(_triple(F1), _triple(F2)))


def _triple(F: IntBinaryForm) -> tuple[int, int, int]:
    return F.a, F.b2, F.c


@dataclass(frozen=True)
class IdealClass:
    """A class of invertible ideals, held as its SL2-reduced form.

    Powers and orders run on the unchecked composition kernel; from_form
    and __mul__ (through compose) check their operands."""

    disc: int
    rep: IntBinaryForm

    @classmethod
    def from_form(cls, F: IntBinaryForm) -> "IdealClass":
        if not F.is_primitive:
            raise NonInvertibleError(f"form of {F.sizes()} is imprimitive")
        return cls(F.disc, reduce_form(F))

    @classmethod
    def identity(cls, disc: int) -> "IdealClass":
        return cls(disc, principal_form(disc))

    @property
    def is_trivial(self) -> bool:
        """A reduced form is principal exactly when its a is 1."""
        return self.rep.a == 1

    def __mul__(self, other: "IdealClass") -> "IdealClass":
        if not isinstance(other, IdealClass):
            return NotImplemented
        return IdealClass(self.disc, compose(self.rep, other.rep))

    def inverse(self) -> "IdealClass":
        return IdealClass(self.disc, reduce_form(self.rep.conjugate()))

    def __pow__(self, k: int) -> "IdealClass":
        """The k-th power, by square-and-multiply; k < 0 goes through
        inverse()."""
        if k < 0:
            return self.inverse() ** -k
        return IdealClass(self.disc, IntBinaryForm(
            *_power(_triple(self.rep), k, _principal(self.disc))))

    def order(self, cap: int = ORDER_CAP) -> int:
        """Least k >= 1 with the k-th power trivial; OrderBoundError when
        it exceeds cap.

        Shanks' baby-step giant-step with the free inverse of a form
        class: the reduced (a, b, c) and its inverse (a, -b, c) share the
        key (a, |b|, c), so one table entry j, signed as b, stands for
        both x^j and x^-j, 0 <= j <= s.  Before the baby x^j every
        exponent up to 2j - 2 is ruled out, and x^j ends the search at
        the least one left: x^j = x^-jj for an earlier jj (order j + jj;
        jj = 0 when x^j is trivial), or x^j is its own inverse, with
        b = 0, b = a or a = c (order 2j).  With no such event the order
        exceeds 2s, so a window of 2s + 1 exponents holds at most one
        multiple of it.  A giant step at x^e tests the window
        [e - s, e + s] with one lookup: a hit on j with b of the same sign
        means x^e = x^j, order e - j, of the other sign x^e = x^-j, order
        e + j.  The windows tile the exponents from 2s + 1 on, so the
        first hit is the order.  Once e passes _BSGS_GROWTH*s^2 the babies
        run on to 2s and the next window is centred at e + 3s + 1; every
        exponent to 4s is ruled out by then, so a new baby that meets an
        event raises InternalInconsistencyError.
        """
        x = _triple(self.rep)
        s = _BSGS_BABIES
        babies = {_principal(self.disc): 0}     # (a, |b|, c) -> j, signed
        k, baby = _baby_steps(babies, x, x, 1, s)
        if k is not None:
            if k > cap:
                raise OrderBoundError(f"class order exceeds the cap {cap}")
            return k
        step = _compose(_compose(baby, baby), x)    # x^(2s + 1)
        e, giant = 3 * s + 1, _compose(step, baby)  # giant = x^e
        while True:
            a, b, c = giant
            j = babies.get((a, abs(b), c))
            if j is not None and (k := e - j if b > 0 else e + j) <= cap:
                return k
            # a hit past the cap, or every exponent up to the cap ruled out
            if j is not None or e + s >= cap:
                raise OrderBoundError(f"class order exceeds the cap {cap}")
            if e <= _BSGS_GROWTH * s * s:
                giant, e = _compose(giant, step), e + 2 * s + 1
                continue
            xs = baby
            k, baby = _baby_steps(babies, _compose(xs, x), x, s + 1, 2 * s)
            if k is not None:
                raise InternalInconsistencyError(
                    f"a baby step gives the order {k} of {self}, but every "
                    f"exponent up to {e + s} was ruled out")
            far = _compose(step, xs)                # x^(3s + 1)
            giant, e = _compose(giant, far), e + 3 * s + 1
            step, s = _compose(far, xs), 2 * s      # x^(2s + 1), new s

    def order_dividing(self, m: int) -> int:
        """Order of a class whose m-th power is trivial, m >= 1.

        For each prime power p^e exactly dividing m, x^(m/p^e) has order
        p^f with f <= e, found by raising it to the p-th power until it is
        trivial; the order is the product of those p^f.  The result is
        checked by one more power, so an m whose power is not trivial
        raises InternalInconsistencyError instead of a wrong order.
        """
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        x, one = _triple(self.rep), _principal(self.disc)
        k = 1
        for p, e in factorint(m).items():
            y = _power(x, m // p ** e, one)
            for _ in range(e):
                if y[0] == 1:
                    break
                y = _power(y, p, one)
                k *= p
        if _power(x, k, one)[0] != 1:
            raise InternalInconsistencyError(
                f"the {m}-th power of {self} is not trivial")
        return k

    def __str__(self):
        return f"{self.rep} (disc {self.disc})"


# ---------------------------------------------------------------------------
# ideals of Z[sqrt(D)]


@dataclass(frozen=True)
class QuadIdeal:
    """Nonzero ideal q*(a, y - b) of Z[sqrt(D)], basis {q*a, q*(y - b)}."""

    D: int
    q: int
    a: int
    b: int

    def __post_init__(self):
        if self.D >= 0:
            raise ValueError(f"D = {self.D} must be negative")
        if self.q < 1 or self.a < 1:
            raise ValueError("q and a must be positive")
        # a, b and b^2 - D can be far too long to print; give their sizes
        if not (0 <= self.b < self.a):
            raise ValueError(
                f"b of {self.b.bit_length()} bits is out of range [0, a) "
                f"for a of {self.a.bit_length()} bits")
        if (self.b * self.b - self.D) % self.a:
            raise ValueError(
                f"a of {self.a.bit_length()} bits does not divide b^2 - D "
                f"(b, D of {self.b.bit_length()}, {self.D.bit_length()} "
                f"bits)")

    def __str__(self):
        inner = f"({self.a}, y - {self.b})"
        return inner if self.q == 1 else f"({self.q}){inner}"


def unit_ideal(D: int) -> QuadIdeal:
    return QuadIdeal(D, 1, 1, 0)


def ideal_from_generators(D: int, gens) -> QuadIdeal:
    """Ideal of Z[sqrt(D)] generated by elements (u, v) ~ u + v*y."""
    q, a, t = _hnf_module(_generator_rows(gens, D, 0))
    return QuadIdeal(D, q, a, t)


def ideal_mul(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """Product ideal, in normal form."""
    if I.D != J.D:
        raise DiscriminantMismatchError(
            f"rings differ (D of {I.D.bit_length()} and "
            f"{J.D.bit_length()} bits)")
    rows = _ideal_rows_product(I.a, I.b, J.a, J.b, I.D, 0)
    q, a, t = _hnf_module(rows)
    return QuadIdeal(I.D, I.q * J.q * q, a, t)


def ideal_norm(I: QuadIdeal) -> int:
    """Index of the ideal in Z[sqrt(D)]: q^2 * a."""
    return I.q * I.q * I.a


def ideal_conjugate(I: QuadIdeal) -> QuadIdeal:
    return QuadIdeal(I.D, I.q, I.a, (-I.b) % I.a)


def form_to_ideal(F: IntBinaryForm, D: int) -> QuadIdeal:
    """Ideal (a, y - b) attached to the primitive form [a, 2b, c] of disc 4D.

    Requires a > 0 and an even middle coefficient; inverse of ideal_to_class
    on normal forms.
    """
    if F.disc != 4 * D:
        raise DiscriminantMismatchError(
            f"form disc of {F.disc.bit_length()} bits is not 4*D for D of "
            f"{D.bit_length()} bits")
    if not F.is_primitive:
        raise NonInvertibleError(f"form of {F.sizes()} is imprimitive")
    if F.b2 % 2:
        raise ValueError(f"form of {F.sizes()} has odd middle coefficient")
    if F.a <= 0:
        raise ValueError(
            f"form of {F.sizes()} has nonpositive leading coefficient")
    b = F.b2 // 2
    return QuadIdeal(D, 1, F.a, b % F.a)


def extend_ideal(a: int, b: int, e: int, D: int) -> QuadIdeal:
    """Normal form of the ideal (a, e*y - b) of Z[sqrt(D)].

    Requires a, e positive and a | b^2 - e^2*D (so the span really is an
    ideal); raises DivisibilityError otherwise.  The check and _extend run
    on b and e reduced mod a: the same ideal, in much shorter entries.
    """
    if a < 1 or e < 1:
        raise ValueError("a and e must be positive")
    b_a, e_a = b % a, e % a
    if (b_a * b_a - e_a * e_a * D) % a:
        # the entries can be far too long to print; give their sizes
        raise DivisibilityError(
            f"a of {a.bit_length()} bits does not divide b^2 - e^2*D "
            f"(b, e, D of {b.bit_length()}, {e.bit_length()}, "
            f"{D.bit_length()} bits)")
    return QuadIdeal(D, *_extend(4 * D, a, b_a, e_a))


def ideal_to_class(I: QuadIdeal) -> IdealClass:
    """Class of an invertible ideal, as a reduced form of discriminant 4D.

    The ideal (a, y - b) corresponds to [a, 2b, (b^2 - D)/a]; the scalar
    part q does not move the class.  NonInvertibleError when the form is
    imprimitive (the ideal is not proper).
    """
    return _class_from_hnf(4 * I.D, I.a, I.b)


# ---------------------------------------------------------------------------
# class numbers


def class_number(D: int) -> int:
    """Order of the class group of Z[sqrt(D)], i.e. h(4D)."""
    if D >= 0:
        raise ValueError(f"D = {D} must be negative")
    return class_number_disc(4 * D)


def class_number_disc(disc: int) -> int:
    """Number of classes of primitive positive-definite forms of disc < 0.

    With disc = f^2 * d0 and d0 fundamental, h(disc) = h(d0) times the
    kernel factor of the conductor f (the formula of kernel_order).  F, the
    square part of |disc| from _square_factors, gives d = disc/F^2, and
    d0, f = d, F when d = 1 mod 4, else 4d, F/2: below DISC_CAP < 10^18
    no rho runs, so no FactorizationBoundError arises.  h(d0) is counted
    by _count_reduced_forms in O(|d0|^(1/2 + eps)) time and O(|d0|^(1/2))
    memory.  ClassNumberBoundError when |disc| > DISC_CAP, before
    anything is sieved.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    if -disc > DISC_CAP:
        raise ClassNumberBoundError(
            f"a discriminant of {(-disc).bit_length()} bits is past the "
            f"class-number cap |disc| <= {DISC_CAP}")
    F_factors = _square_factors(disc, FACTOR_BOUND)
    F = prod(p ** e for p, e in F_factors)
    d0, f = disc // (F * F), F
    if d0 % 4 != 1:
        d0, f = 4 * d0, F // 2
    return _count_reduced_forms(d0) * _kernel_factor(
        d0, f, [p for p, _ in F_factors if f % p == 0])


# _INC[v] = v + 1 for v >= 1, and 0 stays 0: one more split prime of a
# live a, none for a dead one
_INC = bytes([0, *range(2, 256), 255])


def _count_reduced_forms(disc: int) -> int:
    """h(disc) for a fundamental disc < 0, counted over the first
    coefficient a of the reduced forms (a, b, c), 3a^2 <= -disc.

    The number r(a) of b mod 2a with b^2 = disc mod 4a is multiplicative:
    r(p^k) = 1 + (disc|p) for p not dividing disc, and r(p) = 1,
    r(p^k) = 0 for k >= 2 when p divides it.  Every form is primitive,
    since disc is fundamental.  One sieve over the primes
    p <= sqrt(-disc/3) holds, for each a up to there, 0 when r(a) = 0 and
    otherwise 1 + the number of split primes of a, so r(a) = 2^(value - 1);
    it also records the largest non-inert odd prime of each a.  An odd
    prime takes one modular power, Euler's criterion, and zeroes or steps
    its multiples by slices, or writes its one multiple directly when it
    is above sqrt(-disc/3)/2.  A prime above sqrt(-disc)/2 is an a of
    the range below, which needs its root, so it takes sqrt_mod instead:
    one power too, unless p = 1 mod 8.

    For 4a^2 <= -disc, each root b in (-a, a] is one reduced form, since
    c = (b^2 - disc)/(4a) >= a holds by itself; those a add up their r(a).
    For the a above, about 0.077*sqrt(-disc) values, the roots of each a
    with r(a) > 0 come by one Chinese remainder step from the roots of
    its cofactor a/p^e, p the largest odd prime of a: the cofactors are
    few, and their roots are listed once, the same way.  A root b counts
    when c > a, that is |b| > beta = isqrt(4a^2 + disc), and the form
    (a, beta, a) counts once when beta^2 = 4a^2 + disc.  The roots come
    in pairs b, -b, since b = 0 and b = a are no roots when a has a
    prime power with two roots: at the first such one (2^e when
    disc = 1 mod 8, else an odd split prime) only one root is kept, so
    one root of each pair is listed, and each counts twice.
    """
    a_low, a_top = isqrt(-disc // 4), isqrt(-disc // 3)
    half = a_top // 2
    sieve = bytearray([1]) * (a_top + 1)
    sieve[0] = 0
    zeros = memoryview(bytes(half))
    d8 = disc % 8
    if d8 == 1:
        sieve[2::2] = sieve[2::2].translate(_INC)
    elif d8 == 5:
        sieve[2::2] = zeros[:half]
    else:
        sieve[4::4] = zeros[:a_top // 4]
    # largest[a]: the largest non-inert odd prime of a, 0 for a power of
    # 2, in native 32-bit words.  A prime in (a_top/2, a_low] is left out:
    # no a above a_low, nor a cofactor of one, is its multiple.
    largest = memoryview(bytearray(4 * (a_top + 1))).cast("I")
    primes = primes_up_to(a_top)
    for p in islice(primes, 1, bisect_right(primes, a_low)):
        s = pow(disc, p >> 1, p)    # 1: split, 0: ramified
        if s > 1:                                   # inert
            if p > half:
                sieve[p] = 0
            else:
                sieve[p::p] = zeros[:a_top // p]
            continue
        if p > half:
            sieve[p] += s
            continue
        if s:
            sieve[p::p] = sieve[p::p].translate(_INC)
        else:
            pp = p * p
            sieve[pp::pp] = zeros[:a_top // pp]
        largest[p::p] = memoryview(
            p.to_bytes(4, sys.byteorder) * (a_top // p)).cast("I")
    h = sum(sieve.count(v, 1, a_low + 1) << (v - 1)
            for v in range(1, a_top.bit_length() + 2))
    # roots[q]: the roots of disc mod the odd prime power q.  An odd prime
    # above a_low is a live a of its own exactly when it has a root.
    roots: dict[int, tuple[int, ...]] = {}
    for p in islice(primes, bisect_right(primes, max(a_low, 2)), None):
        x = sqrt_mod(disc, p)
        if x is None:
            sieve[p] = 0
        else:
            largest[p] = p
            roots[p] = (x, p - x) if x else (0,)
    # cofactors[c] = (res, paired): the roots b mod 2c of b^2 = disc mod
    # 4c, only one of each pair b, -b when paired
    cofactors: dict[int, tuple[list[int], bool]] = {}

    def step(c: int):
        """The Chinese remainder step to c = d*q, q = p^e the part of its
        largest odd prime p: the roots res of d with paired, 2d, q, and
        the roots R of disc mod q, one alone when they are the first
        pair."""
        p = largest[c]
        q, d = p, c // p
        while d % p == 0:
            q, d = q * p, d // p
        res, paired = cofactors.get(d) or roots_of(d)
        R = roots.get(q)
        if R is None:
            R = roots[q] = _roots(disc, p, q)
        if not paired and len(R) == 2:
            R, paired = R[:1], True
        return res, paired, 2 * d, q, R

    def roots_of(c: int) -> tuple[list[int], bool]:
        """cofactors[c], listed on its first use."""
        if largest[c]:
            res, paired, M, q, R = step(c)
            inv = pow(M, -1, q)
            res = [t + M * ((u - t) * inv % q) for t in res for u in R]
        else:
            R = _roots(disc, 2, c)
            paired = len(R) == 2
            res = list(R[:1] if paired else R)
        cofactors[c] = res, paired
        return res, paired

    for a in compress(range(a_low + 1, a_top + 1), sieve[a_low + 1:]):
        T = 4 * a * a + disc
        beta = isqrt(T)
        top = 2 * a - beta
        if largest[a]:
            res, paired, M, q, R = step(a)
            inv = pow(M, -1, q)
            n = 0
            for t in res:
                for u in R:
                    if beta < t + M * ((u - t) * inv % q) < top:
                        n += 1
        else:
            res, paired = roots_of(a)
            n = sum(beta < t < top for t in res)
        h += (n << paired) + (beta * beta == T)
    return h


def _roots(disc: int, p: int, q: int) -> tuple[int, ...]:
    """The residues for the p-part q = p^e of a live a that the Chinese
    remainder theorem joins into the roots b mod 2a of b^2 = disc mod 4a:
    for p = 2 the b mod 2q with b^2 = disc mod 4q, for odd p the b mod q
    with b^2 = disc mod q.  Two roots are a pair x, -x."""
    if p == 2:
        if q == 1:
            return (disc % 2,)
        if disc % 2 == 0:       # disc = 4d and q = 2: b = 2d mod 4
            return (disc // 2 % 4,)
        # disc = 1 mod 8: lift the root 1 mod 8 up to 4q
        x, j = 1, 8
        while j < 4 * q:
            if (x * x - disc) % (2 * j):
                x += j // 2
            j *= 2
        return (x % (2 * q), -x % (2 * q))
    x = sqrt_mod(disc, p)
    if x == 0:
        return (0,)
    r = p
    while r < q:      # Hensel: a root mod r = p^j to p^(j+1)
        r *= p
        x = (x - (x * x - disc) * pow(2 * x, -1, r)) % r
    return (x, q - x)


# ---------------------------------------------------------------------------
# conductor machinery and the pushforward to the maximal order


@dataclass(frozen=True)
class ConductorData:
    """Square-part decomposition of a negative value v = S^2 * d.

    d is the square-free kernel, disc_max the discriminant of the maximal
    order of Q(sqrt(v)), and conductor the index m with 4*S^2*d =
    m^2 * disc_max; m = 2S when d = 1 mod 4, else m = S.  S_factors is
    the factorisation of S as ascending (prime, exponent) pairs.
    """

    value: int
    S: int
    d: int
    disc_max: int
    conductor: int
    S_factors: tuple[tuple[int, int], ...]


CONDUCTOR_CACHE = 64


@lru_cache(maxsize=CONDUCTOR_CACHE)
def conductor_data(v: int, factor_bound: int = FACTOR_BOUND) -> ConductorData:
    """Write v < 0 as S^2*d with d square-free and derive the maximal order.

    Only the square part S is factored, by _square_factors: trial division
    to min(10^6, icbrt|v| + 1) and isqrt of the cofactor, so below
    |v| = 10^18 no rho runs and FactorizationBoundError is never raised;
    above it a cofactor of 10^18 or more left by trial division goes to
    Miller-Rabin and the rho under factor_bound.  Cached on (v,
    factor_bound): a value is factored once however many classes are
    pushed to its maximal order.  An error is not cached.
    """
    if v >= 0:
        raise ValueError(f"v = {v} must be negative")
    S_factors = _square_factors(v, factor_bound)
    S = prod(p ** e for p, e in S_factors)
    d = v // (S * S)
    if d % 4 == 1:
        disc_max, m = d, 2 * S
    else:
        disc_max, m = 4 * d, S
    return ConductorData(value=v, S=S, d=d, disc_max=disc_max, conductor=m,
                         S_factors=S_factors)


def push_to_maximal(I: QuadIdeal, cd: ConductorData) -> IdealClass:
    """Class of I*O_K in the maximal order O_K of Q(sqrt(D)), D = cd.value.

    In the basis {1, w} of O_K, w = (s + sqrt(disc_max))/2 with s the
    parity of disc_max, y - b is e*w - b' with (e, b') = (S, b) or
    (2S, b + S), of norm b^2 - D; _extend gives the normal form of
    (a, e*w - b'), whose scalar, like I's q, does not move the class.
    """
    if cd.value != I.D:
        raise DiscriminantMismatchError(
            f"conductor data is for a value of {cd.value.bit_length()} bits, "
            f"the ideal lives over one of {I.D.bit_length()} bits")
    disc, S, s = cd.disc_max, cd.S, cd.disc_max % 2
    _, a, t = _extend(disc, I.a, (I.b + s * S) % I.a, (S << s) % I.a)
    return _class_from_hnf(disc, a, t)


def kernel_order(cd: ConductorData) -> int:
    """Order h(O)/h(O_K) of the kernel of Pic(O) -> Pic(O_K), where O is
    the order of discriminant 4*cd.value; the primes of its conductor
    m = S or 2S are read off cd.S_factors."""
    primes = {p for p, _ in cd.S_factors}
    if cd.conductor != cd.S:
        primes.add(2)
    return _kernel_factor(cd.disc_max, cd.conductor, primes)


def _legendre(disc: int, p: int) -> int:
    """(disc|p) for a discriminant disc and a prime p: 1 when p splits in
    Q(sqrt(disc)), -1 when it is inert, 0 when it ramifies.  For odd p
    this is Euler's criterion, which _count_reduced_forms runs inline on
    the primes up to sqrt(-disc)/2; above that it reads the symbol off
    sqrt_mod, whose root it needs."""
    if p == 2:
        return (disc % 8 == 1) - (disc % 8 == 5)
    if disc % p == 0:
        return 0
    return 1 if pow(disc, p >> 1, p) == 1 else -1


def _kernel_factor(disc_max: int, m: int, primes) -> int:
    """h(O)/h(O_K) for the order O of conductor m in the maximal order O_K
    of discriminant disc_max, given the primes of m:

        m * prod_{p | m} (1 - (disc_max|p)/p) / [O_K^* : O^*],

    with unit index 3 for disc_max = -3, 2 for -4, 1 otherwise (and 1
    when m = 1).  Only primes are asked, so (disc_max|p) is the Legendre
    symbol of _legendre, extended to p = 2 by disc_max mod 8.
    """
    if m == 1:
        return 1
    num, den = m, 1
    for p in primes:
        num *= p - _legendre(disc_max, p)
        den *= p
    if disc_max == -3:
        den *= 3
    elif disc_max == -4:
        den *= 2
    if num % den:
        raise InternalInconsistencyError(
            f"conductor formula gave non-integer {num}/{den}")
    return num // den


def class_number_from_conductor(cd: ConductorData, h_max: int) -> int:
    """h of the order of discriminant 4*cd.value via the conductor formula,
    h(O) = h_max * kernel_order(cd), where h_max is h of the maximal order."""
    return h_max * kernel_order(cd)
