"""Ideal arithmetic in Z[sqrt(D)], form composition, class numbers,
conductors.  The HNF oracle here is an independent Euclidean sweep, kept
deliberately separate from the production single-pass implementation."""

import gc
import math
import random
import sys

import pytest

import hyperclass.quadring as qr
from hyperclass.curve import new_curve
from hyperclass.errors import (
    ClassNumberBoundError,
    DiscriminantMismatchError,
    DivisibilityError,
    FactorizationBoundError,
    InternalInconsistencyError,
    NonInvertibleError,
    OrderBoundError,
)
from hyperclass.integral_forms import to_alt_mumford
from hyperclass.jacobian import from_point, jac_smul
from hyperclass.polyarith import IntPoly
from hyperclass.quadring import (
    ConductorData,
    IdealClass,
    IntBinaryForm,
    QuadIdeal,
    class_number,
    class_number_disc,
    class_number_from_conductor,
    compose,
    conductor_data,
    extend_ideal,
    factorint,
    form_to_ideal,
    ideal_conjugate,
    ideal_from_generators,
    ideal_mul,
    ideal_norm,
    ideal_to_class,
    is_probable_prime,
    kernel_order,
    primes_up_to,
    principal_form,
    reduce_form,
    sqrt_mod,
    square_part,
    unit_ideal,
)
from hyperclass.specialize import specialize_form

DS = (-5, -6, -13, -14, -21)


# --- independent HNF oracle -------------------------------------------------

def hnf_oracle(rows):
    """Normal form (q, a, b) of the Z-module spanned by (u, v) ~ u + v*y.

    Euclidean sweep: clear the y-column down to a single row, gcd the
    rational rows, then read off (q)(a, y-b).
    """
    work = [list(r) for r in rows if r != (0, 0) and list(r) != [0, 0]]
    while True:
        nz = [r for r in work if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        u0, v0 = nz[0]
        for r in nz[1:]:
            k = r[1] // v0
            r[0] -= k * u0
            r[1] -= k * v0
    rational = 0
    mixed = None
    for u, v in work:
        if v == 0:
            rational = math.gcd(rational, u)
        else:
            assert mixed is None or (u, v) == (0, 0)
            mixed = (u, v)
    assert mixed is not None and rational > 0, "not a rank-2 module"
    u1, v1 = mixed
    if v1 < 0:
        u1, v1 = -u1, -v1
    q = v1
    assert rational % q == 0 and u1 % q == 0, "not closed under y-multiplication"
    a = rational // q
    b = (-(u1 // q)) % a
    return q, a, b


def module_rows(a, b, e, D):
    """Z-generators of the Z[sqrt(D)]-module spanned by a and e*y - b."""
    return [(a, 0), (0, a), (-b, e), (e * D, -b)]


def random_invertible_ideal(rng, D):
    """Random invertible ideal: primitive (a, y-b) times a random rational q."""
    while True:
        a = rng.randrange(1, 60)
        bs = [b for b in range(a) if (b * b - D) % a == 0]
        if not bs:
            continue
        b = rng.choice(bs)
        c = (b * b - D) // a
        if math.gcd(math.gcd(a, 2 * b), c) != 1:
            continue
        q = rng.choice((1, 1, 1, 2, 3, 5))
        return QuadIdeal(D, q, a, b)


# --- scalar utilities -------------------------------------------------------

def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_is_probable_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5000))
    for n in range(-3, 5000):
        assert is_probable_prime(n) == (n in sieve)
    # a few large knowns
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime((2**31 - 1) * (2**61 - 1))


def test_factorint_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fac = factorint(n)
        prod = 1
        for p, k in fac.items():
            assert is_probable_prime(p)
            prod *= p**k
        assert prod == n
    assert factorint(1) == {}
    # factorint works on |n|
    assert factorint(-12) == {2: 2, 3: 1}
    assert factorint(2**40) == {2: 40}


def test_factorint_bound_error():
    # product of two 20-digit primes is out of reach for a tiny rho budget
    p = 2**61 - 1
    q = 2305843009213693967  # next prime after 2^61-1
    assert is_probable_prime(q)
    with pytest.raises(FactorizationBoundError):
        factorint(p * q, factor_bound=10)


def test_factor_bound_covers_every_rho_constant(monkeypatch):
    # the rho calls gcd once per block of 128 steps: a budget shared by all
    # its constants bounds the calls, where a budget per constant would
    # allow 19 times as many before the refusal
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return math.gcd(*args)

    monkeypatch.setattr(qr, "gcd", counted)
    bound = 10 ** 5
    with pytest.raises(FactorizationBoundError):
        factorint((2 ** 61 - 1) * 2305843009213693967, factor_bound=bound)
    assert calls <= 2 * bound // 128 + 64


def reference_factorint(n, factor_bound=qr.FACTOR_BOUND):
    """factorint before its block gcds: one % per prime up to the same
    trial bound, then Miller-Rabin on every cofactor."""
    n = abs(n)
    out = {}
    for p in primes_up_to(min(qr._TRIAL_CEILING, math.isqrt(n) + 1)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = qr._brent_rho(m, factor_bound)
        if d is None:
            raise FactorizationBoundError(m)
        stack.extend((d, m // d))
    return out


def assert_factors_as_reference(values, budgets=(qr.FACTOR_BOUND,)):
    for n in values:
        for budget in budgets:
            try:
                want = reference_factorint(n, budget)
            except FactorizationBoundError:
                with pytest.raises(FactorizationBoundError):
                    factorint(n, budget)
            else:
                assert factorint(n, budget) == want, (n, budget)


def test_brent_rho_backtrack_finds_a_proper_divisor(monkeypatch):
    # a batch whose product q meets every prime of n gives gcd(q, n) = n;
    # the rho then steps back from ys one iteration at a time.  The gcd
    # is watched to see that the small n below take that branch
    full = set()

    def watched_gcd(a, b):
        g = math.gcd(a, b)
        if g == b:
            full.add(b)
        return g

    monkeypatch.setattr(qr, "gcd", watched_gcd)
    for n in range(9, 400, 2):
        if all(n % p for p in range(3, math.isqrt(n) + 1, 2)):
            continue
        d = qr._brent_rho(n, qr.FACTOR_BOUND)
        assert d is not None and 1 < d < n and n % d == 0, (n, d)
    assert {25, 35, 49, 55, 65, 77, 91} <= full


def test_factorint_matches_the_reference_on_curve_values():
    # the genus-1 values below 10^9 never reach the rho; the genus-2 ones
    # pass 10^12 from n = -252 on, where the trial bound is the ceiling
    assert_factors_as_reference(n ** 3 - 4 for n in range(-1000, 2))
    assert_factors_as_reference(n ** 5 + n - 1 for n in range(-251, 1))
    assert_factors_as_reference((n ** 5 + n - 1 for n in range(-300, -251)),
                                budgets=(qr.FACTOR_BOUND, 10))


def test_factorint_matches_the_reference_past_the_ceiling():
    # p^2 needs the perfect-square step, p*q the rho, which a budget of
    # 10 does not cover; p, q and r are the least primes above 10^6
    p, q, r = 1000003, 1000033, 1000037
    values = [p * p, p * q, p * p * q, 2 * 3 ** 5 * p * q, p * q * r,
              999983 * p, 999983 * p * q]
    assert_factors_as_reference(values, budgets=(qr.FACTOR_BOUND, 10))


def test_factorint_matches_the_reference_across_block_boundaries():
    # a sieve past 10^6 puts primes above the ceiling into the last block
    # walked; neighbours p_i p_(i+1) put the trial bound between them
    primes = primes_up_to(2 * 10 ** 6)
    values = []
    for i in (127, 255, 12799, 78463, 78497):
        a, b, c = primes[i - 1:i + 2]
        values += [a * b, b * c, a * a * b, a * b * b * c, a * b * c * 7]
    assert qr._PRIME_BLOCK == 128 and primes[78497] == 999983
    assert_factors_as_reference(values, budgets=(qr.FACTOR_BOUND, 10))


def test_factorint_matches_the_reference_on_sympy_built_values():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(103)
    values = []

    def prime(lo, hi):
        # sympy's randprime ignores rng; a seeded draw replays a failure
        return sympy.nextprime(rng.randrange(lo, hi))

    for k in (2, 2, 3, 3) * 5:
        values.append(math.prod(prime(10 ** 3, 10 ** 6) for _ in range(k)))
    for k in (2, 3) * 4:
        values.append(prime(10 ** 6, 10 ** 9) * math.prod(
            prime(10 ** 3, 10 ** 6) for _ in range(k)))
    values += [rng.choice((1, 4, 12)) * v for v in values[:8]]
    assert_factors_as_reference(values, budgets=(qr.FACTOR_BOUND, 10))


def test_scan_values_are_factored_without_a_primality_test(monkeypatch):
    # the genus-1 scan's values are below 10^12: the trial division to
    # isqrt + 1 leaves 1 or a prime, which needs no Miller-Rabin
    calls = 0

    def counted(n):
        nonlocal calls
        calls += 1
        return is_probable_prime(n)

    monkeypatch.setattr(qr, "is_probable_prime", counted)
    for n in range(-400, 2):
        fac = factorint(n ** 3 - 4)
        assert math.prod(p ** e for p, e in fac.items()) == abs(n ** 3 - 4)
    assert calls == 0
    # past the ceiling squared a cofactor is tested: (10^6 + 3)^2
    assert factorint(1000003 ** 2) == {1000003: 2} and calls > 0


def test_square_part_and_squarefree():
    assert square_part(12) == 2
    assert square_part(-12) == 2
    assert square_part(49) == 7
    assert square_part(30) == 1
    assert square_part(720) == 12
    assert square_part(30) == 1
    assert square_part(12) != 1
    assert square_part(1) == 1
    with pytest.raises(ValueError):
        square_part(0)


# --- forms and composition ---------------------------------------------------

def test_form_basics():
    F = IntBinaryForm(2, 2, 3)
    assert F.disc == 4 - 24
    assert F.is_primitive
    assert F(1, 0) == 2 and F(0, 1) == 3 and F(1, 1) == 7
    assert str(F) == "[2,2,3]"
    assert F.conjugate() == IntBinaryForm(2, -2, 3)
    assert not IntBinaryForm(2, 2, 4).is_primitive


def test_reduce_form_known():
    assert reduce_form(IntBinaryForm(3, 4, 3)) == IntBinaryForm(2, 2, 3)
    assert reduce_form(IntBinaryForm(2, -2, 3)) == IntBinaryForm(2, 2, 3)
    assert reduce_form(IntBinaryForm(1, 0, 5)) == IntBinaryForm(1, 0, 5)
    # disc of [15,50,42] is 2500 - 2520 = -20
    assert reduce_form(IntBinaryForm(15, 50, 42)) == reduce_form(
        compose(compose(IntBinaryForm(15, 50, 42), principal_form(-20)),
                principal_form(-20)))


def test_reduce_form_invariants_random():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randrange(1, 30)
        b = rng.randrange(-60, 61)
        # force negative discriminant
        c = rng.randrange((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 40)
        F = IntBinaryForm(a, b, c)
        assert F.disc < 0
        R = reduce_form(F)
        assert R.disc == F.disc
        assert -R.a < R.b2 <= R.a <= R.c
        if R.a == R.c:
            assert R.b2 >= 0
        assert reduce_form(R) == R


def test_principal_form():
    assert principal_form(-20) == IntBinaryForm(1, 0, 5)
    assert principal_form(-23) == IntBinaryForm(1, 1, 6)
    assert principal_form(-4) == IntBinaryForm(1, 0, 1)


def test_compose_identity_and_inverse():
    rng = random.Random(3)
    for D in DS:
        disc = 4 * D
        one = principal_form(disc)
        for _ in range(50):
            I = random_invertible_ideal(rng, D)
            F = ideal_to_class(I).rep
            assert compose(F, one) == F
            assert compose(F, F.conjugate()) == one
            assert compose(F, one).disc == disc


def test_compose_commutative_associative():
    rng = random.Random(5)
    for D in (-5, -21):
        forms = [ideal_to_class(random_invertible_ideal(rng, D)).rep
                 for _ in range(8)]
        for F in forms:
            for G in forms:
                assert compose(F, G) == compose(G, F)
                for H in forms[:4]:
                    assert compose(compose(F, G), H) == compose(F, compose(G, H))


def test_compose_rejects_mismatched_disc():
    with pytest.raises(DiscriminantMismatchError):
        compose(principal_form(-20), principal_form(-24))


def test_compose_rejects_imprimitive():
    with pytest.raises(NonInvertibleError):
        compose(IntBinaryForm(2, 2, 4), IntBinaryForm(2, 2, 4))


# --- the composition kernel against the lattice product ----------------------

def lattice_compose(F1, F2):
    """Composition as the product of the two ideals' lattices in the basis
    {1, w}, w = (s + sqrt(disc))/2: a Hermite reduction of the four product
    rows, read back as a form and reduced.  Shares only the final
    reduction with the direct formula."""
    disc = F1.disc
    sigma = disc % 2
    rho = (disc - sigma) // 4
    t1 = (F1.b2 + sigma) // 2 % F1.a
    t2 = (F2.b2 + sigma) // 2 % F2.a
    _, a, t = qr._hnf_module(
        qr._ideal_rows_product(F1.a, t1, F2.a, t2, rho, sigma))
    c, rest = divmod(t * t - sigma * t - rho, a)
    assert rest == 0
    return reduce_form(IntBinaryForm(a, 2 * t - sigma, c))


def assert_composes_like_lattices(F, G):
    want = lattice_compose(F, G)
    assert qr._compose((F.a, F.b2, F.c), (G.a, G.b2, G.c)) == \
        (want.a, want.b2, want.c), (F, G)
    assert compose(F, G) == want, (F, G)


def test_compose_matches_lattices_on_all_small_pairs():
    # every ordered pair of reduced forms, squares included
    pairs = 0
    for disc in range(-3, -401, -1):
        if disc % 4 not in (0, 1):
            continue
        forms = enumerate_reduced_forms(disc)
        for F in forms:
            for G in forms:
                assert_composes_like_lattices(F, G)
                pairs += 1
    assert pairs > 5000


def random_prime_form(rng, disc, primes):
    """A primitive form [p, b, c] of disc for a random odd prime p with
    disc a square mod p, moved off the reduced domain by random SL2
    steps."""
    while True:
        p = rng.choice(primes)
        r = sqrt_mod(disc, p)
        if r is None:
            continue
        b = r if r % 2 == disc % 2 else r + p
        F = IntBinaryForm(p, b, (b * b - disc) // (4 * p))
        if F.is_primitive:
            break
    for _ in range(rng.randrange(4)):
        k = rng.randrange(-50, 51)
        a, b, c = F.a, F.b2 + 2 * F.a * k, F.a * k * k + F.b2 * k + F.c
        F = IntBinaryForm(c, -b, a) if rng.random() < 0.5 else \
            IntBinaryForm(a, b, c)
    return F


def test_compose_matches_lattices_on_random_large_pairs():
    rng = random.Random(71)
    primes = primes_up_to(10 ** 5)[1:]
    for _ in range(400):
        disc = -4 * rng.randrange(1, 10 ** rng.randrange(1, 15) + 1) \
            + rng.randrange(2)
        F = random_prime_form(rng, disc, primes)
        G = random_prime_form(rng, disc, primes)
        H = compose(F, G)
        assert F.disc == G.disc == H.disc == disc
        for X, Y in ((F, G), (F, F), (F, F.conjugate()), (H, F), (H, H),
                     (H, compose(H, G))):
            assert_composes_like_lattices(X, Y)


def test_class_loops_run_on_the_kernel_only(monkeypatch):
    # no check, wrapper or identity form is made inside order, a power or
    # order_dividing
    x = IdealClass.from_form(IntBinaryForm(2, 1, 5490))  # order 256
    want = (x ** 200).rep

    def forbidden(*args):
        raise AssertionError("called inside a class loop")
    monkeypatch.setattr(IntBinaryForm, "is_primitive", property(forbidden))
    monkeypatch.setattr(IntBinaryForm, "disc", property(forbidden))
    for name in ("compose", "principal_form", "reduce_form"):
        monkeypatch.setattr(qr, name, forbidden)
    assert (x ** 200).rep == want
    monkeypatch.setattr(qr, "IdealClass", forbidden)
    assert x.order() == 256
    assert x.order_dividing(512) == 256


def test_compose_rejects_forms_that_are_not_positive_definite():
    with pytest.raises(ValueError):
        compose(IntBinaryForm(1, 1, -1), IntBinaryForm(1, 1, -1))  # disc 5
    with pytest.raises(ValueError):
        compose(IntBinaryForm(-1, 0, -5), IntBinaryForm(-1, 0, -5))


def test_ideal_class_orders():
    two = IdealClass.from_form(IntBinaryForm(2, 2, 3))  # disc -20
    assert two.order() == 2
    assert not two.is_trivial
    assert (two * two).is_trivial
    assert two.inverse() == two
    three = IdealClass.from_form(IntBinaryForm(2, 1, 3))  # disc -23
    assert three.order() == 3
    assert three.inverse() == IdealClass.from_form(IntBinaryForm(2, -1, 3))
    assert IdealClass.identity(-20).order() == 1


def test_class_order_cap_is_a_resource_limit():
    three = IdealClass.from_form(IntBinaryForm(2, 1, 3))  # disc -23
    assert three.order(cap=3) == 3
    with pytest.raises(OrderBoundError):
        three.order(cap=2)


def repeated_composition_order(F):
    """Order of the class of the reduced form F, one composition a step,
    on (a, b, c) triples by the kernel that compose wraps."""
    x = (F.a, F.b2, F.c)
    one = qr._principal(F.disc)
    acc, k = x, 1
    while acc != one:
        acc = qr._compose(acc, x)
        k += 1
    return k


def test_class_order_matches_repeated_composition():
    for disc in range(-3, -3001, -1):
        if disc % 4 not in (0, 1):
            continue
        h = class_number_disc(disc)
        forms = enumerate_reduced_forms(disc)
        assert h == len(forms), disc
        for F in forms:
            x = IdealClass(disc, F)
            want = repeated_composition_order(F)
            assert x.order() == want, (disc, F)
            assert x.order_dividing(h) == want, (disc, F)
            if disc >= -1000:
                assert x.order(cap=want) == want, (disc, F)
                with pytest.raises(OrderBoundError):
                    x.order(cap=want - 1)


# (order, disc) of the class of [2, 1, (1 - disc)/8], with orders on the
# step boundaries s - 1, s, s + 1, s^2, s^2 + s of the baby-step
# giant-step search, for s = 2, 4, 8, 16, 32
BOUNDARY_ORDERS = [
    (2, -15), (3, -23), (4, -39), (5, -47), (6, -87), (7, -71), (8, -95),
    (9, -199), (15, -239), (16, -407), (17, -383), (20, -711), (31, -719),
    (32, -1119), (33, -839), (64, -2519), (72, -3695), (256, -43919),
    (272, -40199), (1024, -328319), (1056, -553199),
]


@pytest.mark.parametrize("k, disc", BOUNDARY_ORDERS)
def test_class_order_on_step_boundaries(k, disc):
    x = IdealClass.from_form(IntBinaryForm(2, 1, (1 - disc) // 8))
    assert x.disc == disc
    assert repeated_composition_order(x.rep) == k
    assert x.order() == k
    assert x.order(cap=k) == k
    with pytest.raises(OrderBoundError):
        x.order(cap=k - 1)


# (order, disc) of the class of [2, 1, (1 - disc)/8], with orders on the
# edges of the search's schedule, 16 babies and growth 4: the last baby
# event 2s0 = 32, the first window [33, 65] centred at 49 and the next
# from 66, the last window before the first doubling [1023, 1055], the
# first after it [1056, 1120], and one past that
SCHEDULE_ORDERS = [
    (16, -407), (32, -1119), (33, -839), (65, -4271), (66, -3599),
    (1055, -503039), (1056, -553199), (1120, -564695), (1121, -366791),
]


@pytest.mark.parametrize("k, disc", SCHEDULE_ORDERS)
def test_class_order_on_schedule_edges(k, disc):
    assert (qr._BSGS_BABIES, qr._BSGS_GROWTH) == (16, 4)
    x = IdealClass.from_form(IntBinaryForm(2, 1, (1 - disc) // 8))
    assert x.disc == disc
    assert repeated_composition_order(x.rep) == k
    assert x.order() == k
    assert x.order(cap=k) == k
    with pytest.raises(OrderBoundError):
        x.order(cap=k - 1)


@pytest.mark.parametrize("form, k", [
    ((2, 0, 3), 2),     # b = 0, disc -24
    ((2, 2, 3), 2),     # b = a, disc -20
    ((2, 1, 2), 2),     # a = c, disc -15
    ((2, 1, 3), 3),     # x^2 = x^-1, disc -23
    ((2, 1, 5), 4),     # x^2 is its own inverse, disc -39
    ((2, 1, 6), 5),     # x^3 = x^-2, disc -47
])
def test_class_order_ends_during_the_baby_steps(form, k):
    x = IdealClass.from_form(IntBinaryForm(*form))
    assert x.rep == IntBinaryForm(*form)
    assert repeated_composition_order(x.rep) == k
    assert x.order() == k
    assert x.order(cap=k) == k
    with pytest.raises(OrderBoundError, match=f"exceeds the cap {k - 1}$"):
        x.order(cap=k - 1)


def test_class_order_matches_order_dividing_on_large_discriminants():
    # random classes of discriminants -p, p = 7 mod 8 prime in [10^4, 10^6],
    # whose class numbers are among the largest there: a few orders pass
    # 1055, where the babies first double
    rng = random.Random(29)
    primes = primes_up_to(2000)[1:]
    orders = []
    while len(orders) < 150:
        p = rng.randrange(10 ** 4, 10 ** 6 + 1)
        if p % 8 != 7 or not is_probable_prime(p):
            continue
        F = compose(random_prime_form(rng, -p, primes),
                    random_prime_form(rng, -p, primes))
        x = IdealClass.from_form(F)
        k = x.order()
        assert k == x.order_dividing(class_number_disc(-p)), F
        orders.append(k)
    assert sum(k > 1055 for k in orders) >= 3, sorted(orders)


def test_class_order_refuses_a_colliding_baby(monkeypatch):
    # a kernel that returns x^-16 in place of x^17, the first baby past
    # the initial 16, makes that baby meet an earlier one
    x = IdealClass.from_form(IntBinaryForm(2, 1, (1 + 553199) // 8))
    t = (x.rep.a, x.rep.b2, x.rep.c)
    one = qr._principal(x.disc)
    x17, x16 = qr._power(t, 17, one), qr._power(t, 16, one)
    kernel = qr._compose

    def wrong(f, g):
        got = kernel(f, g)
        return qr._reduce(x16[0], -x16[1], x16[2]) if got == x17 else got
    monkeypatch.setattr(qr, "_compose", wrong)
    with pytest.raises(InternalInconsistencyError,
                       match="gives the order 33 .* up to 1055 was"):
        x.order()


def test_class_powers():
    x = IdealClass.from_form(IntBinaryForm(2, 1, 5490))  # order 256
    acc = IdealClass.identity(x.disc)
    for k in range(300):
        assert x ** k == acc
        assert x ** -k == (x ** k).inverse()
        acc = acc * x


def test_order_dividing_refuses_a_wrong_multiple():
    three = IdealClass.from_form(IntBinaryForm(2, 1, 3))  # disc -23
    assert three.order_dividing(12) == 3
    assert IdealClass.identity(-23).order_dividing(1) == 1
    for m in (1, 2, 4, 10):
        with pytest.raises(InternalInconsistencyError):
            three.order_dividing(m)
    with pytest.raises(ValueError):
        three.order_dividing(0)


def test_class_order_divides_class_number():
    rng = random.Random(13)
    for D in DS:
        h = class_number(D)
        for _ in range(20):
            I = random_invertible_ideal(rng, D)
            assert h % ideal_to_class(I).order() == 0


# --- ideals -----------------------------------------------------------------

def test_quad_ideal_validation():
    QuadIdeal(-5, 1, 3, 1)  # 1^2-(-5) = 6 and 3 | 6: valid
    with pytest.raises(ValueError):
        QuadIdeal(-5, 1, 4, 1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        QuadIdeal(-5, 1, 3, 5)  # b out of range
    with pytest.raises(ValueError):
        QuadIdeal(5, 1, 1, 0)  # D must be negative
    with pytest.raises(ValueError):
        QuadIdeal(-5, 0, 3, 1)


def test_unit_ideal_and_norm():
    U = unit_ideal(-5)
    assert (U.q, U.a, U.b) == (1, 1, 0)
    assert ideal_norm(U) == 1
    assert ideal_norm(QuadIdeal(-5, 3, 2, 1)) == 18


def test_ideal_from_generators_matches_oracle():
    rng = random.Random(17)
    for _ in range(300):
        D = rng.choice(DS)
        gens = [(rng.randrange(-30, 31), rng.randrange(-30, 31))
                for _ in range(rng.randrange(1, 4))]
        rows = []
        for u, v in gens:
            rows.append((u, v))
            rows.append((v * D, u))  # (u+vy)*y
        try:
            want = hnf_oracle(rows)
        except AssertionError:
            continue  # degenerate span, e.g. all zero gens
        got = ideal_from_generators(D, gens)
        assert (got.q, got.a, got.b) == want


def test_fact_i_coprime_product():
    # (a1, y-b)(a2, y-b) = (a1*a2, y-b) for coprime a1, a2
    rng = random.Random(19)
    seen = 0
    while seen < 300:
        D = rng.choice(DS)
        a1 = rng.randrange(2, 40)
        a2 = rng.randrange(2, 40)
        if math.gcd(a1, a2) != 1:
            continue
        n = a1 * a2
        bs = [b for b in range(n) if (b * b - D) % n == 0]
        if not bs:
            continue
        b = rng.choice(bs)
        I = QuadIdeal(D, 1, a1, b % a1)
        J = QuadIdeal(D, 1, a2, b % a2)
        got = ideal_mul(I, J)
        assert (got.q, got.a, got.b) == (1, n, b)
        seen += 1


def test_conjugate_product_is_norm():
    # (a, y-b)(a, y+b) = (a): the product with the conjugate is rational
    rng = random.Random(23)
    for _ in range(300):
        D = rng.choice(DS)
        I = random_invertible_ideal(rng, D)
        got = ideal_mul(I, ideal_conjugate(I))
        assert (got.q, got.a, got.b) == (I.q * I.q * I.a, 1, 0)
        assert ideal_norm(got) == ideal_norm(I) ** 2


def test_norm_multiplicative():
    rng = random.Random(29)
    for D in DS:
        for _ in range(200):
            I = random_invertible_ideal(rng, D)
            J = random_invertible_ideal(rng, D)
            assert ideal_norm(ideal_mul(I, J)) == ideal_norm(I) * ideal_norm(J)


def test_ideal_mul_spec_example():
    got = ideal_mul(QuadIdeal(-5, 1, 2, 1), QuadIdeal(-5, 1, 3, 1))
    assert (got.q, got.a, got.b) == (1, 6, 1)


def test_fact_iii_unit_ideal():
    # a together with r + s*y generates everything when gcd(a, r^2 - s^2 D) = 1
    rng = random.Random(31)
    seen = 0
    while seen < 200:
        D = rng.choice(DS)
        a = rng.randrange(2, 50)
        r = rng.randrange(-20, 21)
        s = rng.randrange(-20, 21)
        if math.gcd(a, r * r - s * s * D) != 1:
            continue
        got = ideal_from_generators(D, [(a, 0), (r, s)])
        assert got == unit_ideal(D)
        seen += 1


def test_extend_ideal_fact_ii():
    # gcd(a, e) = 1: extension is (a, y - b*e') with e*e' = 1 mod a
    rng = random.Random(37)
    seen = 0
    while seen < 300:
        D = rng.choice(DS)
        a = rng.randrange(2, 60)
        e = rng.randrange(1, 15)
        if math.gcd(a, e) != 1:
            continue
        bs = [b for b in range(a) if (b * b - e * e * D) % a == 0]
        if not bs:
            continue
        b = rng.choice(bs)
        I = extend_ideal(a, b, e, D)
        einv = pow(e, -1, a)
        assert (I.q, I.a, I.b) == (1, a, (b * einv) % a)
        seen += 1


def test_extend_ideal_spec_examples():
    I = extend_ideal(3, 1, 2, -5)
    assert (I.q, I.a, I.b) == (1, 3, 2)
    J = extend_ideal(3, 2, 1, -5)
    assert (J.q, J.a, J.b) == (1, 3, 2)
    with pytest.raises(DivisibilityError):
        extend_ideal(4, 1, 1, -5)


def vp(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def dichotomy_domain(a, b, e):
    """Triples where the two-value shape a' in {a/d, a/d^2} actually holds.

    Per prime p dividing d: either v_p(a) = v_p(d) (the extension loses
    exactly the d-part) or v_p(a) = 2 v_p(d) with v_p(e) > v_p(d) = v_p(b)
    (it loses the full square).  The branch must also be the same for every
    prime, otherwise the losses mix into something in between.
    """
    d = math.gcd(math.gcd(a, e), b)
    if d == 1:
        return True
    branches = set()
    m = d
    p = 2
    while m > 1:
        while m % p:
            p += 1
        k = vp(d, p)
        if vp(a, p) == k:
            branches.add("d")
        elif vp(a, p) == 2 * k and vp(e, p) > k and vp(b, p) == k:
            branches.add("d2")
        else:
            return False
        m //= p ** vp(m, p)
        p += 1
    return len(branches) == 1


def assert_extension_shape(a, b, e, D):
    """Shape of extend_ideal(a, b, e, D) against the sweep oracle; returns
    d = gcd(a, e, b).  The q-part is always d, and the rational part a'
    divides a with the whole quotient a/(d*a') supported on primes of d.
    So a stripped of the primes of d divides a', a' <= a, and a' = a
    when d = 1.  The sharper two-value claim a' in {a/d, a/d^2} holds on
    dichotomy_domain only; see the counterexample test below for what
    happens outside it."""
    I = extend_ideal(a, b, e, D)
    d = math.gcd(math.gcd(a, e), b)
    assert I.q == d
    assert a % (d * I.a) == 0
    collapse = a // (d * I.a)
    assert math.gcd(collapse, d ** 64) == collapse  # primes of collapse divide d
    if dichotomy_domain(a, b, e):
        allowed = {a // d}
        if a % (d * d) == 0:
            allowed.add(a // (d * d))
        assert I.a in allowed
    assert (I.q, I.a, I.b) == hnf_oracle(module_rows(a, b, e, D))
    return d


def raw_pipeline_values():
    """(|A(n)|, B(n), e, f(n)) of raw, unshifted value forms: Q = (2, 2)
    and 3Q on y^2 = x^3 - 4 for n from 1 down to -39, then multiples of
    P = (1, 1) on y^2 = x^5 + x - 1 where d = gcd(A(n), e, B(n)) > 1."""
    g1 = new_curve(IntPoly([-4, 0, 0, 1]))
    g2 = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))
    Q, P = from_point(g1, 2, 2), from_point(g2, 1, 1)
    cases = [(g1, D, n) for n in range(1, -40, -1)
             for D in (Q, jac_smul(g1, 3, Q))]
    # 3P at -1: d = 2 and e = 8; 5P at 0: d = 13; 6P at -3: d = 5
    cases += [(g2, jac_smul(g2, k, P), n) for k, n in ((3, -1), (5, 0),
                                                       (6, -3))]
    for curve, D, n in cases:
        v = specialize_form(to_alt_mumford(curve, D), curve, n)
        yield abs(v.a_val), v.b_val, v.e, v.fval


def test_extend_ideal_shape_vs_oracle():
    rng = random.Random(41)
    seen = 0
    while seen < 400:
        D = rng.choice(DS)
        a = rng.randrange(1, 80)
        e = rng.randrange(1, 16)
        b = rng.randrange(0, a)
        if (b * b - e * e * D) % a != 0:
            continue
        assert_extension_shape(a, b, e, D)
        seen += 1
    # the ideals delta_n starts from, before coprime_shift; b may lie
    # outside [0, a)
    ds = [assert_extension_shape(*v) for v in raw_pipeline_values()]
    assert len(ds) == 85 and sum(d > 1 for d in ds) == 3


def test_extend_ideal_two_value_shape_has_counterexamples():
    # The two-value shape fails off the clean domain.  Both patterns are
    # pinned so a future "fix" that silently changes the extension gets
    # caught; the module really is (8)(2, y) resp. (6)(1, y), verified by
    # the independent sweep oracle and by hand.
    I = extend_ideal(64, 48, 8, -6)
    assert (I.q, I.a, I.b) == (8, 2, 0)
    assert (I.q, I.a, I.b) == hnf_oracle(module_rows(64, 48, 8, -6))
    assert I.a not in {64 // 8, 64 // 64}
    assert ideal_norm(I) == 128
    # mixed branches: p=2 loses one factor, p=3 loses its square
    J = extend_ideal(18, 6, 18, -5)
    assert (J.q, J.a, J.b) == (6, 1, 0)
    assert (J.q, J.a, J.b) == hnf_oracle(module_rows(18, 6, 18, -5))


def test_form_to_ideal_round_trip():
    rng = random.Random(43)
    for D in DS:
        for _ in range(100):
            I = random_invertible_ideal(rng, D)
            F = ideal_to_class(I).rep
            J = form_to_ideal(F, D)
            assert ideal_to_class(J) == ideal_to_class(I)
            assert ideal_norm(J) == F.a


def test_ideal_to_class_spec_examples():
    assert ideal_to_class(unit_ideal(-5)).rep == IntBinaryForm(1, 0, 5)
    assert ideal_to_class(QuadIdeal(-5, 1, 3, 2)).rep == IntBinaryForm(2, 2, 3)
    assert ideal_to_class(QuadIdeal(-5, 1, 2, 1)).rep == IntBinaryForm(2, 2, 3)
    with pytest.raises(NonInvertibleError):
        # (2, y-1) in Z[sqrt(-3)]: form [2,2,2] is imprimitive
        ideal_to_class(QuadIdeal(-3, 1, 2, 1))


def test_is_principal():
    assert ideal_to_class(unit_ideal(-5)).is_trivial
    assert ideal_to_class(QuadIdeal(-5, 7, 1, 0)).is_trivial
    assert not ideal_to_class(QuadIdeal(-5, 1, 3, 2)).is_trivial
    I = QuadIdeal(-5, 1, 3, 2)
    assert ideal_to_class(ideal_mul(I, ideal_conjugate(I))).is_trivial


def test_class_order_spec_examples():
    assert ideal_to_class(unit_ideal(-5)).order() == 1
    assert ideal_to_class(QuadIdeal(-5, 1, 3, 2)).order() == 2
    assert ideal_to_class(QuadIdeal(-5, 1, 2, 1)).order() == 2


# --- class numbers ----------------------------------------------------------

def enumerate_reduced_forms(disc):
    """All reduced primitive forms of negative discriminant, by direct scan
    of the reduced domain -a < b <= a <= c (b >= 0 when a == c or b == a)."""
    out = []
    amax = math.isqrt(-disc // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append(IntBinaryForm(a, b, c))
    return out


def closure_size(disc):
    """Size of the group generated by all reduced forms under composition."""
    forms = enumerate_reduced_forms(disc)
    seen = set(forms)
    frontier = list(forms)
    while frontier:
        F = frontier.pop()
        for G in forms:
            H = compose(F, G)
            if H not in seen:
                seen.add(H)
                frontier.append(H)
    return len(seen)


@pytest.mark.parametrize(
    "disc, h",
    [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 2), (-20, 2),
     (-23, 3), (-24, 2), (-47, 5), (-56, 4), (-71, 7), (-163, 1), (-231, 12)],
)
def test_class_number_disc_known(disc, h):
    assert class_number_disc(disc) == h
    assert len(enumerate_reduced_forms(disc)) == h
    assert closure_size(disc) == h


def test_class_number_disc_all_small():
    for disc in range(-200, 0):
        if disc % 4 not in (0, 1):
            continue
        want = len(enumerate_reduced_forms(disc))
        assert class_number_disc(disc) == want, disc


def test_count_on_each_two_adic_class_at_every_scale():
    # 20 fundamental discriminants against the count over b: each class
    # of the 2-part of the roots, disc = 1 or 5 mod 8 and 4d with disc = 8
    # or 12 mod 16, in each of five bands of |disc| from 10^3 to 10^10.
    # Only disc = 1 mod 8 pairs the roots b, -b at 2; the other classes
    # pair them at the first odd split prime of a, or not at all
    from test_class_number_oracle import class_number_by_b, is_fundamental
    rng = random.Random(1013)
    for band in range(5):
        for m, r in ((8, 1), (8, 5), (16, 8), (16, 12)):
            disc = 0
            while not (disc and is_fundamental(disc)):
                n = int(10 ** rng.uniform(3 + 1.4 * band, 4.4 + 1.4 * band))
                disc = -n - (-n - r) % m
            assert class_number_disc(disc) == class_number_by_b(disc), disc


def test_class_number_for_orders():
    assert class_number(-1) == 1
    assert class_number(-2) == 1
    assert class_number(-5) == 2
    assert class_number(-6) == 2
    assert class_number(-13) == 2
    assert class_number(-14) == 4
    assert class_number(-21) == 4


def test_class_number_past_the_cap_is_refused(monkeypatch):
    # refused before any prime is sieved; the message gives the size
    def no_sieve(limit):
        raise AssertionError("the sieve ran")
    monkeypatch.setattr(qr, "_sieve", no_sieve)
    with pytest.raises(ClassNumberBoundError, match="102 bits"):
        class_number_disc(-4 * 10 ** 30)


def test_a_count_frees_its_tables_on_return():
    # the count's roots and its array of largest primes form no cycle, so
    # they go when it returns, not at the next collection
    gc.collect()
    gc.disable()
    try:
        assert class_number_disc(-4000000000004) == 938880
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_class_number_walks_only_to_its_fundamental_part(monkeypatch):
    # -7*10^16 = (10^8)^2 * -7: the conductor comes from the square part,
    # so no sieve passes the trial ceiling (a walk to sqrt(7*10^16/3)
    # would ask for 152,752,523)
    sieve = qr._sieve

    def capped(limit):
        assert limit <= qr._TRIAL_CEILING, limit
        return sieve(limit)
    monkeypatch.setattr(qr, "_sieve", capped)
    assert class_number_disc(-7 * 10 ** 16) == 60000000
    # with the count stubbed, splitting -4*(10^13 + 37) builds at most the
    # block products of the primes to 10^6, 614 blocks of 128
    monkeypatch.setattr(qr, "_count_reduced_forms", lambda disc: 1)
    monkeypatch.setattr(qr, "_BLOCKS_OF", [])
    monkeypatch.setattr(qr, "_BLOCK_PRODUCTS", [])
    class_number_disc(-4 * (10 ** 13 + 37))
    assert 0 < len(qr._BLOCK_PRODUCTS) <= 614


def test_class_number_disc_needs_no_numpy(monkeypatch):
    # with numpy blocked, any import of it raises ImportError
    monkeypatch.setitem(sys.modules, "numpy", None)
    vals = [-1000003, -999960, -4000004]
    assert [class_number_disc(v) for v in vals] == [105, 288, 1032]


def test_sqrt_mod_against_brute_force():
    for p in primes_up_to(2000)[1:]:
        squares = {r * r % p for r in range(p)}
        for n in range(p):
            r = sqrt_mod(n, p)
            if n == 0:
                assert r == 0
            elif n in squares:
                assert r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
    # p - 1 = 2^16 and 3 * 2^18: long runs of the Tonelli-Shanks loop
    rng = random.Random(67)
    for p in (65537, 786433):
        for _ in range(300):
            n = rng.randrange(-p * p, p * p)
            r = sqrt_mod(n, p)
            if pow(n, (p - 1) // 2, p) == p - 1:
                assert r is None, (n, p)
            else:
                assert r * r % p == n % p, (n, p)


# --- conductors and the pushforward ------------------------------------------

def test_conductor_data_spec_values():
    cd = conductor_data(-5)
    assert (cd.S, cd.d, cd.disc_max, cd.conductor) == (1, -5, -20, 1)
    cd = conductor_data(-12)
    assert (cd.S, cd.d, cd.disc_max, cd.conductor) == (2, -3, -3, 4)
    cd = conductor_data(-4)
    assert (cd.S, cd.d, cd.disc_max, cd.conductor) == (2, -1, -4, 2)
    cd = conductor_data(-45)
    assert (cd.S, cd.d, cd.disc_max, cd.conductor) == (3, -5, -20, 3)


def test_conductor_identity_holds():
    rng = random.Random(47)
    for _ in range(200):
        v = -rng.randrange(1, 10**6)
        cd = conductor_data(v)
        assert cd.S * cd.S * cd.d == v
        assert square_part(-cd.d) == 1 or cd.d == -1
        assert cd.conductor**2 * cd.disc_max == 4 * v


def test_push_to_maximal_examples():
    # already-maximal case: class and order survive unchanged
    I = QuadIdeal(-5, 1, 3, 2)
    cls = push_to_maximal_helper(I, -5)
    assert cls.rep == IntBinaryForm(2, 2, 3)
    assert cls.order() == 2
    # principal ideal in a non-maximal order maps to the trivial class
    P = QuadIdeal(-12, 2, 1, 0)  # the ideal (2) in Z[sqrt(-12)]
    cls = push_to_maximal_helper(P, -12)
    assert cls.is_trivial
    assert cls.disc == -3


def push_to_maximal_helper(I, v):
    return qr.push_to_maximal(I, conductor_data(v))


def reference_push(I, cd):
    """push_to_maximal before it shared extend_ideal's normal form: the
    four rows of q*(a, y - b) in the basis {1, w} of O_K, with y = S*w or
    2S*w - S, their Hermite form, and the class of its (a, w - t)."""
    disc = cd.disc_max
    rho, sigma = qr._omega_rho_sigma(disc)
    y_u, y_v = (0, cd.S) if sigma == 0 else (-cd.S, 2 * cd.S)
    gens = [(I.q * I.a, 0), (I.q * (y_u - I.b), I.q * y_v)]
    _, a, t = qr._hnf_module(qr._generator_rows(gens, rho, sigma))
    return qr._class_from_hnf(disc, a, t)


def test_push_to_maximal_matches_the_four_row_reference(monkeypatch):
    # every invertible (a, y - b) with a < 40 and q in {1, 3}; the values
    # cover disc_max even (-5, -8, -16, -45, -180) and odd (-3, -27, -63,
    # -567), S = 1 (-3, -5) and S > 1, a | S ((4, y - 2) at -16 and
    # (9, y - 3) at -567) and gcd(a, S) > 1 with a not dividing S ((4, y - 2)
    # at -8 and (9, y - 3) at -27)
    cases = []
    for v in (-3, -5, -8, -16, -27, -45, -63, -180, -567):
        cd = conductor_data(v)
        for a in range(1, 40):
            for b in range(a):
                c, rest = divmod(b * b - v, a)
                if rest == 0 and math.gcd(math.gcd(a, 2 * b), c) == 1:
                    cases += [(QuadIdeal(v, q, a, b), cd) for q in (1, 3)]
    calls = {"_inverse": 0, "_hnf_module": 0}

    def counted(name):
        f = getattr(qr, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(qr, name, counted(name))
    got = [qr.push_to_maximal(I, cd) for I, cd in cases]
    # both branches of the shared normal form ran
    assert calls["_inverse"] > 0 and calls["_hnf_module"] > 0, calls
    monkeypatch.undo()
    for (I, cd), cls in zip(cases, got):
        assert cls == reference_push(I, cd), (cd.value, I)


def test_push_to_maximal_is_homomorphism():
    rng = random.Random(53)
    for v in (-12, -20, -45, -48):
        cd = conductor_data(v)
        for _ in range(40):
            I = random_invertible_ideal(rng, v)
            J = random_invertible_ideal(rng, v)
            lhs = qr.push_to_maximal(ideal_mul(I, J), cd)
            rhs = qr.push_to_maximal(I, cd) * qr.push_to_maximal(J, cd)
            assert lhs == rhs


def test_push_to_maximal_kernel_bound():
    # the kernel on the cyclic subgroup generated by each ideal is <= 4S^2
    rng = random.Random(59)
    for v in (-12, -20, -45, -48, -80):
        cd = conductor_data(v)
        for _ in range(30):
            I = random_invertible_ideal(rng, v)
            below = ideal_to_class(I).order()
            above = qr.push_to_maximal(I, cd).order()
            assert below % above == 0
            assert below // above <= 4 * cd.S * cd.S


def test_kernel_route_matches_direct_order():
    # x^om lies in the kernel of the push, om the order of x's image; the
    # values v cover the unit indices 3 (disc_max -3), 2 (-4) and 1
    rng = random.Random(61)
    for v in (-4, -12, -16, -27, -36, -48, -75, -80, -108, -144, -300):
        cd = conductor_data(v)
        k = kernel_order(cd)
        assert k * class_number_disc(cd.disc_max) == class_number_disc(4 * v)
        for _ in range(20):
            I = random_invertible_ideal(rng, v)
            x = ideal_to_class(I)
            om = qr.push_to_maximal(I, cd).order()
            assert om * (x ** om).order_dividing(k) == x.order(), (v, I)


def test_class_number_from_conductor_matches_enumeration():
    # the two large v put primes of the conductor into the sieve:
    # -1119999888 = 12^2 * -7777777 (m = S = 12) and -882485100 =
    # 210^2 * -20011 (d = 1 mod 4, so m = 2S = 420)
    known = {-1119999888: 20480, -882485100: 21312}
    for v in (-5, -12, -16, -20, -36, -45, -48, -80, -99, -1119999888,
              -882485100):
        cd = conductor_data(v)
        h = class_number_disc(4 * v)
        assert class_number_from_conductor(
            cd, class_number_disc(cd.disc_max)) == h, v
        assert known.get(v, h) == h, v


# --- the direct extension, the conductor cache and the kernel primes ---------

def test_extend_ideal_direct_matches_generators():
    # gcd(a, e) = 1: one modular inverse gives the ideal, no Hermite step;
    # the span's own normal form is the oracle
    # D = t^2 mod a and b = e*t mod a make a | b^2 - e^2*D
    rng = random.Random(67)
    seen = 0
    while seen < 300:
        a = rng.randrange(1, 10 ** 6)
        e = rng.randrange(1, 10 ** 4)
        if math.gcd(a, e) != 1:
            continue
        t = rng.randrange(a)
        D = t * t - a * rng.randrange(t * t // a + 1, t * t // a + 10 ** 6)
        b = e * t % a + a * rng.randrange(-10 ** 6, 10 ** 6)
        assert extend_ideal(a, b, e, D) == \
            ideal_from_generators(D, [(a, 0), (-b, e)])
        seen += 1


def test_extend_ideal_with_entries_longer_than_a():
    # b and e far longer than a, as for large multiples of a divisor, with
    # gcd(a, e) = 1 (one inverse) and gcd(a, e) > 1 (the Hermite form, on
    # b and e reduced mod a): the same ideal as the span's own normal form
    rng = random.Random(83)
    for coprime in (True, False):
        seen = 0
        while seen < 100:
            a = rng.randrange(2, 10 ** 6)
            e = rng.randrange(1, 10 ** 40)
            if (math.gcd(a, e) == 1) != coprime:
                continue
            t = rng.randrange(a)
            D = t * t - a * rng.randrange(t * t // a + 1,
                                          t * t // a + 10 ** 6)
            b = e * t % a + a * rng.randrange(10 ** 40)
            assert extend_ideal(a, b, e, D) == \
                ideal_from_generators(D, [(a, 0), (-b, e)]), (a, coprime)
            seen += 1
    # a refusal names the sizes of the entries given, not of their residues
    with pytest.raises(DivisibilityError) as err:
        extend_ideal(7, 10 ** 5000, 10 ** 4000, -2)
    assert str(err.value) == ("a of 3 bits does not divide b^2 - e^2*D "
                              "(b, e, D of 16610, 13288, 2 bits)")


def test_extend_ideal_refusal_names_sizes_not_values():
    # a = 10^5000 + 1 is past the int-to-str limit and does not divide 3
    with pytest.raises(DivisibilityError, match="16610 bits"):
        extend_ideal(10 ** 5000 + 1, 1, 1, -2)


def test_quad_ideal_refusal_names_sizes_not_values():
    # a = 10^5000 + 1 is past the int-to-str limit and does not divide 3
    with pytest.raises(ValueError, match="a of 16610 bits does not divide"):
        QuadIdeal(-2, 1, 10 ** 5000 + 1, 1)
    with pytest.raises(ValueError, match="b of 16610 bits is out of range"):
        QuadIdeal(-2, 1, 3, 10 ** 5000 + 1)


# N = 10^4400 + 1 is past the int-to-str limit: each refusal must raise its
# own error type and give sizes, not fail on printing the values
_N = 10 ** 4400 + 1


def test_ideal_to_class_refusal_names_sizes_not_values():
    # (2N, y - N) over D = -3N^2 gives the imprimitive form [2N, 2N, 2N]
    with pytest.raises(NonInvertibleError, match="14618,14618,14618"):
        ideal_to_class(QuadIdeal(-3 * _N * _N, 1, 2 * _N, _N))


def test_from_form_refusal_names_sizes_not_values():
    with pytest.raises(NonInvertibleError, match="14618"):
        IdealClass.from_form(IntBinaryForm(2 * _N, 2 * _N, 2 * _N))


def test_compose_refusal_names_sizes_not_values():
    with pytest.raises(DiscriminantMismatchError, match="29235 and 2 bits"):
        compose(IntBinaryForm(_N, 1, _N), IntBinaryForm(1, 1, 1))


def test_form_to_ideal_refusal_names_sizes_not_values():
    with pytest.raises(DiscriminantMismatchError, match="29235 bits"):
        form_to_ideal(IntBinaryForm(_N, 2, _N), -3)


def test_ideal_mul_refusal_names_sizes_not_values():
    with pytest.raises(DiscriminantMismatchError, match="14617 and 14617"):
        ideal_mul(QuadIdeal(-_N, 1, 1, 0), QuadIdeal(-_N - 1, 1, 1, 0))


def test_push_to_maximal_refusal_names_sizes_not_values():
    with pytest.raises(DiscriminantMismatchError, match="14617 bits"):
        qr.push_to_maximal(QuadIdeal(-_N, 1, 1, 0), conductor_data(-5))


def test_class_from_hnf_reduces_without_reduce_form(monkeypatch):
    # the ideal's form is reduced on the kernel's triples; reduce_form,
    # with its disc and sign checks, is for public callers
    def no_reduce_form(F):
        raise AssertionError("reduce_form on an ideal's class")
    monkeypatch.setattr(qr, "reduce_form", no_reduce_form)
    assert ideal_to_class(QuadIdeal(-5, 1, 3, 2)).rep == IntBinaryForm(2, 2, 3)


def test_extend_ideal_coprime_needs_no_hermite_step(monkeypatch):
    def no_hnf(rows):
        raise AssertionError("Hermite reduction on a coprime span")
    monkeypatch.setattr(qr, "_hnf_module", no_hnf)
    assert extend_ideal(3, 1, 2, -5) == QuadIdeal(-5, 1, 3, 2)
    # a shared factor of a and e still needs the general span
    with pytest.raises(AssertionError, match="Hermite"):
        extend_ideal(64, 48, 8, -6)


def test_conductor_data_caches_no_error():
    # two primes past the trial-division ceiling: out of reach for a rho
    # budget of 10, found within the default budget
    v = -1000000007 * 1000000009
    for _ in range(2):
        with pytest.raises(FactorizationBoundError):
            conductor_data(v, 10)
    cd = conductor_data(v)
    assert (cd.S, cd.d, cd.S_factors) == (1, v, ())
    assert conductor_data(v) is cd
    with pytest.raises(ValueError):
        conductor_data(5)
    with pytest.raises(ValueError):
        conductor_data(5)


def kernel_by_factoring(cd):
    """The kernel order from a fresh factorisation of the conductor."""
    m = cd.conductor
    num, den = m, 1
    for p in factorint(m):
        # (disc_max|p) from the roots of x^2 = disc_max mod 4p: 0, 1 or 2
        roots = sum((x * x - cd.disc_max) % (4 * p) == 0
                    for x in range(2 * p))
        num *= p - (roots - 1)
        den *= p
    den *= {-3: 3, -4: 2}.get(cd.disc_max, 1)
    assert num % den == 0
    return num // den


def test_kernel_order_reads_the_carried_factorisation(monkeypatch):
    # the pinned large values (m = S = 12 and m = 2S = 420) and f(n) =
    # n^3 - 4 for every n in [-400, 1], the values of the genus-1 scan
    values = [-1119999888, -882485100] + [n ** 3 - 4 for n in range(-400, 2)]
    cds = [conductor_data(v) for v in values]
    wants = [kernel_by_factoring(cd) for cd in cds]

    def no_factoring(*args):
        raise AssertionError("kernel_order factored the conductor")
    monkeypatch.setattr(qr, "factorint", no_factoring)
    for cd, want in zip(cds, wants):
        assert kernel_order(cd) == want, cd.value
    monkeypatch.undo()
    for cd in cds:
        primes = {p for p, _ in cd.S_factors}
        if cd.conductor == 2 * cd.S:
            primes.add(2)
        assert primes == set(factorint(cd.conductor)), cd.value
        assert dict(cd.S_factors) == factorint(cd.S), cd.value
        assert list(cd.S_factors) == sorted(cd.S_factors)
    assert [cd.conductor for cd in cds[:2]] == [12, 420]


# --- Lehmer's partial Euclid: the inverse and the reduction of big ideals ---

def euclid_remainders(r0, r1):
    """Every remainder of plain Euclid on (r0, r1), from r0 down to 0."""
    seq = [r0, r1]
    while seq[-1]:
        seq.append(seq[-2] % seq[-1])
    return seq


def test_partial_euclid_stops_at_the_first_remainder_below_the_bound():
    rng = random.Random(15)
    fib = [1, 2]
    while fib[-1].bit_length() < 3000:
        fib.append(fib[-1] + fib[-2])
    pairs = [(fib[-1], fib[-2]),                 # every quotient 1
             (2 ** 3000 + 1, 2 ** 1000 + 3),     # one huge quotient
             (2 ** 2000 - 1, 2 ** 2000 - 2), (2 ** 100, 1), (7, 0)]
    for _ in range(100):
        bits = rng.randrange(2, 1500)
        r0 = rng.getrandbits(bits) | 1 << (bits - 1)
        pairs.append((r0, rng.randrange(r0)))
    for r0, r1 in pairs:
        seq = euclid_remainders(r0, r1)
        # bounds at, just above and just below a remainder, and at random
        r = seq[rng.randrange(1, len(seq))]
        for bound in {0, r1, rng.randrange(r1 + 1), r, r + 1, max(r - 1, 0)}:
            g0, g1, c0, c1 = qr._partial_euclid(r0, r1, bound)
            j = next(i for i in range(1, len(seq)) if seq[i] <= bound)
            assert (g0, g1) == (seq[j - 1], seq[j]), (r0, r1, bound)
            assert (g0 - c0 * r1) % r0 == 0 and (g1 - c1 * r1) % r0 == 0
            # j - 1 steps, each of which flips the sign of c1
            assert (c1 > 0) == (j % 2 == 1)


def test_lehmer_inverse_matches_pow():
    rng = random.Random(16)
    switch = qr._LEHMER_INVERSE_BITS
    # both sides of the switch, and moduli of the sizes that the
    # benchmark's multiples kP, k <= 112, reach
    for bits in (switch - 1, switch, switch + 1, 145, 1000, 2500, 6000,
                 8160):
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        e = rng.getrandbits(bits + 4000)
        while math.gcd(a, e) > 1:
            e += 1
        want = pow(e, -1, a)
        assert qr._inverse(e, a) == want, bits
        g, _, c0, _ = qr._partial_euclid(a, e % a, 0)
        assert (g, c0 % a) == (1, want), bits
        # a shared factor is refused on both sides of the switch
        with pytest.raises(ValueError):
            qr._inverse(3 * e, 3 * a)


def prime_form(disc, rng):
    """[p, b, (b^2 - disc)/4p] for a random odd prime p split in disc."""
    primes = primes_up_to(5000)[1:]
    while True:
        p = rng.choice(primes)
        r = sqrt_mod(disc, p) if disc % p else None
        if r is not None:
            b = r if r % 2 == disc % 2 else p - r
            return p, b, (b * b - disc) // (4 * p)


def transformed(form, bits, rng):
    """form(m11 x + m12 y, m21 x + m22 y) for a random matrix of SL2(Z)
    with a first column of about bits bits; bits 0 keeps the form."""
    if bits == 0:
        return form
    A, B, C = form
    m11, m21 = rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1
    while math.gcd(m11, m21) > 1:
        m21 += 1
    m22 = pow(m11, -1, m21)
    m12 = (m11 * m22 - 1) // m21
    return (A * m11 * m11 + B * m11 * m21 + C * m21 * m21,
            2 * A * m11 * m12 + B * (m11 * m22 + m12 * m21)
            + 2 * C * m21 * m22,
            A * m12 * m12 + B * m12 * m22 + C * m22 * m22)


def test_big_ideal_reduction_matches_plain_reduce():
    # ideals (a, w - t) of a random class, moved far from reduced by an
    # SL2 matrix: a from a few bits to 20000 bits, below and above
    # sqrt|disc|, with |disc| from 3 to about 10^40 of both parities.
    # push_to_maximal is given S = 1, so that it extends (a, y - t) to
    # the order of discriminant disc itself.
    rng = random.Random(17)
    discs = [-3, -4, -7, -8, -23, -56]
    for _ in range(12):
        m = rng.getrandbits(rng.randrange(2, 131))
        discs += [-4 * m - 4, -4 * m - 3]
    checked = not_ambiguous = 0
    for i, disc in enumerate(discs):
        sigma = disc % 2
        rho = (disc - sigma) // 4
        for bits in (0, 3, 200, 2000, 9990 if i in (0, 28) else 700):
            a, b, _ = transformed(prime_form(disc, rng), bits, rng)
            while sigma and a % 2 == 0:     # (a, y - t) needs a odd
                a, b, _ = transformed(prime_form(disc, rng), bits, rng)
            t = (b + sigma) // 2 % a
            want = IntBinaryForm(*qr._reduce(
                a, 2 * t - sigma, (t * t - sigma * t - rho) // a))
            not_ambiguous += want.b2 not in (0, want.a, -want.a) \
                and want.a != want.c
            D = disc // 4 if sigma == 0 else disc
            I = QuadIdeal(D, 1, a, t if sigma == 0 else (2 * t - 1) % a)
            cd = ConductorData(value=D, S=1, d=D, disc_max=disc,
                               conductor=1 + sigma, S_factors=())
            got = qr.push_to_maximal(I, cd)
            assert (got.disc, got.rep) == (disc, want), (disc, bits)
            if sigma == 0:
                assert ideal_to_class(I).rep == want, (disc, bits)
            checked += 1
    assert checked == 5 * len(discs)
    # a class equal to its inverse would not notice a flipped orientation
    assert not_ambiguous > checked // 2


def test_class_from_hnf_refuses_a_non_ideal():
    # a must divide N(w - t), which every caller guarantees; with no
    # Euclid step and with many
    for a, t in ((7, 2), (2 ** 200 + 1, 3 ** 100)):
        with pytest.raises(InternalInconsistencyError, match="not divide"):
            qr._class_from_hnf(-20, a, t)
