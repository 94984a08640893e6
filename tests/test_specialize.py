"""The specialisation map delta_n, its pushforward pairing value, and the
scan/search drivers."""

import dataclasses
import math
import os
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperclass.curve import new_curve
from hyperclass import cli, specialize
from hyperclass.errors import (
    ClassNumberBoundError,
    InternalInconsistencyError,
    InvalidDivisorError,
    NotPrimitiveError,
    OrderBoundError,
    PositiveValueError,
)
from hyperclass import integral_forms, quadring
from hyperclass.integral_forms import (
    AltMumfordForm,
    coprime_shift,
    to_alt_mumford,
)
from hyperclass.jacobian import (
    MumfordDivisor,
    from_point,
    identity,
    jac_add,
    jac_neg,
    jac_smul,
)
from hyperclass.polyarith import IntPoly, RatPoly, fixed_divisor
from hyperclass.quadring import (
    FACTOR_BOUND,
    ORDER_CAP,
    IdealClass,
    IntBinaryForm,
    class_number_disc,
    conductor_data,
    extend_ideal,
    factorint,
    form_to_ideal,
    ideal_from_generators,
    kernel_order,
    push_to_maximal,
    reduce_form,
    square_part,
)
from hyperclass.specialize import (
    ROW_FIELDS,
    SCAN_FORK_MIN,
    Specialisation,
    SpecializationRow,
    _delta_ideal,
    _has_square,
    delta_n,
    find_order_at_least,
    is_n_primitive,
    pairing_value,
    scan,
    smooth_section_status,
    specialize_form,
    value_gcd,
)

CURVE = new_curve(IntPoly([-4, 0, 0, 1]))
GEN2 = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))
Q = from_point(CURVE, 2, 2)
Q2 = from_point(GEN2, 1, 1)


def test_specialize_form_values():
    F = to_alt_mumford(CURVE, Q)
    v = specialize_form(F, CURVE, -1)
    assert (v.a_val, v.b_val, v.c_val, v.e, v.fval) == (-3, 2, -3, 1, -5)
    assert v.b_val**2 - v.a_val * v.c_val == v.e**2 * v.fval
    assert value_gcd(v) == 1
    assert is_n_primitive(v)


def test_specialize_form_rejects_nonnegative_value():
    F = to_alt_mumford(CURVE, Q)
    with pytest.raises(PositiveValueError):
        specialize_form(F, CURVE, 2)
    with pytest.raises(PositiveValueError):
        specialize_form(F, CURVE, 100)


def test_is_n_primitive_even_n():
    F = to_alt_mumford(CURVE, Q)
    v = specialize_form(F, CURVE, -2)
    assert value_gcd(v) == 4
    assert not is_n_primitive(v)  # f(-2) = -12 is divisible by 4


def test_delta_known_values():
    cls = delta_n(CURVE, Q, -1)
    assert cls.rep == IntBinaryForm(2, 2, 3)
    assert cls.disc == -20
    assert cls.order() == 2
    cls = delta_n(CURVE, Q, -3)
    assert cls.rep == IntBinaryForm(5, 4, 7)
    assert cls.disc == -124
    assert cls.order() == 3
    cls = delta_n(CURVE, Q, -5)
    assert cls.order() == 6
    cls = delta_n(CURVE, Q, 1)
    assert cls.is_trivial


def test_delta_identity_divisor_trivial():
    for n in range(1, -40, -1):
        cls = delta_n(CURVE, identity(), n)
        assert cls.is_trivial
        assert cls.order() == 1


def test_delta_rejects_imprimitive():
    with pytest.raises(NotPrimitiveError):
        delta_n(CURVE, Q, -2)


def test_imprimitive_error_names_n_for_huge_values():
    # values past Python's 4300-digit int-to-str limit: the refusal must
    # still be a NotPrimitiveError, not a ValueError from formatting them
    big = 2 * 10 ** 5000
    v = Specialisation(n=-7, a_val=big, b_val=big, c_val=big + 2, e=1,
                       fval=-2 * big)
    assert v.b_val ** 2 - v.a_val * v.c_val == v.fval
    with pytest.raises(NotPrimitiveError, match="n = -7"):
        _delta_ideal(v)
    with pytest.raises(NotPrimitiveError):
        coprime_shift(v.a_val, v.b_val, v.c_val, v.e)


def test_discriminant_mismatch_names_sizes_for_huge_values():
    # a form with B^2 - A*C != e^2*f and A(n) past the 4300-digit limit:
    # the refusal must still be an InternalInconsistencyError
    F = AltMumfordForm(IntPoly([10 ** 5000 + 1, 1]), IntPoly([1]),
                       IntPoly([1]), 1)
    with pytest.raises(InternalInconsistencyError, match="n = -3"):
        specialize_form(F, CURVE, -3)


def test_delta_refuses_imprimitive_representative_over_squarefree_value():
    # 4*(1,1) on the genus-2 curve has e = 686 and its value form at n = -2
    # is (476, -4172, 71169) with content 7, even though f(-2) = -35 is
    # square-free.  Extending that representative raw would land on
    # [3,2,12], but the correct class is forced by the group law:
    # delta(Q)*delta(3Q) = delta(2Q)^2 = [4,2,9].  The map refuses rather
    # than reporting the wrong class.
    fourQ = jac_smul(GEN2, 4, Q2)
    F = to_alt_mumford(GEN2, fourQ)
    v = specialize_form(F, GEN2, -2)
    assert value_gcd(v) == 7 and v.e % 7 == 0
    assert square_part(v.fval) == 1
    assert not is_n_primitive(v)
    with pytest.raises(NotPrimitiveError):
        delta_n(GEN2, fourQ, -2)
    c1 = delta_n(GEN2, Q2, -2)
    c2 = delta_n(GEN2, jac_smul(GEN2, 2, Q2), -2)
    c3 = delta_n(GEN2, jac_smul(GEN2, 3, Q2), -2)
    assert (c1.rep, c2.rep, c3.rep) == (
        IntBinaryForm(3, 2, 12), IntBinaryForm(4, -2, 9),
        IntBinaryForm(5, 0, 7))
    assert c1 * c3 == c2 * c2
    assert (c1 * c3).rep == IntBinaryForm(4, 2, 9)


def test_delta_undefined_at_squarefree_one_mod_four():
    # f(-1) = -3 on the genus-2 curve is square-free but 1 mod 4, and the
    # value form of (1,1) there is [-2, 2, -2] with content exactly 2: the
    # extension is 2*(maximal order), not an invertible ideal of
    # Z[sqrt(-3)], and no representative can repair it
    F = to_alt_mumford(GEN2, Q2)
    v = specialize_form(F, GEN2, -1)
    assert (v.a_val, v.b_val, v.c_val, v.e, v.fval) == (-2, 1, -2, 1, -3)
    assert value_gcd(v) == 2
    assert square_part(v.fval) == 1
    assert not is_n_primitive(v)
    with pytest.raises(NotPrimitiveError):
        delta_n(GEN2, Q2, -1)
    row = scan(GEN2, Q2, -1, -1)[0]
    assert row.primitive is False and row.error is None


def test_delta_homomorphism_window():
    # class(delta(Q1 + Q2)) = class(delta Q1) * class(delta Q2) whenever all
    # three divisors are defined at n
    mults = {k: jac_smul(CURVE, k, Q) for k in range(0, 7)}
    forms = {k: to_alt_mumford(CURVE, mults[k]) for k in mults}
    checked = 0
    for i in range(1, 4):
        for j in range(i, 4):
            for n in range(1, -30, -1):
                try:
                    classes = []
                    for k in (i, j, i + j):
                        v = specialize_form(forms[k], CURVE, n)
                        if not is_n_primitive(v):
                            raise NotPrimitiveError("skip")
                        classes.append(delta_n(CURVE, mults[k], n))
                except NotPrimitiveError:
                    continue
                assert classes[0] * classes[1] == classes[2], (i, j, n)
                checked += 1
    assert checked >= 40


def test_delta_homomorphism_genus2():
    mults = {k: jac_smul(GEN2, k, Q2) for k in range(0, 5)}
    forms = {k: to_alt_mumford(GEN2, mults[k]) for k in mults}
    checked = 0
    for i, j in ((1, 1), (1, 2), (2, 2), (1, 3)):
        for n in range(GEN2.negativity_bound, -25, -1):
            try:
                classes = []
                for k in (i, j, i + j):
                    v = specialize_form(forms[k], GEN2, n)
                    if not is_n_primitive(v):
                        raise NotPrimitiveError("skip")
                    classes.append(delta_n(GEN2, mults[k], n))
            except NotPrimitiveError:
                continue
            assert classes[0] * classes[1] == classes[2], (i, j, n)
            checked += 1
    assert checked >= 20


def test_delta_inverse_law():
    negQ = jac_neg(CURVE, Q)
    for n in (-1, -3, -5, -7, -9, -11):
        lhs = delta_n(CURVE, negQ, n)
        rhs = delta_n(CURVE, Q, n).inverse()
        assert lhs == rhs, n


def test_delta_matches_direct_reduction():
    # oracle equivalence: with e = 1 and f(n) square-free the class is the
    # plain reduction of the value form, after the lambda = -1 scaling that
    # makes the leading coefficient positive
    F = to_alt_mumford(CURVE, Q)
    assert F.e == 1
    checked = 0
    for n in range(CURVE.negativity_bound, -51, -1):
        fval = CURVE.f(n)
        if square_part(-fval) != 1:
            continue
        v = specialize_form(F, CURVE, n)
        a, b2, c = v.a_val, 2 * v.b_val, v.c_val
        if a < 0:
            a, c = -a, -c
        want = IdealClass.from_form(reduce_form(IntBinaryForm(a, b2, c)))
        assert delta_n(CURVE, Q, n) == want, n
        checked += 1
    assert checked >= 20


def test_pairing_value_maximal_order():
    cls = pairing_value(CURVE, Q, -1)
    assert cls.rep == IntBinaryForm(2, 2, 3)
    assert cls.disc == -20
    assert cls.order() == 2
    # 2Q specialises to the square of the class of Q
    twoQ = jac_smul(CURVE, 2, Q)
    assert pairing_value(CURVE, twoQ, -1).is_trivial


def test_pairing_kernel_bound():
    rows = scan(CURVE, Q, -100, CURVE.negativity_bound)
    checked = 0
    for r in rows:
        if r.order_order is None or r.S_n is None or r.S_n == 1:
            continue
        assert r.order_order % r.order_maximal == 0, r.n
        assert r.order_order // r.order_maximal <= 4 * r.S_n**2, r.n
        checked += 1
    assert checked >= 3


def test_smooth_section_status():
    assert smooth_section_status(-5, 3, 1) == "pairing"
    assert smooth_section_status(-12, 13, 2) == "pairing"
    assert smooth_section_status(-12, 12, 2) == "delta_only"
    assert smooth_section_status(-12, 3, 2) == "delta_only"  # gcd = 3


def test_scan_row_shape():
    rows = scan(CURVE, Q, -30, CURVE.negativity_bound)
    assert len(rows) == 32
    assert [r.n for r in rows] == list(range(1, -31, -1))
    assert all(r.error is None for r in rows)
    assert tuple(ROW_FIELDS[:4]) == ("n", "f_n", "S_n", "primitive")
    for r in rows:
        if r.n % 2 == 0:
            # even n: value form has gcd 4 and f(n) has square part
            assert r.primitive is False
            assert r.f_n == CURVE.f(r.n)
            assert r.S_n >= 2
            assert r.form_a is None and r.order_order is None
        else:
            assert r.primitive is True
            assert r.order_order is not None
            assert r.order_maximal is not None
            assert r.pairing_status in ("pairing", "delta_only")
            want = smooth_section_status(
                CURVE.f(r.n), CURVE.f.derivative()(r.n), r.S_n)
            assert r.pairing_status == want


def test_scan_known_row():
    rows = scan(CURVE, Q, -1, -1, class_numbers=True)
    r = rows[0]
    assert (r.n, r.f_n, r.S_n, r.primitive) == (-1, -5, 1, True)
    assert (r.form_a, r.form_b2, r.form_c) == (2, 2, 3)
    assert (r.order_order, r.order_maximal) == (2, 2)
    assert (r.h_order, r.h_maximal) == (2, 2)
    assert r.pairing_status == "pairing"


def test_scan_class_numbers_off_by_default():
    rows = scan(CURVE, Q, -1, -1)
    assert rows[0].h_order is None and rows[0].h_maximal is None


def test_scan_identity_all_trivial():
    rows = scan(CURVE, identity(), -10, CURVE.negativity_bound)
    for r in rows:
        assert r.primitive is True
        assert r.order_order == 1
        assert r.order_maximal == 1
        assert (r.form_a, r.form_b2) == (1, 0) or r.form_b2 == 1


def test_scan_rejects_range_above_bound():
    with pytest.raises(PositiveValueError):
        scan(CURVE, Q, -5, CURVE.negativity_bound + 1)


def test_scan_squarefree_only():
    rows = scan(CURVE, Q, -10, CURVE.negativity_bound, squarefree_only=True)
    assert [r.n for r in rows] == [1, -1, -3, -5, -7, -9]
    for r in rows:
        assert square_part(r.f_n) == 1


def test_scan_h_consistency():
    # conductor-formula h against direct enumeration of the order's disc
    rows = scan(CURVE, Q, -20, CURVE.negativity_bound, class_numbers=True)
    for r in rows:
        if r.h_order is None:
            continue
        assert r.h_order == class_number_disc(4 * r.f_n), r.n
        assert r.h_order % r.order_order == 0
        assert r.h_maximal % r.order_maximal == 0


def test_find_order_at_least_known():
    assert find_order_at_least(CURVE, Q, 2, -50).n == -1
    assert find_order_at_least(CURVE, Q, 3, -50).n == -3
    assert find_order_at_least(CURVE, Q, 5, -500).n == -5
    assert find_order_at_least(CURVE, Q, 1, -50).n == 1
    assert find_order_at_least(CURVE, Q, 10**9, -30) is None


def test_find_order_at_least_progress():
    calls = []
    got = find_order_at_least(CURVE, Q, 2, -5,
                              progress=lambda n, o: calls.append((n, o)))
    assert got.n == -1
    assert calls == [(1, 1), (0, None), (-1, 2)]


def test_find_order_at_least_squarefree_only():
    # same answer here: the first qualifying n has square-free value anyway
    assert find_order_at_least(CURVE, Q, 2, -50,
                               squarefree_only=True).n == -1


def test_squarefree_filter_matches_square_part():
    # the filter reads S(n) off the record's conductor; the oracle factors
    # f(n)/fd(f) afresh.  x^3 - x + 6 has fixed divisor 6.
    for f, P, n_lo in (([-4, 0, 0, 1], (2, 2), -1500),
                       ([-1, 1, 0, 0, 0, 1], (1, 1), -300),
                       ([6, -1, 0, 1], (-2, 0), -1500)):
        curve = new_curve(IntPoly(f))
        form = to_alt_mumford(curve, from_point(curve, *P))
        nb, fd_f = curve.negativity_bound, fixed_divisor(curve.f)
        want = [n for n in range(nb, n_lo - 1, -1)
                if square_part(curve.f(n) // fd_f) == 1]
        got = [n for n in range(nb, n_lo - 1, -1)
               if not _has_square(specialize_form(form, curve, n), fd_f)]
        assert got == want, f


def test_search_and_scan_drop_the_same_n():
    # a target past ORDER_CAP is met by no n, so the search examines
    # every n that the scan keeps a row for
    for curve, P, n_lo in ((CURVE, Q, -200), (GEN2, Q2, -60)):
        seen = []
        assert find_order_at_least(curve, P, ORDER_CAP + 1, n_lo,
                                   squarefree_only=True,
                                   progress=lambda n, o: seen.append(n)
                                   ) is None
        rows = scan(curve, P, n_lo, curve.negativity_bound,
                    squarefree_only=True)
        assert seen == [r.n for r in rows]
        assert len(seen) < curve.negativity_bound - n_lo + 1


# f(-4103) on y^2 = x^5 + x - 1 is about 1.2e18, past the 10^18 below
# which the square part needs no rho, and no prime up to 10^6 divides it:
# a rho budget of 1 does not split it
UNFACTORED_N = -4103


def test_scan_squarefree_only_keeps_unfactored_value_as_row():
    rows = scan(GEN2, Q2, UNFACTORED_N, UNFACTORED_N, squarefree_only=True,
                factor_bound=1)
    assert [r.n for r in rows] == [UNFACTORED_N]
    assert rows[0].error.startswith("FactorizationBoundError")


def test_find_order_at_least_squarefree_only_skips_unfactored_value():
    # the walk starts just above the planted n, not at the negativity
    # bound 0, so that it examines five values instead of 4100
    curve = dataclasses.replace(GEN2, negativity_bound=-4100)
    seen = {}
    # a target past ORDER_CAP: the capped n = -4100 is not a hit
    got = find_order_at_least(curve, Q2, ORDER_CAP + 1, -4104,
                              squarefree_only=True, factor_bound=1,
                              progress=seen.__setitem__)
    assert got is None
    assert seen[UNFACTORED_N] is None


def test_unfactored_value_is_factored_once(monkeypatch):
    # the filter's refusal reaches the row and the search: conductor_data
    # caches no error, so reading S(n) again would factor f(n) again
    calls = []
    square_factors = quadring._square_factors

    def counted(n, factor_bound):
        calls.append(n)
        return square_factors(n, factor_bound)
    monkeypatch.setattr(quadring, "_square_factors", counted)
    curve = dataclasses.replace(GEN2, negativity_bound=UNFACTORED_N)
    for squarefree_only in (False, True):
        calls.clear()
        rows = scan(GEN2, Q2, UNFACTORED_N, UNFACTORED_N,
                    squarefree_only=squarefree_only, factor_bound=1)
        assert rows[0].error.startswith("FactorizationBoundError")
        assert len(calls) == 1, squarefree_only
        # the search refuses this imprimitive n before it reads S(n), so
        # only the filter factors f(n)
        calls.clear()
        assert find_order_at_least(curve, Q2, 2, UNFACTORED_N,
                                   squarefree_only=squarefree_only,
                                   factor_bound=1) is None
        assert len(calls) == squarefree_only


def test_find_order_at_least_squarefree_only_propagates_inconsistency(
        monkeypatch):
    def broken(v, factor_bound):
        raise InternalInconsistencyError("planted")
    monkeypatch.setattr(specialize, "conductor_data", broken)
    with pytest.raises(InternalInconsistencyError, match="planted"):
        find_order_at_least(CURVE, Q, 2, -10, squarefree_only=True)


def test_specialise_is_lazy(monkeypatch):
    # the class in Z[sqrt(f(n))] never factors f(n)
    def no_factoring(*args):
        raise AssertionError("f(n) was factored")
    monkeypatch.setattr(specialize, "conductor_data", no_factoring)
    s = specialize_form(to_alt_mumford(CURVE, Q), CURVE, -3)
    assert s.primitive and s.fval == -31
    assert s.delta_class.rep == IntBinaryForm(5, 4, 7)
    assert delta_n(CURVE, Q, -3) == s.delta_class
    with pytest.raises(AssertionError):
        s.maximal_class


def test_specialise_record_fields():
    s = specialize_form(to_alt_mumford(CURVE, Q), CURVE, -5)
    assert isinstance(s, Specialisation)
    assert s.delta_class == delta_n(CURVE, Q, -5)
    assert s.maximal_class == pairing_value(CURVE, Q, -5)
    assert (s.order_order, s.order_maximal) == (6, 6)
    assert s.conductor.S == 1
    assert s.h_order == s.h_maximal == class_number_disc(-516) == 12
    assert not specialize_form(to_alt_mumford(CURVE, Q), CURVE, -2).primitive


def test_find_order_at_least_propagates_inconsistency(monkeypatch):
    def broken(I, cd):
        raise InternalInconsistencyError("planted")
    monkeypatch.setattr(specialize, "push_to_maximal", broken)
    with pytest.raises(InternalInconsistencyError, match="planted"):
        find_order_at_least(CURVE, Q, 2, -50)


def test_order_cap_is_a_hit_up_to_the_cap_and_lands_in_the_row(
        monkeypatch):
    # the class at n = -1 (maximal discriminant -20) hits the order cap:
    # its order is past ORDER_CAP, so it meets k = 2 and misses
    # k = ORDER_CAP + 1
    order = IdealClass.order

    def capped(self, cap=ORDER_CAP):
        if self.disc == -20:
            raise OrderBoundError("planted")
        return order(self, cap)
    monkeypatch.setattr(IdealClass, "order", capped)
    calls = []
    got = find_order_at_least(CURVE, Q, 2, -5,
                              progress=lambda n, o: calls.append((n, o)))
    assert got.n == -1
    assert calls == [(1, 1), (0, None), (-1, None)]
    with pytest.raises(OrderBoundError, match="planted"):
        got.order_maximal
    calls.clear()
    assert find_order_at_least(CURVE, Q, ORDER_CAP + 1, -3,
                               progress=lambda n, o: calls.append((n, o))
                               ) is None
    assert calls == [(1, 1), (0, None), (-1, None), (-2, None), (-3, 3)]
    (row,) = scan(CURVE, Q, -1, -1)
    assert row.error == "OrderBoundError: planted"


def test_order_order_by_kernel_matches_direct_order():
    # the kernel route against a direct search in Z[sqrt(f(n))]; n = 1 has
    # disc_max -3, the unit index 3 case (n = 0, disc_max -4, is imprimitive)
    form = to_alt_mumford(CURVE, Q)
    checked = 0
    for n in range(1, -401, -1):
        s = specialize_form(form, CURVE, n)
        if not s.primitive:
            continue
        assert s.order_order == s.delta_class.order(), n
        checked += 1
    assert checked == 201


def test_order_order_past_the_cap_is_reported_exactly(monkeypatch):
    # at n = -7 the order in O is 15, three times the maximal-order 5; the
    # cap bounds only the search for the maximal order, and the kernel
    # route to 15 is exact
    order = IdealClass.order
    monkeypatch.setattr(IdealClass, "order", lambda self: order(self, 14))
    s = specialize_form(to_alt_mumford(CURVE, Q), CURVE, -7)
    assert (s.order_maximal, s.order_order) == (5, 15)
    with pytest.raises(OrderBoundError):
        s.delta_class.order()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=-20000, max_value=-2000))
def test_orders_certified_at_large_n(n):
    # x^m trivial and x^(m/p) not, for every prime p | m: m is the exact
    # order, checked without the search that found it
    s = specialize_form(to_alt_mumford(CURVE, Q), CURVE, n)
    try:
        orders = [(s.delta_class, s.order_order),
                  (s.maximal_class, s.order_maximal)]
    except (NotPrimitiveError, OrderBoundError):
        assume(False)
    for x, m in orders:
        assert (x ** m).is_trivial
        for p in factorint(m):
            assert not (x ** (m // p)).is_trivial, (n, m, p)
    ratio, rest = divmod(s.order_order, s.order_maximal)
    assert rest == 0
    assert kernel_order(s.conductor) % ratio == 0


def test_find_order_rejects_bad_k():
    with pytest.raises(ValueError):
        find_order_at_least(CURVE, Q, 0, -5)


# --- large multiples kP: the caches and the direct ideal ---------------------

# the two n of the benchmark's multiples workload, one even and one odd
MULTIPLES_NS = (-114560, -596041)


@pytest.fixture(scope="module")
def multiples():
    """kP for k = 1..112; at MULTIPLES_NS the values of 112P have about
    2500 digits."""
    out = [Q]
    for _ in range(111):
        out.append(jac_add(CURVE, out[-1], Q))
    return out


def test_direct_ideal_on_large_multiples(multiples):
    # the shifted value forms of kP, against the span of the generators
    checked = 0
    for D in multiples:
        form = to_alt_mumford(CURVE, D)
        for n in MULTIPLES_NS:
            v = specialize_form(form, CURVE, n)
            if not is_n_primitive(v):
                continue
            a, b = coprime_shift(v.a_val, v.b_val, v.c_val, v.e)
            want = ideal_from_generators(v.fval, [(abs(a), 0), (-b, v.e)])
            assert extend_ideal(abs(a), b, v.e, v.fval) == want, (n, v.e)
            checked += 1
    assert checked == 168
    assert v.a_val.bit_length() > 8000


def assert_both_pushes_agree(s):
    # an ideal with a <= |f(n)| is pushed as it is, a longer one by the
    # ideal of delta_class's reduced form; each route is the other's oracle
    short = s.ideal.a <= -s.fval
    assert s.maximal_class == push_to_maximal(s.ideal, s.conductor) \
        == push_to_maximal(form_to_ideal(s.delta_class.rep, s.fval),
                           s.conductor), s.n
    return short


def test_push_of_the_reduced_ideal_on_large_multiples(multiples):
    checked = 0
    for D in multiples:
        form = to_alt_mumford(CURVE, D)
        for n in MULTIPLES_NS:
            s = specialize_form(form, CURVE, n)
            if s.primitive:
                assert_both_pushes_agree(s)
                checked += 1
    assert checked == 168


def test_push_of_the_reduced_ideal_on_a_window():
    for curve, P in ((CURVE, Q), (GEN2, Q2)):
        form = to_alt_mumford(curve, P)
        checked = 0
        for n in range(min(1, curve.negativity_bound), -401, -1):
            s = specialize_form(form, curve, n)
            if s.primitive:
                assert_both_pushes_agree(s)
                checked += 1
        assert checked == 201


def test_maximal_class_is_the_same_by_both_routes(multiples):
    for curve, P in ((CURVE, Q), (GEN2, Q2)):
        form = to_alt_mumford(curve, P)
        routes = set()
        for n in range(min(1, curve.negativity_bound), -700, -7):
            s = specialize_form(form, curve, n)
            if s.primitive:
                routes.add(assert_both_pushes_agree(s))
        assert routes == {True}
    routes = []
    for D in multiples[:40]:
        form = to_alt_mumford(CURVE, D)
        for n in MULTIPLES_NS:
            s = specialize_form(form, CURVE, n)
            if s.primitive:
                routes.append(assert_both_pushes_agree(s))
    assert len(routes) == 60 and 0 < sum(routes) < 60


def test_maximal_class_route_at_a_of_f_n_and_just_above():
    # the value forms [|f|, 0, 1] and [|f| + 1, 2, 1] have discriminant
    # 4 f(n) and e = 1, so their ideals have a = |f(n)| and |f(n)| + 1
    for curve, n in ((CURVE, -5), (CURVE, -403), (GEN2, -566),
                     (GEN2, -4103)):
        f = curve.f(n)
        for a, b, short in ((-f, 0, True), (1 - f, 1, False)):
            s = Specialisation(n=n, a_val=a, b_val=b, c_val=1, e=1, fval=f)
            assert s.ideal.a == a
            got = s.maximal_class
            # only the longer ideal is reduced in Z[sqrt(f(n))] first
            assert ("delta_class" in vars(s)) is not short, (n, a)
            assert short is assert_both_pushes_agree(s)
            assert got == s.maximal_class


def test_a_search_over_short_ideals_reduces_nothing(monkeypatch):
    def refused(I):
        raise AssertionError("reduced in Z[sqrt(f(n))]")
    monkeypatch.setattr(specialize, "ideal_to_class", refused)
    # forked from the first n: the workers' calls raise in the caller
    hit = find_order_at_least(CURVE, Q, 12000, -3000)
    assert (hit.n, hit.order_maximal) == (-403, 13406)
    # a target past ORDER_CAP: every n of the walk is examined
    assert find_order_at_least(GEN2, Q2, ORDER_CAP + 1, -60) is None


def test_a_search_builds_the_ideal_only_at_primitive_n(monkeypatch):
    seen = []
    delta_ideal = specialize._delta_ideal

    def checked(s):
        assert s.primitive, s.n
        seen.append(s.n)
        return delta_ideal(s)
    monkeypatch.setattr(specialize, "_delta_ideal", checked)
    for curve, P in ((CURVE, Q), (GEN2, Q2)):
        # fewer than SCAN_FORK_MIN n, so every call is made here
        hi = curve.negativity_bound
        lo = hi - SCAN_FORK_MIN + 2
        seen.clear()
        assert find_order_at_least(curve, P, ORDER_CAP + 1, lo) is None
        form = to_alt_mumford(curve, P)
        want = [n for n in range(hi, lo - 1, -1)
                if specialize_form(form, curve, n).primitive]
        assert seen == want and len(want) < hi - lo + 1


def test_lazy_fields_are_computed_once_and_errors_again(monkeypatch):
    lazy = {name: attr for name, attr in vars(Specialisation).items()
            if isinstance(attr, specialize._lazy)}
    assert {"content", "primitive", "ideal", "conductor", "delta_class",
            "maximal_class", "order_order", "order_maximal", "h_maximal",
            "h_order"} == set(lazy)
    calls = dict.fromkeys(lazy, 0)
    for name, field in lazy.items():
        def counted(s, method=field.method, name=name):
            calls[name] += 1
            return method(s)
        monkeypatch.setattr(field, "method", counted)
    form = to_alt_mumford(CURVE, Q)
    s = specialize_form(form, CURVE, -5)
    first = [getattr(s, name) for name in lazy]
    assert [getattr(s, name) for name in lazy] == first
    assert calls == dict.fromkeys(lazy, 1)
    # an imprimitive n: the ideal raises on every read and is computed
    # again each time, as functools.cached_property does
    t = specialize_form(form, CURVE, -2)
    for reads in (2, 3):
        with pytest.raises(NotPrimitiveError):
            t.ideal
        assert calls["ideal"] == reads
    assert "ideal" not in vars(t) and calls["content"] == 2
    # the record stays frozen, computed or not
    for name in ("n", "ideal", "order_maximal", "h_order"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, 1)
    assert s.order_maximal == 6


def test_caches_change_no_result(multiples):
    # delta_n and pairing_value against the uncached chain, in both call
    # orders; an imprimitive n raises from every call
    undefined = 0
    for D in multiples[:40]:
        form = to_alt_mumford.__wrapped__(CURVE, D)
        for n in (-1, -3, -7) + MULTIPLES_NS:
            s = specialize_form(form, CURVE, n)
            try:
                want = (s.delta_class, s.maximal_class)
            except NotPrimitiveError:
                for f in (delta_n, pairing_value, delta_n, pairing_value):
                    with pytest.raises(NotPrimitiveError):
                        f(CURVE, D, n)
                undefined += 1
                continue
            assert s.conductor == conductor_data.__wrapped__(s.fval)
            assert pairing_value(CURVE, D, n) == want[1]
            assert delta_n(CURVE, D, n) == want[0]
            assert pairing_value(CURVE, D, n) == want[1]
            assert delta_n(CURVE, D, n) == want[0]
    # the odd multiples are imprimitive at the even n
    assert undefined >= 20


def test_each_divisor_is_checked_once(multiples, monkeypatch):
    # the multiples workload's loop: delta_n then pairing_value at both n
    calls = []
    check = integral_forms.check_divisor

    def counted(curve, D):
        calls.append(D)
        return check(curve, D)
    monkeypatch.setattr(integral_forms, "check_divisor", counted)
    to_alt_mumford.cache_clear()
    specialize._specialised.cache_clear()
    defined = 0
    for D in multiples:
        for n in MULTIPLES_NS:
            try:
                delta_n(CURVE, D, n)
                pairing_value(CURVE, D, n)
            except NotPrimitiveError:
                continue
            defined += 1
    assert defined == 168
    assert len(calls) == 112


def test_each_divisor_is_divided_once(multiples, monkeypatch):
    # the same loop: check_divisor's division is the only exact_div, and
    # to_alt_mumford builds the form from it
    calls = []
    exact_div = IntPoly.exact_div

    def counted(self, other):
        calls.append(other)
        return exact_div(self, other)
    monkeypatch.setattr(IntPoly, "exact_div", counted)
    to_alt_mumford.cache_clear()
    specialize._specialised.cache_clear()
    conductor_data.cache_clear()
    for D in multiples:
        for n in MULTIPLES_NS:
            try:
                delta_n(CURVE, D, n)
                pairing_value(CURVE, D, n)
            except NotPrimitiveError:
                continue
    assert len(calls) == 112


def test_errors_are_never_cached():
    bad = MumfordDivisor(RatPoly((-3, 1)), RatPoly((1,)))  # (3, 1) is off
    for _ in range(2):
        with pytest.raises(InvalidDivisorError):
            to_alt_mumford(CURVE, bad)
    for f in (delta_n, pairing_value, delta_n, pairing_value):
        with pytest.raises(NotPrimitiveError):
            f(CURVE, Q, -2)


def test_class_numbers_certify_h_in_each_row(monkeypatch):
    # with class numbers on, h is checked against the order; an h that
    # the order does not divide is refused in the row instead of being
    # reported
    good = scan(CURVE, Q, -20, -1, class_numbers=True)
    monkeypatch.setattr(specialize, "class_number_disc", lambda disc: 1)
    bad = scan(CURVE, Q, -20, -1, class_numbers=True)
    refused = 0
    for g, b in zip(good, bad):
        if g.order_maximal is not None and g.order_maximal > 1:
            assert b.error.startswith("InternalInconsistencyError"), g.n
            assert b.h_maximal is None and b.order_maximal is None
            refused += 1
    assert refused > 5


def test_class_number_route_keeps_the_order_cap(monkeypatch):
    # the cap bounds the maximal order's search, which h is checked
    # against; order_order past it is exact
    good = scan(CURVE, Q, -20, -1, class_numbers=True)
    order = IdealClass.order
    monkeypatch.setattr(IdealClass, "order", lambda self: order(self, 6))
    capped = scan(CURVE, Q, -20, -1, class_numbers=True)
    hit = past = 0
    for g, c in zip(good, capped):
        if g.order_maximal is not None and g.order_maximal > 6:
            assert c.error == "OrderBoundError: class order exceeds the cap 6"
            assert c.h_maximal is None
            hit += 1
        else:
            assert c == g
            past += g.order_order is not None and g.order_order > 6
    assert hit > 3 and past > 0


def test_rows_have_the_same_orders_with_and_without_class_numbers():
    for curve, P, n_lo in ((CURVE, Q, -150), (GEN2, Q2, -40)):
        nb = curve.negativity_bound
        plain = scan(curve, P, n_lo, nb)
        with_h = scan(curve, P, n_lo, nb, class_numbers=True)
        assert [(r.n, r.order_order, r.order_maximal, r.error)
                for r in plain] == \
            [(r.n, r.order_order, r.order_maximal, r.error) for r in with_h]
        assert sum(r.h_maximal is not None for r in with_h) > 20


def test_value_form_content_is_computed_once_per_n(monkeypatch):
    # the record's primitive flag answers both the row and the ideal
    calls = []
    content = specialize.value_gcd

    def counted(s):
        calls.append(s.n)
        return content(s)
    monkeypatch.setattr(specialize, "value_gcd", counted)
    rows = scan(CURVE, Q, -20, 1)
    assert len(rows) == 22 and sum(r.primitive for r in rows) == 11
    assert sorted(calls) == sorted(r.n for r in rows)


def test_class_number_past_its_reach_lands_in_the_row():
    # |f(n)| near 10^21: the count's sieves would take about 18 GB
    rows = scan(CURVE, Q, -10000003, -10000000, class_numbers=True)
    assert [r.n for r in rows] == [-10000000, -10000001, -10000002,
                                   -10000003]
    primitive = [r for r in rows if r.primitive]
    assert len(primitive) == 2
    for r in primitive:
        assert r.error.startswith(ClassNumberBoundError.__name__), r.n
        assert r.form_a is not None and r.h_maximal is None


def test_content_is_computed_once_per_record(monkeypatch):
    # primitive and every NotPrimitiveError message read one cached gcd,
    # also when pairing_value follows delta_n on the same record
    calls = []
    content = specialize.value_gcd

    def counted(s):
        calls.append(s.n)
        return content(s)
    monkeypatch.setattr(specialize, "value_gcd", counted)
    specialize._specialised.cache_clear()
    for f in (delta_n, pairing_value, delta_n):
        with pytest.raises(NotPrimitiveError) as info:
            f(CURVE, Q, -2)
        assert str(info.value) == (
            "value form at n = -2 has a content of 3 bits; the class is not "
            "computed from an imprimitive representative")
    s = specialize._specialised(CURVE, Q, -2, FACTOR_BOUND)
    assert s.content == 4 and not s.primitive
    assert calls == [-2]


def cpus(monkeypatch, count):
    """Make scan see count usable CPUs, and list the pids of its forks,
    worker 1's first."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: count)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def capped_orders(monkeypatch):
    order = IdealClass.order
    monkeypatch.setattr(IdealClass, "order", lambda self: order(self, 6))


SCAN_CASES = {
    "genus1": (CURVE, Q, -400, 1, {}, None),
    "genus2-class-numbers": (GEN2, Q2, -60, 0, {"class_numbers": True},
                             None),
    "squarefree": (CURVE, Q, -400, 1, {"squarefree_only": True}, None),
    "capped": (CURVE, Q, -80, -1, {"class_numbers": True}, capped_orders),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_forked_rows_equal_serial_rows(monkeypatch, case):
    curve, P, lo, hi, kwargs, plant = SCAN_CASES[case]
    if plant is not None:
        plant(monkeypatch)
    got = {}
    for count in (1, 2, 3):
        forks = cpus(monkeypatch, count)
        got[count] = scan(curve, P, lo, hi, **kwargs)
        assert len(forks) == count - 1
        assert no_worker_left()
    assert got[2] == got[1] and got[3] == got[1]
    if plant is not None:
        assert sum(r.error is not None and r.error.startswith(
            "OrderBoundError") for r in got[1]) > 10


CLI_CASES = {
    "genus1-csv": ("f = [-4, 0, 0, 1]\npoint = (2, 2)\n", "-400", "1"),
    "genus2-json-class-numbers": (
        "f = [-1, 1, 0, 0, 0, 1]\npoint = (1, 1)\nformat = json\n"
        "class_numbers = true\n", "-60", "0"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_forked_scan_prints_the_serial_bytes(monkeypatch, tmp_path, capsys,
                                             case):
    text, lo, hi = CLI_CASES[case]
    path = tmp_path / "scan.cfg"
    path.write_text(text)
    out = {}
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        assert cli.main(["scan", "--config", str(path), "--from", lo,
                         "--to", hi]) == 0
        out[count] = capsys.readouterr()
    assert out[1].err == "" and out[1].out.count("\n") > 50
    assert out[2] == out[1] and out[3] == out[1]


class Visits:
    """Plant a rule before every specialisation of a scan or a search, in
    this process and in its forked workers, and log each n with the pid of
    the process that specialises it, in a file that all of them append to.
    rule(n, worker) runs after the log line; with until() a process waits
    there for what another one has walked, which is how a test decides
    who walks an n when the processes claim blocks on demand."""

    def __init__(self, monkeypatch, tmp_path, rule=None):
        self.caller, self.log = os.getpid(), tmp_path / "visits"
        self.log.write_text("")
        specialise = specialize.specialize_form

        def planted(form, curve, n, *args):
            with open(self.log, "a") as f:
                f.write(f"{os.getpid()} {n}\n")
            if rule is not None:
                rule(n, os.getpid() != self.caller)
            return specialise(form, curve, n, *args)
        monkeypatch.setattr(specialize, "specialize_form", planted)

    def walked(self, worker=None):
        """The (pid, n) of every visit, in the order of the log: of the
        workers, of this process, or of all when worker is None."""
        pairs = [tuple(map(int, line.split()))
                 for line in self.log.read_text().splitlines()]
        return [(pid, n) for pid, n in pairs
                if worker is None or (pid != self.caller) == worker]

    def ns(self, worker):
        """The n that the workers, or this process, have walked."""
        return {n for _, n in self.walked(worker)}


def until(condition, timeout=10):
    """Wait, up to timeout seconds, until condition() holds."""
    end = time.monotonic() + timeout
    while not condition() and time.monotonic() < end:
        time.sleep(0.001)


def test_a_forked_walk_keeps_each_block_of_two_n_in_one_process(
        monkeypatch, tmp_path):
    # a split by parity would give one worker every defined row of the
    # genus-2 example, which over [-60, 0] is defined only at even n; a
    # block keeps consecutive n in one process, whichever claims it
    log = tmp_path / "pids"
    log.write_text("")

    def whose(n):
        # every process walks its first n once all three have one
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        until(lambda: len(set(log.read_text().split())) == 3)
        return (n, str(os.getpid())), False
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 3)
    rows = []
    specialize._walk("scan", whose, lambda item: rows.append(
        SpecializationRow(n=item[0], error=item[1])), SCAN_FORK_MIN - 1, 0)
    assert [r.n for r in rows] == list(range(SCAN_FORK_MIN - 1, -1, -1))
    owners = [r.error for r in rows]
    assert owners[0::2] == owners[1::2]
    assert str(os.getpid()) in owners and len(set(owners)) == 3
    assert no_worker_left()


def test_a_three_process_forked_scan_visits_every_n_once(monkeypatch,
                                                         tmp_path):
    visits = Visits(monkeypatch, tmp_path)
    forks = cpus(monkeypatch, 3)
    rows = scan(CURVE, Q, -400, 1)
    assert len(forks) == 2
    assert no_worker_left()
    assert [r.n for r in rows] == list(range(1, -401, -1))
    assert sorted(n for _, n in visits.walked()) == list(range(-400, 2))


def test_a_slow_worker_leaves_the_caller_most_blocks(monkeypatch, tmp_path,
                                                     capsys):
    text, lo, hi = CLI_CASES["genus1-csv"]
    path = tmp_path / "scan.cfg"
    path.write_text(text)
    argv = ["scan", "--config", str(path), "--from", lo, "--to", hi]
    cpus(monkeypatch, 1)
    serial = cli.main(argv), capsys.readouterr()

    def slow(n, worker):
        if worker:
            time.sleep(0.02)
    visits = Visits(monkeypatch, tmp_path, slow)
    forks = cpus(monkeypatch, 2)
    assert (cli.main(argv), capsys.readouterr()) == serial
    assert len(forks) == 1
    assert no_worker_left()
    blocks = -(-(int(hi) - int(lo) + 1) // specialize._SCAN_BLOCK)
    own = {(int(hi) - n) // specialize._SCAN_BLOCK
           for _, n in visits.walked(worker=False)}
    assert len(own) > blocks / 2


@pytest.mark.parametrize("holding", [False, True])
def test_a_worker_that_exits_after_a_claim_is_named(monkeypatch, tmp_path,
                                                     holding):
    # the worker exits with a block claimed, or holding the token, which
    # it then never writes back; a third process waits for that token
    caller, gone = os.getpid(), tmp_path / "gone"
    claim = specialize._claim

    def planted(token, hi, lo):
        if os.getpid() == caller:
            return claim(token, hi, lo)
        if holding:
            os.read(token[0], 8)
        else:
            claim(token, hi, lo)
        gone.touch()
        os._exit(5)

    def first(n, worker):
        until(gone.exists)
    monkeypatch.setattr(specialize, "_claim", planted)
    Visits(monkeypatch, tmp_path, first)
    for count in (2, 3):
        gone.unlink(missing_ok=True)
        forks = cpus(monkeypatch, count)
        start = time.monotonic()
        with pytest.raises(RuntimeError,
                           match=r"^scan worker (\d+) exited with status 5 "
                                 r"without sending its rows$") as info:
            scan(CURVE, Q, -400, 1)
        assert time.monotonic() - start < 20
        assert int(str(info.value).split()[2]) in forks
        assert no_worker_left()


def test_short_scan_never_forks(monkeypatch):
    def refused():
        raise AssertionError("forked")
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    hi = CURVE.negativity_bound
    rows = scan(CURVE, Q, hi - SCAN_FORK_MIN + 2, hi)
    assert len(rows) == SCAN_FORK_MIN - 1
    with pytest.raises(AssertionError, match="forked"):
        scan(CURVE, Q, hi - SCAN_FORK_MIN + 1, hi)
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 1)
    assert len(scan(CURVE, Q, -400, hi)) == 402


def planted_row(monkeypatch, tmp_path, in_worker, action):
    """Run action at the first n that a worker, or this process, walks in a
    two-process scan; this process walks its first n only once a worker
    has begun, so that one does."""
    def rule(n, worker):
        if not worker:
            until(lambda: visits.walked(worker=True))
        if worker == in_worker:
            action()
    visits = Visits(monkeypatch, tmp_path, rule)
    cpus(monkeypatch, 2)


def test_a_worker_exception_reaches_the_caller(monkeypatch, tmp_path):
    def fail():
        raise RuntimeError(f"planted in process {os.getpid()}")
    planted_row(monkeypatch, tmp_path, True, fail)
    with pytest.raises(RuntimeError, match="planted in process") as info:
        scan(CURVE, Q, -60, 1)
    assert str(os.getpid()) not in str(info.value)
    assert no_worker_left()


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one value."""

    def __init__(self, what, where):
        super().__init__(f"{what} {where}")


def test_an_exception_that_does_not_travel_arrives_by_name(monkeypatch,
                                                           tmp_path):
    class Local(Exception):   # a local class does not pickle
        pass

    for exc, text in ((Local("planted"), "Local: planted"),
                      (TwoArgError("planted", 2), "TwoArgError: planted 2")):
        def fail():
            raise exc
        planted_row(monkeypatch, tmp_path, True, fail)
        with pytest.raises(RuntimeError) as info:
            scan(CURVE, Q, -60, 1)
        assert str(info.value) == text
        assert no_worker_left()
        monkeypatch.undo()


def test_a_worker_that_dies_without_writing_is_named(monkeypatch, tmp_path):
    planted_row(monkeypatch, tmp_path, True, lambda: os._exit(7))
    with pytest.raises(RuntimeError,
                       match="exited with status 7 without sending"):
        scan(CURVE, Q, -60, 1)
    assert no_worker_left()


def test_a_failing_caller_kills_and_reaps_its_workers(monkeypatch, tmp_path):
    def fail():
        raise KeyboardInterrupt
    planted_row(monkeypatch, tmp_path, False, fail)
    with pytest.raises(KeyboardInterrupt):
        scan(CURVE, Q, -60, 1)
    assert no_worker_left()


# (walk, the n of a hit that a worker finds, whether the caller is
# interrupted at its first n)
PLACEMENT_CASES = {
    "scan": (lambda: scan(CURVE, Q, -60, 1), None, False),
    "worker-hit": (lambda: find_order_at_least(CURVE, Q, 12000, -3000),
                   -403, False),
    "miss": (lambda: find_order_at_least(CURVE, Q, 10**9, -300), None,
             False),
    "interrupt": (lambda: scan(CURVE, Q, -60, 1), None, True),
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity calls on this platform")
@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("case", sorted(PLACEMENT_CASES))
def test_each_process_of_a_forked_walk_runs_on_its_own_cpu(
        monkeypatch, tmp_path, case, count):
    walk, hit, interrupt = PLACEMENT_CASES[case]
    before = os.sched_getaffinity(0)
    on = sorted(before)
    caller = os.getpid()
    log = tmp_path / "placement"
    log.write_text("")
    specialise = specialize.specialize_form

    def ran():
        """The (n, CPU set) of every visit, by pid."""
        got = {}
        for line in log.read_text().splitlines():
            pid, n, *cpu_set = map(int, line.split())
            got.setdefault(pid, []).append((n, set(cpu_set)))
        return got

    def started(hit=None):
        """Whether every worker has walked an n, and one the hit."""
        got = ran()
        return len(set(got) - {caller}) == count - 1 and (
            hit is None or any(n == hit for pid in got if pid != caller
                               for n, _ in got[pid]))

    def planted(form, curve, n, *args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {n} "
                    f"{' '.join(map(str, os.sched_getaffinity(0)))}\n")
        if os.getpid() == caller and interrupt:
            raise KeyboardInterrupt
        # every process holds a block before any walks on, and this one
        # walks on once a worker has found the hit
        until(lambda: started(None if os.getpid() != caller else hit))
        return specialise(form, curve, n, *args)
    monkeypatch.setattr(specialize, "specialize_form", planted)
    forks = cpus(monkeypatch, count)
    if interrupt:
        with pytest.raises(KeyboardInterrupt):
            walk()
    else:
        got = walk()
        assert hit is None or got.n == hit
    after = os.sched_getaffinity(0)
    os.sched_setaffinity(0, before)   # a failure here leaves no pin behind
    assert after == before
    assert len(forks) == count - 1
    assert no_worker_left()
    # worker w on the w-th CPU of the caller's set, counted round it
    where = {caller: on[0]}
    where.update((pid, on[w % len(on)]) for w, pid in enumerate(forks, 1))
    visits = ran()
    assert set(visits) <= set(where)
    if not interrupt:
        assert set(visits) == set(where)
    for pid, seen in visits.items():
        for n, cpu_set in seen:
            # a worker's hit is specialised again after the walk
            assert cpu_set == (before if pid == caller and n == hit
                               else {where[pid]})
    if hit is not None:
        assert (hit, before) in visits[caller]


@pytest.mark.parametrize("how", ["refused", "missing"])
def test_a_forked_scan_runs_where_placement_fails(monkeypatch, how):
    cpus(monkeypatch, 1)
    serial = scan(CURVE, Q, -60, 1)
    calls = []
    if how == "refused":
        def refused(pid, cpu_set):
            calls.append((os.getpid(), pid))
            raise OSError("planted")
        monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    forks = cpus(monkeypatch, 2)
    assert scan(CURVE, Q, -60, 1) == serial
    assert len(forks) == 1
    assert no_worker_left()
    # the caller is refused its pin, the worker's and then its restore
    me = os.getpid()
    assert calls == ([(me, 0), (me, forks[0]), (me, 0)] if how == "refused"
                     else [])


def capped_at(monkeypatch, n):
    """Plant an order past the cap at n's class in the maximal order."""
    disc = specialize_form(to_alt_mumford(CURVE, Q), CURVE,
                           n).maximal_class.disc
    order = IdealClass.order

    def capped(self, cap=ORDER_CAP):
        if self.disc == disc:
            raise OrderBoundError("planted")
        return order(self, cap)
    monkeypatch.setattr(IdealClass, "order", capped)


# (k, floor, keyword arguments, plant, hit n); the hit of search-g1's
# search, n = -403, is a worker's in test_forked_search_equals_serial_search,
# and n = -85 this process's
SEARCH_CASES = {
    "worker-hit": (12000, -3000, {}, None, -403),
    "caller-hit": (1000, -3000, {}, None, -85),
    "miss": (10**9, -300, {}, None, None),
    "squarefree": (2000, -3000, {"squarefree_only": True}, None, -145),
    "capped": (ORDER_CAP, -3000, {}, lambda mp: capped_at(mp, -115), -115),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_forked_search_equals_serial_search(monkeypatch, tmp_path, case):
    k, floor, kwargs, plant, hit = SEARCH_CASES[case]
    if plant is not None:
        plant(monkeypatch)

    def rule(n, worker):
        # the worker-hit's caller waits for a worker to walk the hit, and
        # the caller-hit's workers for the caller to walk it
        if case == "worker-hit" and not worker and count > 1:
            until(lambda: hit in visits.ns(True))
        if case == "caller-hit" and worker:
            until(lambda: hit in visits.ns(False))
    visits = Visits(monkeypatch, tmp_path, rule)
    got = {}
    for count in (1, 2, 3):
        visits.log.write_text("")
        forks = cpus(monkeypatch, count)
        calls = []
        s = find_order_at_least(CURVE, Q, k, floor, **kwargs,
                                progress=lambda n, o: calls.append((n, o)))
        assert len(forks) == count - 1
        assert no_worker_left()
        by_worker = visits.ns(True)
        if case == "worker-hit" and count > 1:
            assert hit in by_worker
        if case == "caller-hit":
            assert hit not in by_worker
        if s is None:
            got[count] = calls, None
            continue
        try:
            order = s.order_maximal
        except OrderBoundError as exc:
            order = str(exc)
        got[count] = calls, (s.n, s.maximal_class.rep, order)
    assert got[2] == got[1] and got[3] == got[1]
    calls, found = got[1]
    assert calls[-1][0] == (floor if hit is None else hit)
    if hit is not None:
        assert found[0] == hit
    if plant is not None:
        assert found[2] == "planted"


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_forked_search_prints_the_serial_bytes(monkeypatch, tmp_path,
                                               capsys, case):
    k, floor, kwargs, plant, hit = SEARCH_CASES[case]
    if plant is not None:
        plant(monkeypatch)
    path = tmp_path / "search.cfg"
    path.write_text("f = [-4, 0, 0, 1]\npoint = (2, 2)\n")
    argv = ["search", "--config", str(path), "--min-order", str(k),
            "--floor", str(floor)]
    if kwargs.get("squarefree_only"):
        argv.append("--squarefree-only")
    got = {}
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        got[count] = cli.main(argv), capsys.readouterr()
        assert no_worker_left()
    assert got[2] == got[1] and got[3] == got[1]
    code, out = got[1]
    assert code == {"miss": 1, "capped": 2}.get(case, 0)
    if hit is None:
        assert out.err == ("no n >= -300 with pairing order >= 1000000000\n"
                           "examined = 302\ndefined = 151\n"
                           "max_order_seen = 8609\n")
    else:
        assert out.out.startswith(f"n = {hit}\n")


def planted_search(monkeypatch, tmp_path, at, action):
    """Run action where a two-process search specialises an n that at
    accepts."""
    def rule(n, worker):
        if at(n):
            action()
    Visits(monkeypatch, tmp_path, rule)
    return cpus(monkeypatch, 2)


def test_a_worker_inconsistency_before_the_hit_reaches_the_caller(
        monkeypatch, tmp_path):
    # a worker walks n = -50, which fails; this process waits at its first
    # n until then
    def rule(n, worker):
        if worker and n == -50:
            raise InternalInconsistencyError(
                f"planted in process {os.getpid()}")
        if not worker:
            until(lambda: -50 in visits.ns(True))
    visits = Visits(monkeypatch, tmp_path, rule)
    cpus(monkeypatch, 2)
    calls = []
    with pytest.raises(InternalInconsistencyError,
                       match="planted in process") as info:
        find_order_at_least(CURVE, Q, 12000, -3000,
                            progress=lambda n, o: calls.append(n))
    assert str(info.value) != f"planted in process {os.getpid()}"
    # the serial walk's calls: every n before the failing one
    assert calls == list(range(1, -50, -1))
    assert no_worker_left()


@pytest.mark.parametrize("k, hit", [(12000, -403), (1000, -85)])
def test_an_inconsistency_past_the_hit_is_never_raised(monkeypatch, tmp_path,
                                                       k, hit):
    # on 3 CPUs, and at the caller's hit, a worker runs past the hit into
    # the planted failures
    def fail():
        raise InternalInconsistencyError("planted")
    planted_search(monkeypatch, tmp_path, lambda n: n < hit, fail)
    for count in (2, 3):
        forks = cpus(monkeypatch, count)
        assert find_order_at_least(CURVE, Q, k, -3000).n == hit
        assert len(forks) == count - 1
        assert no_worker_left()


def test_workers_past_the_hit_are_killed(monkeypatch, tmp_path):
    # this process walks its hit n = -85 while the worker waits at its
    # first n; then the worker sleeps at its first n past the hit, so
    # reaping it without a kill would wait out the sleep
    def rule(n, worker):
        if worker and n < -85:
            time.sleep(30)
        elif worker:
            until(lambda: -85 in visits.ns(False))
        elif n == -85:
            until(lambda: any(m < -85 for _, m in
                                     visits.walked(worker=True)))
    visits = Visits(monkeypatch, tmp_path, rule)
    cpus(monkeypatch, 2)
    start = time.monotonic()
    assert find_order_at_least(CURVE, Q, 1000, -3000).n == -85
    assert time.monotonic() - start < 20
    assert no_worker_left()
    assert any(n < -85 for _, n in visits.walked(worker=True))


def test_a_search_worker_that_dies_is_named(monkeypatch, tmp_path):
    def rule(n, worker):
        if worker:
            os._exit(7)
        until(lambda: visits.walked(worker=True))
    visits = Visits(monkeypatch, tmp_path, rule)
    forks = cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError,
                       match=r"search worker (\d+) exited with status 7 "
                             r"without sending") as info:
        find_order_at_least(CURVE, Q, 12000, -3000)
    assert int(str(info.value).split()[2]) == forks[0] != os.getpid()
    assert no_worker_left()


def test_a_failing_search_kills_and_reaps_its_workers(monkeypatch, tmp_path):
    # this process is interrupted at its first n, once a worker has begun
    def rule(n, worker):
        if not worker:
            until(lambda: visits.walked(worker=True))
            raise KeyboardInterrupt
    visits = Visits(monkeypatch, tmp_path, rule)
    forks = cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        find_order_at_least(CURVE, Q, 12000, -3000)
    assert len(forks) == 1
    assert no_worker_left()
    monkeypatch.undo()

    def progress(n, order):
        if n == -60:
            raise ValueError("planted")
    forks = cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="planted"):
        find_order_at_least(CURVE, Q, 12000, -3000, progress=progress)
    assert len(forks) == 1
    assert no_worker_left()


def test_short_search_never_forks(monkeypatch):
    # the search forks by the scan's rule, from the first n of its range
    def refused():
        raise AssertionError("forked")
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    top = CURVE.negativity_bound
    assert find_order_at_least(CURVE, Q, 10**9,
                               top - SCAN_FORK_MIN + 2) is None
    with pytest.raises(AssertionError, match="forked"):
        find_order_at_least(CURVE, Q, 10**9, top - SCAN_FORK_MIN + 1)
    monkeypatch.undo()
    forks = cpus(monkeypatch, 2)
    assert find_order_at_least(CURVE, Q, 10**9,
                               top - SCAN_FORK_MIN + 1) is None
    assert len(forks) == 1
    assert no_worker_left()
    # over 51 n, with its hit n = -43 among the first 48: one fork before
    # the first progress call, and the serial walk's hit and calls
    got = {}
    for count in (1, 2):
        forks = cpus(monkeypatch, count)
        calls = []
        s = find_order_at_least(
            CURVE, Q, 422, top - SCAN_FORK_MIN - 2,
            progress=lambda n, o: calls.append((n, o, len(forks))))
        assert no_worker_left()
        got[count] = s.n, s.order_maximal, [c[:2] for c in calls]
        assert {c[2] for c in calls} == {count - 1}
    assert got[2] == got[1] and got[1][0] == -43


def test_a_forked_scan_raises_the_serial_scans_error(monkeypatch):
    # whichever process walks n = -2 and n = -5, and in whatever order,
    # the error raised is that of n = -2
    row = specialize._scan_row

    def planted(curve, form, fprime, n, *args):
        if n in (-2, -5):
            raise RuntimeError(f"planted at {n}")
        return row(curve, form, fprime, n, *args)
    monkeypatch.setattr(specialize, "_scan_row", planted)
    for count in (1, 2, 3):
        forks = cpus(monkeypatch, count)
        with pytest.raises(RuntimeError, match="^planted at -2$"):
            scan(CURVE, Q, -60, 1)
        assert len(forks) == count - 1
        assert no_worker_left()


def test_the_caller_walks_ahead_no_further_than_its_own_hit(monkeypatch,
                                                            tmp_path):
    # k = 1000: the worker sleeps at its first n, in a block before the hit
    # n = -85; this process walks ahead to its hit while it waits, and not
    # into the next blocks
    walked, replayed = {}, {}

    def rule(n, worker):
        if worker and len(visits.walked(worker=True)) == 1:
            time.sleep(0.5)
        elif not worker:
            walked.setdefault(n, time.monotonic())
            if count > 1:
                until(lambda: visits.walked(worker=True))

    def progress(n, order):
        replayed.setdefault(n, time.monotonic())
        calls.append((n, order))
    visits = Visits(monkeypatch, tmp_path, rule)
    got = {}
    for count in (1, 2):
        visits.log.write_text("")
        forks = cpus(monkeypatch, count)
        calls = []
        walked.clear()
        replayed.clear()
        s = find_order_at_least(CURVE, Q, 1000, -3000, progress=progress)
        assert len(forks) == count - 1
        assert no_worker_left()
        got[count] = s.n, s.order_maximal, calls
    assert got[2] == got[1] and got[1][0] == -85
    assert -86 not in walked and not any(n < -86 for n in walked)
    # the hit was walked while the worker's block was on its way
    first = visits.walked(worker=True)[0][1]
    assert first > -85 and walked[-85] < replayed[first]
