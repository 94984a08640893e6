"""Specialising divisor classes to ideal classes of quadratic orders.

For a divisor class Q on y^2 = f(x) with integral data (A, B, C, e) and an
integer n where f(n) < 0, the ideal

    (A(n), e*sqrt(f(n)) - B(n))  in  Z[sqrt(f(n))]

defines a class delta_n(Q) in the Picard group of the order Z[sqrt(f(n))],
provided the value form [A(n), 2B(n), C(n)] is primitive.  When it is
not, the class may still exist for a better representative of the same
divisor class (for square-free f(n) = 2, 3 mod 4 it always does), but
this module does not search for one: extending an imprimitive value form
can silently land on a different ideal class, because the collapse at
primes shared between the values and e moves the class.  And when
f(n) = 1 mod 4 and the value content is even, the extension is a module
of the maximal order, so no representative works at all.  Both kinds of
failure raise NotPrimitiveError rather than returning a wrong class.
Pushing the ideal into the maximal order of Q(sqrt(f(n))) gives the value
of the class-group pairing of Q against the section x = n whenever that
section meets the smooth locus of the integral model.

Every caller goes through specialize_form(), whose record computes each
step of this per-n chain once, and only when it is read.  The scan driver
evaluates whole ranges of n, records one row per value with orders in
both Picard groups, and never aborts on a per-value error: failures are
data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from math import gcd

from .curve import OddHyperellipticCurve
from .errors import (
    HyperclassError,
    InternalInconsistencyError,
    NotPrimitiveError,
    OrderBoundError,
    PositiveValueError,
)
from .integral_forms import AltMumfordForm, coprime_shift, to_alt_mumford
from .jacobian import MumfordDivisor
from .polyarith import fixed_divisor
from .quadring import (
    FACTOR_BOUND,
    ORDER_CAP,
    ConductorData,
    IdealClass,
    QuadIdeal,
    class_number_disc,
    class_number_from_conductor,
    conductor_data,
    extend_ideal,
    form_to_ideal,
    ideal_to_class,
    kernel_order,
    push_to_maximal,
)


def specialize_form(form: AltMumfordForm, curve: OddHyperellipticCurve,
                    n: int, factor_bound: int = FACTOR_BOUND
                    ) -> Specialisation:
    """Evaluate (A, B, C) at n, check the discriminant identity, and
    return the record of the divisor class at n.

    Raises PositiveValueError when f(n) >= 0 (the value lies outside the
    imaginary range, i.e. n exceeds the negativity bound).
    """
    fval = curve.f(n)
    if fval >= 0:
        raise PositiveValueError(
            f"f({n}) = {fval} >= 0; specialisation needs f(n) < 0")
    a_val, b_val, c_val = form.A(n), form.B(n), form.C(n)
    if b_val * b_val - a_val * c_val != form.e * form.e * fval:
        # the values can be far too long to print; give their sizes
        sizes = ", ".join(f"{name} {v.bit_length()}" for name, v in (
            ("A(n)", a_val), ("B(n)", b_val), ("C(n)", c_val),
            ("e", form.e), ("f(n)", fval)))
        raise InternalInconsistencyError(
            f"value form discriminant mismatch at n = {n}: "
            f"B(n)^2 - A(n)*C(n) != e^2*f(n) (bits: {sizes})")
    return Specialisation(n=n, a_val=a_val, b_val=b_val, c_val=c_val,
                          e=form.e, fval=fval, factor_bound=factor_bound)


def value_gcd(s: Specialisation) -> int:
    """gcd(A(n), 2B(n), C(n)) of the value form."""
    return gcd(gcd(s.a_val, 2 * s.b_val), s.c_val)


def is_n_primitive(s: Specialisation) -> bool:
    """Whether the class is computed at n: the canonical value form must
    have gcd(A(n), 2B(n), C(n)) = 1.

    The gcd is invariant under the unimodular moves available at a fixed
    presentation, so shifting cannot change the answer.  A False is
    definitive when f(n) is square-free, f(n) = 1 mod 4, and the content
    is even: the extension then provably lies in the maximal order and
    the class does not exist.  In every other failing case False is
    conservative: the class may exist for some better representative of
    the divisor class, which this module does not search for.
    """
    return value_gcd(s) == 1


def _delta_ideal(s: Specialisation) -> QuadIdeal:
    """Normal form of (A(n), e*y - B(n)) in Z[sqrt(f(n))], shifted so the
    leading entry is coprime to e.  Requires a primitive value form: the
    extension of an imprimitive one is not in general in the right ideal
    class (the collapse at primes dividing both the values and e is not
    class-preserving), so no fallback is attempted."""
    if not s.primitive:
        # the values can be far too long to print; name n and the size
        raise NotPrimitiveError(
            f"value form at n = {s.n} has a content of "
            f"{value_gcd(s).bit_length()} bits; the class is not computed "
            f"from an imprimitive representative")
    a2, b2 = coprime_shift(s.a_val, s.b_val, s.c_val, s.e)
    return extend_ideal(abs(a2), b2, s.e, s.fval)


@dataclass(frozen=True)
class Specialisation:
    """The divisor class at one n: its value form [A(n), 2B(n), C(n)] with
    denominator e and f(n), and on demand its primitivity, the ideal, the
    conductor, the classes in Z[sqrt(f(n))] and in the maximal order,
    their orders, and the class numbers of both rings.

    Each derived field is computed once, at first use, so a caller pays
    only for what it reads: the class in the order never factors f(n),
    and no class order is computed unless an order or a class number is
    read, since h_maximal is checked against order_maximal.  The ideal
    raises NotPrimitiveError when the value form is imprimitive.
    """

    n: int
    a_val: int
    b_val: int
    c_val: int
    e: int
    fval: int
    factor_bound: int = FACTOR_BOUND

    @cached_property
    def primitive(self) -> bool:
        return is_n_primitive(self)

    @cached_property
    def ideal(self) -> QuadIdeal:
        return _delta_ideal(self)

    @cached_property
    def conductor(self) -> ConductorData:
        return conductor_data(self.fval, self.factor_bound)

    @cached_property
    def delta_class(self) -> IdealClass:
        """delta_n(Q) in Pic(Z[sqrt(f(n))])."""
        return ideal_to_class(self.ideal)

    @cached_property
    def maximal_class(self) -> IdealClass:
        """The image of delta_n(Q) in the class group of the maximal order.

        The push is a homomorphism on Pic(Z[sqrt(f(n))]), so it takes the
        ideal of delta_class's reduced form, whose entries are near
        sqrt|f(n)|, rather than the ideal itself, whose entries can be
        far longer."""
        return push_to_maximal(
            form_to_ideal(self.delta_class.rep, self.fval),
            self.conductor)

    @cached_property
    def order_order(self) -> int:
        """order_maximal times the order of delta_class^order_maximal,
        which lies in the kernel of the push to O_K, so its order divides
        the kernel order."""
        om = self.order_maximal
        return om * (self.delta_class ** om).order_dividing(
            kernel_order(self.conductor))

    @cached_property
    def order_maximal(self) -> int:
        """Order of maximal_class, by baby-step giant-step."""
        return self.maximal_class.order()

    @cached_property
    def h_maximal(self) -> int:
        """Class number of the maximal order.  Reading it also computes
        order_maximal: an h that the order does not divide raises
        InternalInconsistencyError instead of being reported."""
        h = class_number_disc(self.conductor.disc_max)
        if h % self.order_maximal:
            raise InternalInconsistencyError(
                f"the class number {h} of disc {self.conductor.disc_max} is "
                f"not a multiple of the class order {self.order_maximal}")
        return h

    @cached_property
    def h_order(self) -> int:
        """Class number of Z[sqrt(f(n))], by the conductor formula."""
        return class_number_from_conductor(self.conductor, self.h_maximal)


SPECIALISATION_CACHE = 8


@lru_cache(maxsize=SPECIALISATION_CACHE)
def _specialised(curve: OddHyperellipticCurve, Q: MumfordDivisor, n: int,
                 factor_bound: int) -> Specialisation:
    """The record that delta_n and pairing_value on one (Q, n) share, so
    the second call reuses the ideal the first one built.  They read only
    the two classes from it; orders and class numbers are read from
    specialize_form() records, which are never cached."""
    return specialize_form(to_alt_mumford(curve, Q), curve, n, factor_bound)


def delta_n(curve: OddHyperellipticCurve, Q: MumfordDivisor,
            n: int) -> IdealClass:
    """Class of (A(n), e*sqrt(f(n)) - B(n)) in Pic(Z[sqrt(f(n))])."""
    return _specialised(curve, Q, n, FACTOR_BOUND).delta_class


def pairing_value(curve: OddHyperellipticCurve, Q: MumfordDivisor, n: int,
                  factor_bound: int = FACTOR_BOUND) -> IdealClass:
    """Image of delta_n(Q) in the class group of the maximal order."""
    return _specialised(curve, Q, n, factor_bound).maximal_class


def smooth_section_status(fval: int, fprime_val: int, S: int) -> str:
    """Label whether the maximal-order value is the class-group pairing.

    "pairing" when the section x = n meets the smooth locus of the
    integral model (no prime divides both f(n) and f'(n), and f'(n) is
    odd) or when f(n) is square-free; otherwise "delta_only", meaning the
    computed pushforward is still delta's image but its identification
    with the biextension pairing is not certified.
    """
    if S == 1:
        return "pairing"
    if gcd(fval, fprime_val) == 1 and fprime_val % 2 == 1:
        return "pairing"
    return "delta_only"


@dataclass
class SpecializationRow:
    """One scanned value of n; error text instead of aborting on failure."""

    n: int
    f_n: int | None = None
    S_n: int | None = None
    primitive: bool | None = None
    form_a: int | None = None
    form_b2: int | None = None
    form_c: int | None = None
    order_order: int | None = None
    order_maximal: int | None = None
    h_order: int | None = None
    h_maximal: int | None = None
    error: str | None = None
    pairing_status: str | None = None


ROW_FIELDS = tuple(f.name for f in fields(SpecializationRow))


def _has_square(s: Specialisation, fd_f: int) -> bool:
    """Whether f(n)/fd_f has a square factor: a prime p with p^2 | f(n)/fd_f
    divides S(n), so the primes of S(n) in the record's conductor suffice."""
    return any(s.fval // fd_f % (p * p) == 0
               for p, _ in s.conductor.S_factors)


def _scan_row(curve: OddHyperellipticCurve, form: AltMumfordForm,
              fprime, n: int, class_numbers: bool, factor_bound: int,
              fd_f: int | None) -> SpecializationRow | None:
    row = SpecializationRow(n=n)
    try:
        s = specialize_form(form, curve, n, factor_bound)
        row.f_n = s.fval
        row.S_n = s.conductor.S
        if fd_f is not None and _has_square(s, fd_f):
            return None
        row.primitive = s.primitive
        if not row.primitive:
            return row
        rep = s.delta_class.rep
        row.form_a, row.form_b2, row.form_c = rep.a, rep.b2, rep.c
        if class_numbers:
            # first: a disc past DISC_CAP is refused before its order search
            row.h_maximal = s.h_maximal
            row.h_order = s.h_order
        row.order_order = s.order_order
        row.order_maximal = s.order_maximal
        row.pairing_status = smooth_section_status(s.fval, fprime(n),
                                                   s.conductor.S)
    except HyperclassError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def scan(curve: OddHyperellipticCurve, Q: MumfordDivisor,
         n_lo: int, n_hi: int, *, class_numbers: bool = False,
         squarefree_only: bool = False,
         factor_bound: int = FACTOR_BOUND) -> list[SpecializationRow]:
    """One row per n from n_hi down to n_lo (descending).

    n_hi must not exceed the curve's negativity bound.  With
    squarefree_only, rows where f(n)/fd(f) has a square factor are
    dropped; an n whose f(n) cannot be factored keeps its row, with the
    error.  Per-row failures land in the row's error field.
    """
    if n_hi > curve.negativity_bound:
        raise PositiveValueError(
            f"n_hi = {n_hi} exceeds the negativity bound "
            f"{curve.negativity_bound}")
    form = to_alt_mumford(curve, Q)
    fprime = curve.f.derivative()
    fd_f = fixed_divisor(curve.f) if squarefree_only else None
    rows = (_scan_row(curve, form, fprime, n, class_numbers, factor_bound,
                      fd_f) for n in range(n_hi, n_lo - 1, -1))
    return [row for row in rows if row is not None]


def find_order_at_least(curve: OddHyperellipticCurve, Q: MumfordDivisor,
                        k: int, n_floor: int, *,
                        squarefree_only: bool = False,
                        factor_bound: int = FACTOR_BOUND,
                        progress=None) -> Specialisation | None:
    """The record of the largest n <= negativity bound with pairing order
    >= k, or None.

    Walks n downward from the negativity bound to n_floor, past the n
    that squarefree_only drops as scan does; values where the class is
    undefined or fails are skipped, except that an
    InternalInconsistencyError propagates.  An order past ORDER_CAP meets
    any k up to the cap: that hit's order_maximal raises OrderBoundError
    when read, and every other hit's is already computed.  progress, if
    given, is called with (n, order or None) for every examined n.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    form = to_alt_mumford(curve, Q)
    fd_f = fixed_divisor(curve.f) if squarefree_only else None
    for n in range(curve.negativity_bound, n_floor - 1, -1):
        hit = False
        try:
            s = specialize_form(form, curve, n, factor_bound)
            if squarefree_only and _has_square(s, fd_f):
                continue
            order = s.order_maximal
            hit = order >= k
        except OrderBoundError:
            order, hit = None, k <= ORDER_CAP
        except InternalInconsistencyError:
            raise
        except HyperclassError:
            order = None
        if progress is not None:
            progress(n, order)
        if hit:
            return s
    return None
