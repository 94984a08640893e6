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
data.  The order-chasing search find_order_at_least() stops at its first
hit.  Both walk n through _walk(), which forks by one rule: a walk of
SCAN_FORK_MIN n or more forks a worker per usable CPU past the first,
every process claims the next block of n whenever it has walked its
last, each worker streams every block it walks, and the caller replays
the blocks in descending n, so the rows, the hit and any error are the
serial walk's.  Each process of a forked walk runs on its own CPU of the
caller's affinity set, since a kernel that does not balance load leaves
a forked child on its parent's CPU; the caller's set is restored when
the walk ends.
"""

from __future__ import annotations

import marshal
import os
import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from math import gcd
from operator import attrgetter

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
    return s.content == 1


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
            f"{s.content.bit_length()} bits; the class is not computed "
            f"from an imprimitive representative")
    a2, b2 = coprime_shift(s.a_val, s.b_val, s.c_val, s.e)
    return extend_ideal(abs(a2), b2, s.e, s.fval)


class _lazy:
    """A field computed by its method at the first read and stored in the
    instance __dict__, where every later read finds it without calling
    this descriptor: what functools.cached_property does from Python 3.12
    on, without the lock it takes on every first read before that.  A read
    that raises stores nothing, so the next read computes again.  The
    store bypasses a frozen dataclass's __setattr__, which still refuses
    an assignment."""

    def __init__(self, method):
        self.method, self.__doc__ = method, method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True)
class Specialisation:
    """The divisor class at one n: its value form [A(n), 2B(n), C(n)] with
    denominator e and f(n), and on demand its primitivity, the ideal, the
    conductor, the classes in Z[sqrt(f(n))] and in the maximal order,
    their orders, and the class numbers of both rings.

    Each derived field is computed once, at first use, so a caller pays
    only for what it reads: the class in the order never factors f(n),
    the class in the maximal order of a short ideal needs no reduced form
    in the order, and no class order is computed unless an order or a
    class number is read, since h_maximal is checked against
    order_maximal.  The ideal raises NotPrimitiveError when the value form
    is imprimitive.
    """

    n: int
    a_val: int
    b_val: int
    c_val: int
    e: int
    fval: int
    factor_bound: int = FACTOR_BOUND

    @_lazy
    def content(self) -> int:
        """gcd(A(n), 2B(n), C(n)), read by primitive and by the
        NotPrimitiveError message of every read of an imprimitive ideal."""
        return value_gcd(self)

    @_lazy
    def primitive(self) -> bool:
        return is_n_primitive(self)

    @_lazy
    def ideal(self) -> QuadIdeal:
        return _delta_ideal(self)

    @_lazy
    def conductor(self) -> ConductorData:
        return conductor_data(self.fval, self.factor_bound)

    @_lazy
    def delta_class(self) -> IdealClass:
        """delta_n(Q) in Pic(Z[sqrt(f(n))])."""
        return ideal_to_class(self.ideal)

    @_lazy
    def maximal_class(self) -> IdealClass:
        """The image of delta_n(Q) in the class group of the maximal order.

        An ideal with a <= |f(n)| is pushed as it is, so a search, which
        reads only this class, never reduces in Z[sqrt(f(n))].  A longer
        one, such as that of a large multiple kP, is pushed by the ideal of
        delta_class's reduced form, whose entries are near sqrt|f(n)|: the
        push is a homomorphism on Pic(Z[sqrt(f(n))]), so both routes give
        the same class."""
        ideal = self.ideal
        if ideal.a > -self.fval:
            ideal = form_to_ideal(self.delta_class.rep, self.fval)
        return push_to_maximal(ideal, self.conductor)

    @_lazy
    def order_order(self) -> int:
        """order_maximal times the order of delta_class^order_maximal,
        which lies in the kernel of the push to O_K, so its order divides
        the kernel order."""
        om = self.order_maximal
        return om * (self.delta_class ** om).order_dividing(
            kernel_order(self.conductor))

    @_lazy
    def order_maximal(self) -> int:
        """Order of maximal_class, by baby-step giant-step."""
        return self.maximal_class.order()

    @_lazy
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

    @_lazy
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


# A range of fewer n than this is walked in one process: forking a worker
# and collecting it take a few ms.  Timed from the negativity bound, where
# rows are cheapest, on 2 CPUs with each process on its own and blocks
# claimed on demand (medians of 9 fresh processes), the genus-2 scan with
# class numbers broke even near 32 n (12.3 ms serial, 13.0 forked) and
# gained at 48 n (35.5 and 25.7) and 64 n (87.1 and 57.5); the genus-1
# scan without class numbers lost 4.3, 3.3 and 3.1 ms to a fork at 32, 48
# and 64 n (2.5 and 6.8, 4.4 and 7.7, 5.7 and 8.8), and about 0.5 ms at
# 192 n (22.8 and 23.3).  A search's range forks by the same rule, so a
# search whose hit lies among its first n forks too when its range
# reaches this many n.
SCAN_FORK_MIN = 48
# The processes of a forked walk, a scan's or a search's, claim blocks of
# this many consecutive n, each the next one not yet claimed, whenever
# they have walked their last.  A worker sends each block as one message
# as soon as it is walked.  Blocks of 1, 2 and 4 n walked alike (medians
# of 15 fresh walks on 2 CPUs, each process on its own: 35.0, 34.7 and
# 35.9 ms on the genus-2 class-number scan over [-60, 0], 27.2, 26.8 and
# 26.1 ms on the genus-1 scan over [-400, 1], 20.0, 20.3 and 19.8 ms on
# the genus-1 search to its hit at n = -403).  Two n take half the claims
# and messages of one, a last block costs half of four, and every block
# holds both parities of n, whose rows cost differently on the example
# curves.
_SCAN_BLOCK = 2

_row_values = attrgetter(*ROW_FIELDS)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _processes(count: int) -> int:
    """The number of processes to walk count n: one per usable CPU, at most
    one per block, but only this one below SCAN_FORK_MIN n, when os.fork
    is missing, or when another thread is running (a fork copies only the
    calling thread)."""
    if (count < SCAN_FORK_MIN or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 1
    return min(_usable_cpus(), -(-count // _SCAN_BLOCK))


def _block(visit, hi: int, lo: int, b: int) -> tuple:
    """Walk the b-th block of n from hi down to lo: (items, stop, failure),
    the items of the visits of its n up to the first that stops, whether
    one stopped, and the Exception that ended the block, or None."""
    top = hi - b * _SCAN_BLOCK
    items = []
    try:
        for n in range(top, max(top - _SCAN_BLOCK, lo - 1), -1):
            got = visit(n)
            if got is not None:
                items.append(got[0])
                if got[1]:
                    return items, True, None
    except Exception as exc:
        return items, False, exc
    return items, False, None


def _claim(token: tuple, hi: int, lo: int) -> int | None:
    """Claim the next block of n from hi down to lo: read its index, 8
    bytes, from the token pipe, a (read end, write end) pair whose read end
    does not block, and write back the index after it, so that the reader
    has the token to itself in between.  The index, or None once its block
    is past lo; BlockingIOError while another process has the token."""
    b = int.from_bytes(os.read(token[0], 8), "little")
    os.write(token[1], (b + 1).to_bytes(8, "little"))
    return b if hi - b * _SCAN_BLOCK >= lo else None


def _pin(pid: int, cpu_set) -> None:
    """Run process pid, 0 for this one, on the CPUs in cpu_set only, where
    the platform lets it: placement changes no result, so a refusal leaves
    it unpinned."""
    try:
        os.sched_setaffinity(pid, cpu_set)
    except OSError:
        pass


def _work(w: int, fd: int, token: tuple, visit, hi: int, lo: int,
          cpus: list | None, inherited: tuple) -> None:
    """In forked worker w: close the read ends in inherited, so that a
    write fails once the caller is gone; run on CPU w of cpus, counted
    round the list, when cpus is not None; claim blocks through token,
    waiting for it in select, walk each and send it through fd as one
    message, the length of its data in 4 bytes and then, marshalled, the
    block's index, its items, whether it stopped, and None or the exception
    that ended it, pickled (a RuntimeError naming one that does not survive
    pickling).  After a block that stops or fails, or once a claim is None,
    exit at once, so that no finally block or buffered output of the
    caller's stack runs twice."""
    code = 1
    try:
        for r in inherited:
            os.close(r)
        if cpus is not None:
            _pin(0, {cpus[w % len(cpus)]})
        from select import select
        with open(fd, "wb") as pipe:
            while True:
                try:
                    b = _claim(token, hi, lo)
                except BlockingIOError:
                    select([token[0]], [], [])
                    continue
                if b is None:
                    break
                try:
                    items, stop, exc = _block(visit, hi, lo, b)
                except BaseException as interrupt:
                    items, stop, exc = [], False, interrupt
                failure = None
                if exc is not None:
                    import pickle
                    try:
                        failure = pickle.dumps(exc)
                        pickle.loads(failure)
                    except Exception:
                        failure = pickle.dumps(RuntimeError(
                            f"{type(exc).__name__}: {exc}"))
                data = marshal.dumps((b, items, stop, failure))
                pipe.write(len(data).to_bytes(4, "little") + data)
                pipe.flush()
                if stop or failure is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(r: int, buf: bytearray, ahead: dict) -> bool:
    """Read what has arrived through a worker's pipe, whose read end r does
    not block, into its buffer buf, and move each whole message into ahead
    under its block's index: False once the worker has closed the pipe."""
    chunk = os.read(r, 1 << 16)
    buf += chunk
    while len(buf) >= 4:
        end = 4 + int.from_bytes(buf[:4], "little")
        if len(buf) < end:
            break
        b, *walked = marshal.loads(bytes(buf[4:end]))
        ahead[b] = walked
        del buf[:end]
    return bool(chunk)


def _reap(kind: str, pid: int) -> None:
    """Reap the kind worker pid, whose pipe has closed: RuntimeError
    naming it unless it exited with status 0, as it does once it has sent
    every block it claimed."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        ended = (f"was killed by signal {-code}" if code < 0
                 else f"exited with status {code}")
        raise RuntimeError(
            f"{kind} worker {pid} {ended} without sending its rows")


def _walk(kind: str, visit, take, hi: int, lo: int):
    """Walk n from hi down to lo with visit(n), which returns None or an
    (item, stop) pair, and call take(item) on every item in descending n;
    return the item that stops the walk, or None.

    The n go in blocks of _SCAN_BLOCK to this process and the workers that
    _processes allows, forked at the start.  Each process claims the next
    block not yet claimed whenever it has walked its last, through a token
    pipe that holds the next block's index, so none idles before every
    block is claimed.  A worker streams each block it walks, with its index,
    and stops after one that stops or fails.  This process replays every
    block in n order; while the next has not arrived, it claims and walks
    one itself, up to one of its own that stops or fails, and then waits in
    select for the token or a worker's message.  So the items, the stop
    and the error raised are the serial walk's: the Exception that ends a
    block is raised after the items before it, and only when its block is
    replayed.  A worker that ends other than by finishing is named as a
    kind worker once this process, looking for a block, finds it gone, so
    one that dies holding the token stops the walk rather than hanging it.
    Every worker is killed and reaped before this returns or raises.

    Where the platform has os.sched_setaffinity, this process runs on the
    lowest CPU of its affinity set for the walk, and worker w on the w-th
    after it in ascending order, counted round the set: a kernel that does
    not balance load, as in a cpuset whose sched_load_balance is 0, never
    moves a forked child off its parent's CPU, so unpinned processes
    would share one.  A process whose pin is refused runs where it is,
    and the set is restored after the reap, however the walk ends."""
    count = hi - lo + 1
    processes = _processes(count)
    live, ahead = {}, {}   # a worker's read end: [pid, buffer]
    token = saved = cpus = None
    claim = iter(range(-(-count // _SCAN_BLOCK))).__next__
    if processes > 1 and hasattr(os, "sched_setaffinity"):
        saved = os.sched_getaffinity(0)
        cpus = sorted(saved)
    try:
        if processes > 1:
            from select import select
            token = os.pipe()
            os.write(token[1], bytes(8))
            os.set_blocking(token[0], False)

            def claim():
                return _claim(token, hi, lo)
        if cpus is not None:
            _pin(0, {cpus[0]})
        for w in range(1, processes):
            r, fd = os.pipe()
            live[r] = [None, bytearray()]
            try:
                pid = os.fork()
                if pid == 0:
                    _work(w, fd, token, visit, hi, lo, cpus, tuple(live))
            finally:
                os.close(fd)
            live[r][0] = pid
            os.set_blocking(r, False)
            if cpus is not None:
                # a new child first runs on this process's CPU, once the
                # kernel preempts this process (up to 3.4 ms after the
                # fork on a 2-vCPU host); moved from here it starts on its
                # own CPU at once, and it pins itself too in case it ran
                # before this line
                _pin(pid, {cpus[w % len(cpus)]})
        b, claiming, wait = 0, True, 0
        while hi - b * _SCAN_BLOCK >= lo:
            while b not in ahead:
                if live:
                    fds = list(live)
                    if claiming and wait is None:
                        fds.append(token[0])
                    for r in select(fds, [], [], wait)[0]:
                        if r in live and not _receive(r, live[r][1], ahead):
                            os.close(r)
                            _reap(kind, live.pop(r)[0])
                    if b in ahead:
                        break
                wait = None
                if claiming:
                    try:
                        c = claim()
                    except BlockingIOError:
                        continue
                    wait = 0
                    if c is None:
                        claiming = False
                    else:
                        ahead[c] = walked = _block(visit, hi, lo, c)
                        claiming = not walked[1] and walked[2] is None
                elif not live:
                    raise RuntimeError(
                        f"{kind} block {b} was claimed by a worker that "
                        f"exited without sending it")
            items, stop, failure = ahead.pop(b)
            for item in items:
                take(item)
            if stop:
                return items[-1]
            if failure is not None:
                if isinstance(failure, bytes):
                    import pickle
                    failure = pickle.loads(failure)
                raise failure
            b += 1
        return None
    finally:
        # the interpreter loads _signal at start-up, while importing signal
        # builds its enums, about 1 ms that a search's hit would wait for
        from _signal import SIGKILL
        pids = [pid for pid, _ in live.values() if pid is not None]
        for pid in pids:
            os.kill(pid, SIGKILL)
        for r in (*live, *(token or ())):
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
        if saved is not None:
            _pin(0, saved)


def scan(curve: OddHyperellipticCurve, Q: MumfordDivisor,
         n_lo: int, n_hi: int, *, class_numbers: bool = False,
         squarefree_only: bool = False,
         factor_bound: int = FACTOR_BOUND) -> list[SpecializationRow]:
    """One row per n from n_hi down to n_lo (descending).

    n_hi must not exceed the curve's negativity bound.  With
    squarefree_only, rows where f(n)/fd(f) has a square factor are
    dropped; an n whose f(n) cannot be factored keeps its row, with the
    error.  Per-row failures land in the row's error field.

    A range of SCAN_FORK_MIN n or more is walked by the CPUs this process
    may use, as _walk shares it: one forked worker per CPU beyond the
    first, every process claiming the next block of n whenever it has
    walked its last, each worker streaming the blocks it walks, and this
    process replaying them in n order.  Each process runs on its own CPU
    of this process's affinity set, which is restored when the scan ends.
    The rows, and so the CLI's bytes, do not depend on the number or
    placement of CPUs, and an exception raised by a row is the serial
    scan's, that of the first failing n.  Each worker holds its own copy
    of the process's memory as it writes to it, and its own caches and
    prime sieve.  The scan stays in this process when os.fork is missing,
    when another thread is running (a fork copies only the calling
    thread), or when one CPU is usable.  A worker that dies without
    sending its rows raises RuntimeError, and no worker outlives the call.
    """
    if n_hi > curve.negativity_bound:
        raise PositiveValueError(
            f"n_hi = {n_hi} exceeds the negativity bound "
            f"{curve.negativity_bound}")
    form = to_alt_mumford(curve, Q)
    fprime = curve.f.derivative()
    fd_f = fixed_divisor(curve.f) if squarefree_only else None

    def visit(n: int):
        row = _scan_row(curve, form, fprime, n, class_numbers, factor_bound,
                        fd_f)
        return None if row is None else (_row_values(row), False)
    rows = []
    _walk("scan", visit, lambda values: rows.append(
        SpecializationRow(*values)), n_hi, n_lo)
    return rows


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
    given, is called with (n, order or None) for every examined n, in
    descending n, in this process.

    The walk is shared as a scan's is, by the same rule, with blocks of
    n claimed on demand and each process on its own CPU, and stops at the
    first hit: the workers are killed, this process's affinity set is
    restored, and what any process walked past the hit is wasted.  A
    process stops claiming after a block with a hit.  The hit, the
    progress calls and any exception are the serial walk's, whatever the
    number of CPUs; a hit that a worker found is specialised again here,
    and its order read, before the record is returned.  No worker
    outlives the call.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    form = to_alt_mumford(curve, Q)
    fd_f = fixed_divisor(curve.f) if squarefree_only else None
    hits = {}

    def visit(n: int):
        """((n, order or None), hit) at n, or None where squarefree_only
        drops n; an imprimitive n gives (n, None) before any class is
        built.  The record of a hit is kept in hits."""
        s = order = None
        try:
            s = specialize_form(form, curve, n, factor_bound)
            if squarefree_only and _has_square(s, fd_f):
                return None
            if not s.primitive:
                return (n, None), False
            order = s.order_maximal
            hit = order >= k
        except OrderBoundError:
            hit = k <= ORDER_CAP
        except InternalInconsistencyError:
            raise
        except HyperclassError:
            hit = False
        if hit:
            hits[n] = s
        return (n, order), hit

    def take(item):
        if progress is not None:
            progress(*item)
    hit = _walk("search", visit, take, curve.negativity_bound, n_floor)
    if hit is None:
        return None
    # a worker's hit is only an n: its record is built again, and its
    # order read, here
    if hit[0] not in hits:
        visit(hit[0])
    return hits[hit[0]]
