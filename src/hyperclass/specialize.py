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
data.  No row depends on another, so a long scan splits its n over forked
workers, one per usable CPU, and merges their rows in n order.  The
order-chasing search find_order_at_least() walks its first n in one
process; past them the same workers run ahead through their blocks of n,
the caller replays the blocks in n order, and the first hit ends the
walk and the workers.
"""

from __future__ import annotations

import itertools
import marshal
import os
import threading
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
    def content(self) -> int:
        """gcd(A(n), 2B(n), C(n)), read by primitive and by the
        NotPrimitiveError message of every read of an imprimitive ideal."""
        return value_gcd(self)

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


# A scan of fewer n than this stays in one process: forking a worker and
# collecting it take a few ms.  Timed from the negativity bound, where rows
# are cheapest, on 2 CPUs (medians of 9 fresh processes), the genus-2 scan
# with class numbers broke even between 32 n (8.3 ms serial, 9.1 forked)
# and 48 n (22.6 and 20.9); without class numbers a fork costs up to
# about 3 ms until 128 to 192 n.  A search walks this many n from the
# negativity bound in one process before it forks: on the genus-1 example
# they take 2 to 4 ms, so a hit among them is reported without a fork.
SCAN_FORK_MIN = 48
# The processes of a scan take blocks of this many consecutive n in turn,
# forward in one round and backward in the next (0, 1, 1, 0, 0, 1, ... for
# two), so that each meets every residue of n mod 4: the example curves'
# classes are undefined at one parity of n, and on the genus-2 class-number
# scan over [-60, 0] h costs twice as much at n = 0 mod 4 as at 2 mod 4.
# There the costlier of two processes took 1.37 times its even part of the
# work with forward turns only, and 1.06 times with alternating turns.  The
# processes of a search take the same blocks in the same turns.
_SCAN_BLOCK = 2


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _processes(blocks: int) -> int:
    """The number of processes to share a number of blocks of n: one per
    usable CPU, but only this one when os.fork is missing or another
    thread is running (a fork copies only the calling thread)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    return min(_usable_cpus(), blocks)


def _owner(block: int, processes: int) -> int:
    """The process that takes the block-th block: 0 is the caller, and the
    turns go forward in even rounds and backward in odd ones."""
    rnd, turn = divmod(block, processes)
    return processes - 1 - turn if rnd % 2 else turn


def _exception_bytes(exc: BaseException) -> bytes:
    """exc pickled, or a RuntimeError naming it if it does not survive
    pickling."""
    import pickle
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _fork(processes: int, serve, pids: list, pipes: list) -> None:
    """Fork processes - 1 workers.  Worker w runs serve(w, fd), with fd the
    write end of its pipe, and serve must end in os._exit.  Each worker's
    pid and the read end of its pipe join pids and pipes as it starts, so
    that the caller can kill and reap whatever has started if a fork
    fails."""
    for w in range(1, processes):
        r, fd = os.pipe()
        pipes.append(open(r, "rb"))
        try:
            pid = os.fork()
            if pid == 0:
                serve(w, fd)
        finally:
            os.close(fd)
        pids.append(pid)


def _kill(pids: list) -> None:
    # the interpreter loads _signal at start-up, while importing signal
    # builds its enums, about 1 ms that a search's hit would wait for
    from _signal import SIGKILL
    for pid in pids:
        os.kill(pid, SIGKILL)


def _reap(pids: list) -> list[int]:
    """Wait for each worker; their exit codes, negative for a signal."""
    return [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]


def _died(kind: str, pid: int, code: int) -> RuntimeError:
    """The error that names a worker which ended with code before it
    sent what the caller waits for."""
    ended = (f"was killed by signal {-code}" if code < 0
             else f"exited with status {code}")
    return RuntimeError(
        f"{kind} worker {pid} {ended} without sending its rows")


def _serve(fd: int, row, ns) -> None:
    """In a forked scan worker: compute the rows of ns and send them
    through fd (b"r" and each row's field values, marshalled), or the
    exception that stopped them (b"x" and the exception, pickled); then
    exit at once, so that no finally block or buffered output of the
    parent's stack runs twice."""
    code = 1
    try:
        try:
            rows = [row(n) for n in ns]
            reply = b"r" + marshal.dumps([
                None if r is None else tuple(getattr(r, f) for f in ROW_FIELDS)
                for r in rows])
        except BaseException as exc:
            reply = b"x" + _exception_bytes(exc)
        with open(fd, "wb") as pipe:
            pipe.write(reply)
        code = 0
    finally:
        os._exit(code)


def _forked_rows(row, ns, workers: int) -> list:
    """row(n) for each n of ns, in order, computed by this process and
    workers - 1 forked workers, which take blocks of _SCAN_BLOCK
    consecutive n in turn, forward and backward in alternate rounds.
    Every worker is reaped before this returns or raises, and killed first
    if this process fails; a worker's exception is raised here."""
    shares = [[] for _ in range(workers)]
    for i in range(len(ns)):
        shares[_owner(i // _SCAN_BLOCK, workers)].append(i)
    rows = [None] * len(ns)
    pids, pipes = [], []
    try:
        _fork(workers, lambda w, fd: _serve(
            fd, row, [ns[i] for i in shares[w]]), pids, pipes)
        for i in shares[0]:
            rows[i] = row(ns[i])
        replies = [pipe.read() for pipe in pipes]
    except BaseException:
        _kill(pids)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = _reap(pids)
    for pid, code, reply, share in zip(pids, codes, replies, shares[1:]):
        if code:
            raise _died("scan", pid, code)
        if reply[:1] == b"x":
            import pickle
            raise pickle.loads(reply[1:])
        for i, values in zip(share, marshal.loads(reply[1:])):
            rows[i] = None if values is None else SpecializationRow(*values)
    return rows


def scan(curve: OddHyperellipticCurve, Q: MumfordDivisor,
         n_lo: int, n_hi: int, *, class_numbers: bool = False,
         squarefree_only: bool = False,
         factor_bound: int = FACTOR_BOUND) -> list[SpecializationRow]:
    """One row per n from n_hi down to n_lo (descending).

    n_hi must not exceed the curve's negativity bound.  With
    squarefree_only, rows where f(n)/fd(f) has a square factor are
    dropped; an n whose f(n) cannot be factored keeps its row, with the
    error.  Per-row failures land in the row's error field.

    A range of SCAN_FORK_MIN n or more is split over the CPUs this
    process may use: one forked worker per CPU beyond the first, each
    taking blocks of consecutive n in turn, and this process computing
    its own share.  The rows, and so the CLI's bytes, do not depend on
    the number of CPUs.  Each worker holds its own copy of the process's
    memory as it writes to it, and its own caches and prime sieve.  The
    scan stays in this process when os.fork is missing, when another
    thread is running (a fork copies only the calling thread), or when
    one CPU is usable.  An exception raised by a row reaches the caller
    from whichever process met it, a worker that dies without sending its
    rows raises RuntimeError, and no worker outlives the call.
    """
    if n_hi > curve.negativity_bound:
        raise PositiveValueError(
            f"n_hi = {n_hi} exceeds the negativity bound "
            f"{curve.negativity_bound}")
    form = to_alt_mumford(curve, Q)
    fprime = curve.f.derivative()
    fd_f = fixed_divisor(curve.f) if squarefree_only else None

    def row(n: int) -> SpecializationRow | None:
        return _scan_row(curve, form, fprime, n, class_numbers,
                         factor_bound, fd_f)
    ns = range(n_hi, n_lo - 1, -1)
    workers = (_processes(-(-len(ns) // _SCAN_BLOCK))
               if len(ns) >= SCAN_FORK_MIN else 1)
    rows = (_forked_rows(row, ns, workers) if workers > 1
            else map(row, ns))
    return [r for r in rows if r is not None]


def _walk(examine, ns, progress):
    """The record of the first hit among ns, walked in this process, or
    None; progress(n, order) is called for every examined n."""
    for n in ns:
        got = examine(n)
        if got is None:
            continue
        s, order, hit = got
        if progress is not None:
            progress(n, order)
        if hit:
            return s
    return None


def _blocks(hi: int, lo: int):
    """The blocks of _SCAN_BLOCK consecutive n from hi down to lo, made as
    they are needed: the walk may be far too long to count."""
    for top in itertools.count(hi, -_SCAN_BLOCK):
        if top < lo:
            return
        yield range(top, max(top - _SCAN_BLOCK, lo - 1), -1)


def _search_worker(w: int, fd: int, examine, hi: int, lo: int,
                   processes: int) -> None:
    """In forked search worker w: walk the blocks of n from hi down to lo
    that are w's turns, and send each through fd as one message, the
    length of its data in 4 bytes and then, marshalled, the (n, order or
    None) pairs of its examined n, whether the last was a hit, and None or
    the pickled exception that stopped the block.  Stop after a hit, an
    exception or the last block, and exit at once."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for b, ns in enumerate(_blocks(hi, lo)):
                if _owner(b, processes) != w:
                    continue
                found, hit, failure = [], False, None
                try:
                    hit = _walk(examine, ns, lambda n, order: found.append(
                        (n, order))) is not None
                except BaseException as exc:
                    failure = _exception_bytes(exc)
                data = marshal.dumps((found, hit, failure))
                pipe.write(len(data).to_bytes(4, "little") + data)
                pipe.flush()
                if hit or failure is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _replay(pipe, pids: list, pid: int, progress) -> int | None:
    """Read worker pid's next block from pipe and call progress on each of
    its examined n; the n of its hit, or None.  The exception that stopped
    the block is raised after the n before it, and a worker that died
    before sending the block is reaped, dropped from pids and named."""
    head = pipe.read(4)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 4 or len(data) < size:
        code = _reap([pid])[0]
        pids.remove(pid)
        raise _died("search", pid, code)
    found, hit, failure = marshal.loads(data)
    if progress is not None:
        for n, order in found:
            progress(n, order)
    if hit:
        return found[-1][0]
    if failure is not None:
        import pickle
        raise pickle.loads(failure)
    return None


def _forked_search(examine, progress, hi: int, lo: int, processes: int):
    """The record of the first hit from hi down to lo, or None, walked by
    this process and processes - 1 forked workers, which take blocks of n
    in turn as a scan does.  Each worker runs ahead through its own blocks
    and streams them here, where they are replayed in n order, so the
    progress calls and the hit are the serial walk's.  At the first hit,
    or at any failure, every worker is killed; every worker is reaped
    before this returns or raises."""
    pids, pipes = [], []
    try:
        _fork(processes, lambda w, fd: _search_worker(
            w, fd, examine, hi, lo, processes), pids, pipes)
        hit = None
        for b, ns in enumerate(_blocks(hi, lo)):
            w = _owner(b, processes)
            hit = (_walk(examine, ns, progress) if w == 0
                   else _replay(pipes[w - 1], pids, pids[w - 1], progress))
            if hit is not None:
                break
    except BaseException:
        _kill(pids)
        raise
    else:
        _kill(pids)
        # a worker's hit is an n: its record is rebuilt while the workers
        # die, and its order is read here, as the serial walk reads it
        return examine(hit)[0] if isinstance(hit, int) else hit
    finally:
        for pipe in pipes:
            pipe.close()
        _reap(pids)


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

    The first SCAN_FORK_MIN n are walked in this process, so a search
    whose hit lies there never forks.  Past them the walk is shared, as a
    scan's range is, with one forked worker per usable CPU beyond the
    first: the workers run ahead through their blocks of n and stream
    them back, this process replays every block in n order, and at the
    first hit it kills the workers, whose rows past the hit are wasted.
    The hit, the progress calls and any exception are the serial walk's,
    whatever the number of CPUs; a hit that a worker found is specialised
    again here, and its order read, before the record is returned.  No
    worker outlives the call.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    form = to_alt_mumford(curve, Q)
    fd_f = fixed_divisor(curve.f) if squarefree_only else None

    def examine(n: int):
        """(record or None, order or None, hit) at n, or None where
        squarefree_only drops n."""
        s = None
        try:
            s = specialize_form(form, curve, n, factor_bound)
            if squarefree_only and _has_square(s, fd_f):
                return None
            order = s.order_maximal
            return s, order, order >= k
        except OrderBoundError:
            return s, None, k <= ORDER_CAP
        except InternalInconsistencyError:
            raise
        except HyperclassError:
            return s, None, False
    top = curve.negativity_bound
    hi = max(n_floor - 1, top - SCAN_FORK_MIN)
    s = _walk(examine, range(top, hi, -1), progress)
    if s is not None or hi < n_floor:
        return s
    processes = _processes(-(-(hi - n_floor + 1) // _SCAN_BLOCK))
    if processes == 1:
        return _walk(examine, range(hi, n_floor - 1, -1), progress)
    return _forked_search(examine, progress, hi, n_floor, processes)
