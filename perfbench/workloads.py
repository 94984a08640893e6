"""Workload inputs, made from a seed, and the checks on their outputs.

Seed 0 is the canonical input.  Every other seed translates the curve,
x -> x + t with t drawn from the seed, and moves the divisor and every n
with it.  The curve, the divisor, the CLI arguments and the n the program
sees all change, but each value f(n), A(n), B(n), C(n) is one the
canonical run also meets.  So the work, and with it the timing, does not
depend on the seed, and each output must equal the seed-0 reference with
n shifted by -t.  Every output is also checked against invariants that do
not use the reference, on every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# y^2 = x^3 - 4 through (2, 2) and y^2 = x^5 + x - 1 through (1, 1),
# ascending coefficients; both have negativity bound nb.
G1 = {"f": (-4, 0, 0, 1), "point": (2, 2), "nb": 1}
G2 = {"f": (-1, 1, 0, 0, 0, 1), "point": (1, 1), "nb": 0}

MULTIPLES_KMAX = 112


def _canonical_ns() -> list[int]:
    """One even and one odd n from [-10^6, -10^5], drawn once.  Both
    parities run on every seed: at even n the odd multiples are
    imprimitive, and past k = 104 they meet the known ValueError.  Two n
    rather than more keep a repeat near 3.5 s, so that a run holds several
    repeats."""
    rng = random.Random(0)
    return [2 * rng.randrange(-500_000, -50_000) + parity
            for parity in (0, 1)]


WORKLOADS = {
    "scan-g1": {"kind": "scan", "curve": G1, "range": (-400, 1),
                "format": "csv", "class_numbers": False},
    "scan-g2-h": {"kind": "scan", "curve": G2, "range": (-60, 0),
                  "format": "json", "class_numbers": True},
    "search-g1": {"kind": "search", "curve": G1, "min_order": 12000,
                  "floor": -3000},
    "multiples-g1": {"kind": "multiples", "curve": G1,
                     "ns": _canonical_ns(), "kmax": MULTIPLES_KMAX},
}


def shift_for(seed: int) -> int:
    if seed == 0:
        return 0
    rng = random.Random(seed)
    return rng.choice((-1, 1)) * rng.randrange(1, 5001)


def translate(coeffs, t: int) -> tuple[int, ...]:
    """Ascending coefficients of f(x + t)."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * t ** (i - j)
    return tuple(out)


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass
class Inputs:
    """What one workload run hands the program, for one seed."""

    name: str
    shift: int
    spec: dict
    config_path: Path
    argv: list[str] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    ops_hint: int = 0


def make_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    spec = WORKLOADS[name]
    t = shift_for(seed)
    curve = spec["curve"]
    f = translate(curve["f"], t)
    x0, y0 = curve["point"]
    lines = [f"f = [{', '.join(map(str, f))}]", f"point = ({x0 - t}, {y0})"]
    if spec["kind"] == "scan":
        lines.append(f"format = {spec['format']}")
        lines.append(f"class_numbers = {str(spec['class_numbers']).lower()}")
    config_path = workdir / f"{name}.cfg"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = Inputs(name=name, shift=t, spec=spec, config_path=config_path)
    if spec["kind"] == "scan":
        lo, hi = spec["range"]
        inputs.argv = ["scan", "--config", str(config_path),
                       "--from", str(lo - t), "--to", str(hi - t)]
        inputs.ops_hint = hi - lo + 1
    elif spec["kind"] == "search":
        inputs.argv = ["search", "--config", str(config_path),
                       "--min-order", str(spec["min_order"]),
                       "--floor", str(spec["floor"] - t)]
        inputs.ops_hint = curve["nb"] - spec["floor"] + 1
    else:
        inputs.ns = [n - t for n in spec["ns"]]
        inputs.ops_hint = spec["kmax"] * len(spec["ns"])
    return inputs


# ---------------------------------------------------------------------------
# checks


@dataclass
class Check:
    """Outcome of checking one repeat's output."""

    ops: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    undefined: Counter = field(default_factory=Counter)
    known_defects: int = 0

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_reduced(a: int, b: int, c: int) -> bool:
    return 0 < a and -a < b <= a <= c and not (a == c and b < 0)


def _row_invariants(row: dict, f) -> bool:
    """Invariants of one scan row that need no reference."""
    if row["f_n"] != str(poly_eval(f, int(row["n"]))):
        return False
    if not row["order_order"]:
        return True
    S = int(row["S_n"])
    if int(row["f_n"]) % (S * S):
        return False
    a, b2, c = int(row["form_a"]), int(row["form_b2"]), int(row["form_c"])
    if b2 * b2 - 4 * a * c != 4 * int(row["f_n"]) or not _is_reduced(a, b2, c):
        return False
    oo, om = int(row["order_order"]), int(row["order_maximal"])
    kernel = kernel_order(int(row["f_n"]), S)
    if oo % om or kernel % (oo // om) or oo // om > 4 * S * S:
        return False
    if row["h_order"] and (int(row["h_order"]) % oo
                           or int(row["h_maximal"]) % om
                           or int(row["h_order"])
                           != kernel * int(row["h_maximal"])):
        return False
    return True


def kernel_order(v: int, S: int) -> int:
    """Order of the kernel of Pic(Z[sqrt(v)]) -> Pic(O_K), v = S^2 d < 0
    with d square-free: h(O)/h(O_K) = (m/u) prod_{p | m} (1 - (d_K|p)/p)
    for the conductor m and the unit index u.  The ratio of a class's
    order to the order of its image divides it."""
    d = v // (S * S)
    disc, m = (d, 2 * S) if d % 4 == 1 else (4 * d, S)
    if m == 1:
        return 1
    num, den = m, 1
    rest, p = m, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            if p == 2:
                chi = 0 if disc % 2 == 0 else (1 if disc % 8 in (1, 7)
                                                else -1)
            else:
                r = pow(disc % p, (p - 1) // 2, p)
                chi = -1 if r == p - 1 else r
            num *= p - chi
            den *= p
        p += 1
    den *= {-3: 3, -4: 2}.get(disc, 1)
    return num // den


def parse_scan(text: str, fmt: str) -> tuple[list[dict], dict]:
    """Rows and summary of a scan's CSV or JSON output, as strings."""
    if fmt == "json":
        doc = json.loads(text)

        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)
        rows = [{k: cell(v) for k, v in r.items()} for r in doc["rows"]]
        summary = {k: cell(v) for k, v in doc["summary"].items()}
        return rows, summary
    body = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    summary = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            summary[key] = value
    return rows, summary


def _canonical(row: dict, t: int, trim: bool) -> dict:
    """The row in the coordinates of seed 0; with trim, its error is cut
    to the error type, because messages may quote n."""
    out = dict(row, n=str(int(row["n"]) + t))
    if trim and out.get("error"):
        out["error"] = out["error"].split(":", 1)[0]
    return out


def check_scan(inputs: Inputs, text: str, exit_code: int) -> Check:
    spec = inputs.spec
    t = inputs.shift
    ref_text = (REFERENCE_DIR / reference_file(inputs.name)).read_text(
        encoding="utf-8")
    ref_rows, ref_summary = parse_scan(ref_text, spec["format"])
    check = Check(ops=len(ref_rows))
    if exit_code != 0:
        check.fail(f"scan exited with code {exit_code}", len(ref_rows))
        return check
    if t == 0 and digest(text) != load_digests()[inputs.name]:
        check.problems.append("output bytes differ from the seed-0 digest")
    try:
        rows, summary = parse_scan(text, spec["format"])
    except (ValueError, KeyError) as exc:
        check.fail(f"unparseable scan output: {exc}", len(ref_rows))
        return check
    f = translate(spec["curve"]["f"], t)
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            check.fail(f"{len(ref_rows) - i} rows missing", len(ref_rows) - i)
            break
        row = rows[i]
        try:
            same = _canonical(row, t, t != 0) == _canonical(ref, 0, t != 0)
        except (ValueError, KeyError):
            same = False
        if not same:
            check.fail(f"row {i} (n = {row.get('n')}) differs from reference")
            continue
        try:
            ok = _row_invariants(row, f)
        except (ValueError, KeyError, ZeroDivisionError):
            ok = False
        if not ok:
            check.fail(f"row n = {row['n']} breaks an invariant")
            continue
        if row["error"]:
            check.undefined[row["error"].split(":", 1)[0]] += 1
        elif row["primitive"] == "false":
            check.undefined["NotPrimitiveError"] += 1
    if len(rows) > len(ref_rows):
        check.problems.append(f"{len(rows) - len(ref_rows)} extra rows")
    ref_summary = dict(ref_summary)
    if ref_summary.get("max_order_at_n"):
        ref_summary["max_order_at_n"] = str(
            int(ref_summary["max_order_at_n"]) - t)
    if summary != ref_summary:
        check.problems.append("scan summary differs from reference")
    return check


def parse_search(text: str) -> dict:
    out = {}
    for ln in text.splitlines():
        key, sep, value = ln.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_search(inputs: Inputs, text: str, exit_code: int) -> Check:
    spec = inputs.spec
    t = inputs.shift
    ref = parse_search((REFERENCE_DIR / reference_file(inputs.name))
                       .read_text(encoding="utf-8"))
    nb = spec["curve"]["nb"] - t
    ref_examined = spec["curve"]["nb"] - int(ref["n"]) + 1
    check = Check(ops=ref_examined)
    if exit_code != 0:
        check.fail(f"search exited with code {exit_code}", ref_examined)
        return check
    if t == 0 and digest(text) != load_digests()[inputs.name]:
        check.problems.append("output bytes differ from the seed-0 digest")
    got = parse_search(text)
    expected = dict(ref, n=str(int(ref["n"]) - t))
    if got != expected:
        check.fail("search result differs from reference", ref_examined)
        return check
    n = int(got["n"])
    check.ops = nb - n + 1
    f = translate(spec["curve"]["f"], t)
    try:
        a, b2, c = (int(x) for x in got["form"].strip("[]").split(","))
        order, h = int(got["order"]), int(got["class_number"])
        ok = (int(got["f(n)"]) == poly_eval(f, n)
              and b2 * b2 - 4 * a * c == int(got["disc"])
              and _is_reduced(a, b2, c)
              and order >= spec["min_order"] and h % order == 0)
    except (ValueError, KeyError):
        ok = False
    if not ok:
        check.fail("search result breaks an invariant", check.ops)
    return check


def is_known_defect(failure: str) -> bool:
    """The ValueError raised while formatting a NotPrimitiveError message
    for values past Python's 4300-digit int-to-str limit."""
    return (failure.startswith("ValueError:")
            and "integer string conversion" in failure)


def check_multiples(inputs: Inputs, text: str, exit_code: int) -> Check:
    from hyperclass.quadring import IdealClass, IntBinaryForm

    spec = inputs.spec
    t = inputs.shift
    ref_ops = json.loads((REFERENCE_DIR / reference_file(inputs.name))
                         .read_text(encoding="utf-8"))["ops"]
    check = Check(ops=len(ref_ops))
    if exit_code != 0:
        check.fail(f"multiples exited with code {exit_code}", len(ref_ops))
        return check
    try:
        ops = json.loads(text)["ops"]
    except (ValueError, KeyError) as exc:
        check.fail(f"unparseable multiples output: {exc}", len(ref_ops))
        return check
    f = spec["curve"]["f"]
    classes = {}   # (k, n index) -> (delta class, pairing class)
    base = {}      # n index -> smallest k with delta(kP) defined at that n
    law_checks = Counter()   # n index -> homomorphism-law checks run

    def cls(form):
        F = IntBinaryForm(*form)
        return IdealClass(F.disc, F)

    for i, ref in enumerate(ref_ops):
        if i >= len(ops):
            check.fail(f"{len(ref_ops) - i} operations missing",
                       len(ref_ops) - i)
            break
        k, n, kind, data = ops[i]
        rk, rn, rkind, rdata = ref[:4]
        if (k, n) != (rk, rn - t):
            check.fail(f"operation {i} is (k, n) = ({k}, {n}), "
                       f"expected ({rk}, {rn - t})")
            continue
        j = inputs.ns.index(n)
        if kind == "failure":
            check.failed += 1
            if rkind == "undefined" and is_known_defect(data):
                check.known_defects += 1
            else:
                check.problems.append(f"k = {k}, n = {n}: {data}")
            continue
        if [kind, data] != [rkind, rdata]:
            check.fail(f"k = {k}, n = {n}: {kind} {data}, reference "
                       f"{rkind} {rdata}")
            continue
        if kind == "undefined":
            check.undefined[data] += 1
            continue
        (a, b2, c), (pdisc, pa, pb2, pc) = data
        fn = poly_eval(f, n + t)
        if b2 * b2 - 4 * a * c != 4 * fn or not _is_reduced(a, b2, c) \
                or pb2 * pb2 - 4 * pa * pc != pdisc \
                or not _is_reduced(pa, pb2, pc):
            check.fail(f"k = {k}, n = {n}: reduced forms break an invariant")
            continue
        here = (cls((a, b2, c)), cls((pa, pb2, pc)))
        classes[k, j] = here
        # the homomorphism law, in both orders, for delta and pairing:
        # delta(kP) = delta((k - k0)P) delta(k0 P), k0 the smallest
        # multiple defined at n (k0 = 2 at an n where P is imprimitive)
        k0 = base.setdefault(j, k)
        prev = classes.get((k - k0, j))
        if k > k0 and prev is not None:
            law_checks[j] += 1
            for now, b, p in zip(here, classes[k0, j], prev):
                if not (p * b == now and b * p == now):
                    check.fail(f"k = {k}, n = {n}: the homomorphism law "
                               f"fails")
                    break
    for j, n in enumerate(inputs.ns):
        if not law_checks[j]:
            check.problems.append(f"n = {n}: no homomorphism-law check ran")
    return check


CHECKS = {"scan": check_scan, "search": check_search,
          "multiples": check_multiples}


def check_output(inputs: Inputs, text: str, exit_code: int) -> Check:
    return CHECKS[inputs.spec["kind"]](inputs, text, exit_code)


# ---------------------------------------------------------------------------
# the seed-0 reference


def reference_file(name: str) -> str:
    spec = WORKLOADS[name]
    if spec["kind"] == "scan":
        return f"{name}.{spec['format']}"
    return f"{name}.txt" if spec["kind"] == "search" else f"{name}.json"


def load_digests() -> dict:
    return json.loads((REFERENCE_DIR / "digests.json").read_text())


def check_pinned_facts() -> list[str]:
    """Cross-check the reference against facts the test suite pins
    independently; returns the facts that do not hold."""
    bad = []
    rows, _ = parse_scan((REFERENCE_DIR / "scan-g1.csv").read_text(), "csv")
    window = [r for r in rows if -300 <= int(r["n"]) <= 1]
    if sum(1 for r in window
           if r["order_order"] and int(r["order_order"]) > 1) != 150:
        bad.append("scan-g1: 150 non-principal rows in [-300, 1]")
    best = max((r for r in window if r["order_maximal"]),
               key=lambda r: int(r["order_maximal"]))
    if (best["n"], best["order_maximal"]) != ("-283", "8609"):
        bad.append("scan-g1: largest order 8609 at n = -283")
    ref = parse_search((REFERENCE_DIR / "search-g1.txt").read_text())
    if (ref.get("n"), ref.get("order"), ref.get("class_number")) \
            != ("-403", "13406", "13406"):
        bad.append("search-g1: n = -403 with order = h = 13406")
    return bad
