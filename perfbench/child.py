"""One repeat of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC names the mode and the files to use:

- ``setup``: import hyperclass, load the config, build the curve and the
  divisor and its integral form, then stamp the time.  The parent's spawn
  time to this stamp is one sample of set-up time.
- ``cli``: run ``hyperclass.cli.main(argv)`` with stdout and stderr going
  to files.
- ``multiples``: for k = 1..kmax form kP by jac_add and, at each n, call
  delta_n and pairing_value; the outcomes go to stdout's file as JSON.

Time stamps are on the monotonic clock, which the parent shares.  The
result file also gets the exit code, the peak resident memory, whether
numpy was imported (only class_number_disc's large-|D| branch imports it),
the final prime-sieve limit and, when traced, the per-layer aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python integer work: Euclid's
    algorithm and binary-form reduction on word-sized inputs, the mix of
    small-integer arithmetic and calls that the class-group loops run, and
    products and remainders of numbers of a few thousand digits, like
    those of the Cantor arithmetic and HNF on large multiples.  It never
    changes, so wall time over it tracks the program while the host's own
    speed drifts."""
    def reduce(a, b, c):
        while True:
            if not -a < b <= a:
                k = (a - b) // (2 * a)
                a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
            if a > c:
                a, b, c = c, -b, a
                continue
            return a, b, c

    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 60001):
        x, y = 10 ** 15 + 7919 * i, 3 ** 28 + 104729 * i
        while y:
            x, y = y, x % y
        acc ^= x
        a, b, c = reduce(10 ** 6 + i, 10 ** 12 + 17 * i, 10 ** 18 + i * i)
        acc ^= a + b + c
    big, mod = 3 ** 9000, 7 ** 4500 + 1
    for i in range(1, 301):
        acc ^= (big * (mod + i)) % (mod - i) & 0xFFFF
    return time.perf_counter() - t0


def _divisor(config_path: str):
    from hyperclass.cli import curve_from_config, require_divisor
    from hyperclass.config import load_config

    cfg = load_config(config_path)
    curve = curve_from_config(cfg)
    return curve, require_divisor(cfg, curve)


def run_setup(spec: dict) -> None:
    from hyperclass.integral_forms import to_alt_mumford

    curve, Q = _divisor(spec["config"])
    to_alt_mumford(curve, Q)


def run_cli(spec: dict) -> int:
    from hyperclass import cli

    try:
        return cli.main(spec["argv"])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a crash is an output, reported by exit code
        traceback.print_exc()
        return 1


def run_multiples(spec: dict) -> int:
    from hyperclass.errors import HyperclassError
    from hyperclass.jacobian import jac_add
    from hyperclass.specialize import delta_n, pairing_value

    curve, P = _divisor(spec["config"])
    ops = []
    D = P
    for k in range(1, spec["kmax"] + 1):
        if k > 1:
            D = jac_add(curve, D, P)
        for n in spec["ns"]:
            try:
                c = delta_n(curve, D, n)
                p = pairing_value(curve, D, n)
            except HyperclassError as exc:
                ops.append([k, n, "undefined", type(exc).__name__])
            except Exception as exc:   # every other exception is a failure
                ops.append([k, n, "failure",
                            f"{type(exc).__name__}: {exc}"[:300]])
            else:
                ops.append([k, n, "ok",
                            [[c.rep.a, c.rep.b2, c.rep.c],
                             [p.disc, p.rep.a, p.rep.b2, p.rep.c]]])
    json.dump({"ops": ops}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import hyperclass
    import hyperclass.cli  # noqa: F401  (the CLI and config modules)

    src = Path(spec["src"]).resolve()
    if src not in Path(hyperclass.__file__).resolve().parents:
        print(f"hyperclass imported from {hyperclass.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    result = {}
    if spec["mode"] == "setup":
        run_setup(spec)
        result["done"] = time.monotonic()
    else:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(hyperclass.HyperclassError)
            tracer.install()
        runner = run_cli if spec["mode"] == "cli" else run_multiples
        calib_before = calibrate()
        with open(spec["out"], "w", encoding="utf-8") as out, \
                open(spec["err"], "w", encoding="utf-8") as err:
            result["ready"] = time.monotonic()
            with redirect_stdout(out), redirect_stderr(err):
                result["exit"] = runner(spec)
            out.flush()
            result["done"] = time.monotonic()
        result["calib_s"] = [calib_before, calibrate()]
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        result["numpy_imported"] = "numpy" in sys.modules
        result["sieve_limit"] = sys.modules["hyperclass.quadring"]._SIEVE_LIMIT
        if tracer is not None:
            result["trace"] = tracer.report()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
