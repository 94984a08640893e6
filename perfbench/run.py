"""The hyperclass benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --record

Each workload is a closed-loop batch job: one process, one thread, one
repeat at a time, each repeat in a fresh interpreter (every CLI call pays
the import and rebuilds the prime sieve).  The program is the hyperclass
package under ``src/`` of the checkout, driven through
``hyperclass.cli.main`` and the public library API.  Every repeat's output
is checked against the seed-0 reference and against invariants.

With ``--trace 0`` the run measures the end-to-end metrics: wall time and
operations per unit of a fixed reference loop (see README.md), set-up
time (the fastest of several fresh set-ups, scaled by the same loop),
peak resident memory and the share of operations that succeeded; it also
prints wall time, operations per second and set-up time in plain
seconds.  With ``--trace 1`` it alternates untraced and traced repeats
and reports the per-layer metrics of the traced ones (see tracing.py),
with the tracing overhead.  The stamp (git sha, Python, nproc, numpy and
whether class_number_disc took its numpy branch) is printed on the line
before the last.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when
every output is correct, 1 when one is not, and 2 when the program
cannot run.

``--record`` writes the seed-0 reference outputs and digests under
reference/ from the code in the checkout; run it only when the reference
is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import workloads
from workloads import Check, check_output, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PER_REPEAT = 3      # set-up samples taken before each untraced repeat
SETUP_MIN = 15            # set-up samples per untraced run, at least
MIN_REPEATS = 3          # untraced repeats per run
MIN_TRACED_PAIRS = 2     # untraced/traced pairs per traced run
MAX_RUN_S = 150.0        # no new repeat once a run would pass this
CALIB_NOMINAL_S = 0.25   # reference-loop time that setup_s is scaled to
CHILD_TIMEOUT_S = 170.0

# The end-to-end metrics of the result line (BENCHMARK.json), then the
# plain-second timings that are printed but not gated: on a host whose
# speed drifts, seconds spread too much between runs to gate a change.
END_TO_END_UNITS = {"wall_ref": "ref", "ops_per_ref": "1/ref",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
PRINTED_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "fastest_s": "s",
                 "setup_median_s": "s", "setup_fastest_s": "s",
                 "calib_s": "s"}

# Per-layer metrics: (name, source, key).  "calls" and "self" read the
# trace aggregates of one wrapped function (tracing.TARGETS); "module"
# sums the self times of every wrapped function of one module.  A self
# time is listed only for layers that every workload enters: the result
# line may carry no time that reads exactly the same on every run, and a
# layer a workload never enters has a self time of exactly 0 s on every
# run.  A count is exact by nature, so a count of 0 is kept.  The printed
# trace table shows the self time of every wrapped function.
LAYER_METRICS = (
    ("quadring.IdealClass.order.calls", "calls", "quadring.IdealClass.order"),
    ("quadring.compose.calls", "calls", "quadring.compose"),
    ("quadring.reduce_form.calls", "calls", "quadring.reduce_form"),
    ("quadring.class_number_disc.calls", "calls", "quadring.class_number_disc"),
    ("quadring.class_number_from_conductor.calls", "calls",
     "quadring.class_number_from_conductor"),
    ("quadring.factorint.calls", "calls", "quadring.factorint"),
    ("quadring.factorint.self_s", "self", "quadring.factorint"),
    ("quadring.extend_ideal.self_s", "self", "quadring.extend_ideal"),
    ("quadring.ideal_to_class.calls", "calls", "quadring.ideal_to_class"),
    ("quadring.push_to_maximal.self_s", "self", "quadring.push_to_maximal"),
    ("quadring.self_s", "module", "quadring."),
    ("polyarith.xgcd.calls", "calls", "polyarith.xgcd"),
    ("jacobian.jac_add.calls", "calls", "jacobian.jac_add"),
    ("jacobian.self_s", "module", "jacobian."),
    ("integral_forms.to_alt_mumford.calls", "calls",
     "integral_forms.to_alt_mumford"),
    ("integral_forms.to_alt_mumford.self_s", "self",
     "integral_forms.to_alt_mumford"),
    ("specialize.specialize_form.calls", "calls", "specialize.specialize_form"),
    ("specialize.specialize_form.self_s", "self", "specialize.specialize_form"),
    ("specialize.self_s", "module", "specialize."),
    ("cli.cmd_scan.calls", "calls", "cli.cmd_scan"),
    ("cli.cmd_search.calls", "calls", "cli.cmd_search"),
    ("config.load_config.self_s", "self", "config.load_config"),
    ("curve.new_curve.self_s", "self", "curve.new_curve"),
)


class CannotRun(Exception):
    """The program is missing or cannot be started."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # the interpreter's default int-to-str limit is part of the behaviour
    # measured (see the known ValueError in README.md)
    for key in ("PYTHONINTMAXSTRDIGITS", "PYTHONSTARTUP", "PYTHONOPTIMIZE"):
        env.pop(key, None)
    return env


def spawn(spec: dict, workdir: Path, tag: str) -> tuple[dict | None, float,
                                                        str]:
    """Run child.py on spec; returns (result or None, spawn time, stderr)."""
    spec = dict(spec, src=str(SRC), result=str(workdir / f"{tag}.result"))
    spec_path = workdir / f"{tag}.spec"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result"]).unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)],
                              env=child_env(), cwd=ROOT,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        return None, t0, "timed out"
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        return None, t0, proc.stderr[-2000:]
    return json.loads(result_path.read_text(encoding="utf-8")), t0, ""


def measure_setup(inputs, workdir: Path, samples: list[float],
                  count: int) -> None:
    """Append `count` set-up times, each a fresh interpreter."""
    for _ in range(count):
        res, t0, err = spawn({"mode": "setup",
                              "config": str(inputs.config_path)},
                             workdir, f"setup{len(samples)}")
        if res is None:
            raise CannotRun(f"set-up failed: {err.strip()}")
        samples.append(res["done"] - t0)


def repeat(inputs, workdir: Path, tag: str, trace: bool) -> dict:
    """One fresh-interpreter repeat of the workload, checked."""
    mode = "multiples" if inputs.spec["kind"] == "multiples" else "cli"
    out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
    res, _, stderr = spawn({"mode": mode, "config": str(inputs.config_path),
                            "argv": inputs.argv, "ns": inputs.ns,
                            "kmax": inputs.spec.get("kmax"),
                            "out": str(out), "err": str(err),
                            "trace": trace}, workdir, tag)
    if res is None:
        if "not from" in stderr or "No module named 'hyperclass" in stderr:
            raise CannotRun(stderr.strip())
        check = Check(ops=inputs.ops_hint)
        check.fail(f"repeat crashed: {stderr.strip()[-300:]}", check.ops)
        return {"check": check, "wall": None}
    text = out.read_text(encoding="utf-8")
    check = check_output(inputs, text, res["exit"])
    if res["exit"] not in (0, None):
        check.problems.append(err.read_text(encoding="utf-8")[-300:])
    return {"check": check, "wall": res["done"] - res["ready"],
            "calib": res["calib_s"],
            "rss_mb": res["peak_rss_kb"] / 1024.0,
            "numpy_imported": res["numpy_imported"],
            "sieve_limit": res["sieve_limit"], "trace": res.get("trace")}


def measure(inputs, workdir: Path, seconds: float, trace: bool):
    """Repeats until the next one would end past `seconds`, and at least
    MIN_REPEATS untraced repeats, or MIN_TRACED_PAIRS pairs of an untraced
    and a traced repeat.  Untraced runs also sample set-up time before
    each repeat, so that the samples span the run like the repeats do."""
    plain, traced, setup = [], [], []
    start = time.monotonic()
    while True:
        if not trace:
            measure_setup(inputs, workdir, setup, SETUP_PER_REPEAT)
        plain.append(repeat(inputs, workdir, f"r{len(plain)}", False))
        if trace:
            traced.append(repeat(inputs, workdir, f"t{len(traced)}", True))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > MAX_RUN_S:
            break
        least = MIN_TRACED_PAIRS if trace else MIN_REPEATS
        if len(plain) >= least and elapsed + per_round > seconds:
            break
    if not trace:
        measure_setup(inputs, workdir, setup, max(0, SETUP_MIN - len(setup)))
    return plain, traced, setup


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(plain: list[dict], setup: list[float]) -> dict:
    """Metric name -> (value, sample count).

    The host's speed drifts by tens of percent over minutes.  The gated
    timings therefore divide each repeat's wall time by the faster of the
    two reference-loop samples taken in the same process just before and
    just after it, and take the median over the repeats, so that a host
    that is slower for minutes does not read as a slower program.  Set-up
    time is its fastest sample over the fastest reference-loop sample of
    the run, given in seconds: those of a host on which the loop takes
    CALIB_NOMINAL_S.  The medians in plain seconds are printed beside
    them."""
    ok = [r for r in plain if r["wall"] is not None]
    if not ok:
        raise CannotRun("no repeat of the workload completed")
    attempted = sum(r["check"].ops for r in plain)
    failed = sum(r["check"].failed for r in plain)
    n = len(ok)
    calib = min(c for r in ok for c in r["calib"])
    return {
        "wall_ref": (_median(r["wall"] / min(r["calib"]) for r in ok), n),
        "ops_per_ref": (_median(r["check"].ops * min(r["calib"]) / r["wall"]
                                for r in ok), n),
        "setup_s": (min(setup) * CALIB_NOMINAL_S / calib, len(setup)),
        "peak_rss_mb": (_median(r["rss_mb"] for r in ok), n),
        "ok_frac": (1.0 - failed / attempted, attempted),
        "wall_s": (_median(r["wall"] for r in ok), n),
        "ops_per_s": (_median(r["check"].ops / r["wall"] for r in ok), n),
        "fastest_s": (min(r["wall"] for r in ok), n),
        "setup_median_s": (_median(setup), len(setup)),
        "setup_fastest_s": (min(setup), len(setup)),
        "calib_s": (calib, 2 * n),
    }


def per_layer(inputs, plain: list[dict], traced: list[dict]) -> dict:
    ok = [r for r in traced if r["trace"] is not None]
    if not ok:
        return {}

    def med(fn):
        return _median(fn(r) for r in ok)

    def med_count(fn):
        return statistics.median_low(fn(r) for r in ok)

    def value(trace: dict, source: str, key: str):
        if source == "calls":
            return trace["calls"].get(key, 0)
        if source == "self":
            return trace["self_s"].get(key, 0.0)
        return sum(v for k, v in trace["self_s"].items() if k.startswith(key))

    out = {}
    for name, source, key in LAYER_METRICS:
        pick = med_count if source == "calls" else med
        out[name] = pick(lambda r: value(r["trace"], source, key))
    out["quadring.sieve_limit"] = med_count(lambda r: r["sieve_limit"])
    out["specialize.find_order_at_least.examined"] = med_count(
        lambda r: r["trace"]["examined"])
    if inputs.spec["kind"] == "search":
        undefined = Counter(ok[-1]["trace"]["raised"])
    else:
        undefined = ok[-1]["check"].undefined
    out["specialize.undefined.NotPrimitiveError"] = \
        undefined.get("NotPrimitiveError", 0)
    out["specialize.undefined.other"] = sum(
        v for k, v in undefined.items() if k != "NotPrimitiveError")
    traced_wall = med(lambda r: r["wall"])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - _median(r["wall"] for r in plain)
    out["trace.unattributed_s"] = med(
        lambda r: r["wall"] - sum(r["trace"]["self_s"].values()))
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# stamp and report


def stamp() -> dict:
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperclass").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
    }


def print_trace_table(traced: list[dict], layer: dict) -> None:
    ok = [r for r in traced if r["trace"] is not None]
    if not ok:
        return
    names = sorted({k for r in ok for k in r["trace"]["calls"]})
    wall = layer["trace.wall_s"]
    rows = []
    for name in names:
        calls = _median(r["trace"]["calls"].get(name, 0) for r in ok)
        self_s = _median(r["trace"]["self_s"].get(name) for r in ok)
        rows.append((self_s if self_s is not None else -1.0, name, calls,
                     self_s))
    print(f"  {'layer':44s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    for _, name, calls, self_s in sorted(rows, reverse=True):
        if self_s is None:
            print(f"  {name:44s} {calls:10.0f} {'(count)':>10s}")
        else:
            print(f"  {name:44s} {calls:10.0f} {self_s:10.4f} "
                  f"{100 * self_s / wall:6.1f}%")
    attributed = wall - layer["trace.unattributed_s"]
    print(f"  self times sum to {attributed:.4f} s of the traced wall "
          f"{wall:.4f} s ({100 * attributed / wall:.1f}%); unattributed "
          f"{layer['trace.unattributed_s']:.4f} s is the benchmark's own "
          f"loop and output in the child")
    print(f"  tracing overhead: {layer['trace.overhead_s']:.4f} s "
          f"(traced wall minus untraced wall, medians)")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    inputs = make_inputs(name, seed, workdir)
    plain, traced, setup = measure(inputs, workdir, seconds, trace)
    runs = plain + traced
    checks = [r["check"] for r in runs]
    problems = [p for c in checks for p in c.problems]
    failed = sum(c.failed for c in checks)
    result = {
        "workload": name,
        "correct": not problems,
        "attempted": sum(c.ops for c in checks),
        "failed": failed,
        "known_defects": sum(c.known_defects for c in checks),
        "problems": problems[:20],
        "numpy_branch_taken": any(r.get("numpy_imported") for r in runs),
    }
    print(f"== {name}  seed {seed} (x -> x + {inputs.shift})  "
          f"{len(plain)} repeats" + (f" + {len(traced)} traced" if trace
                                     else ""))
    if trace:
        layer = per_layer(inputs, plain, traced)
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in layer.items()}
        print_trace_table(traced, layer)
        for k, v in layer.items():
            print(f"  {k:48s} {v:14.6g} {layer_unit(k)}")
    else:
        values = end_to_end(plain, setup)
        result["metrics"] = {k: {"value": values[k][0], "unit": unit}
                             for k, unit in END_TO_END_UNITS.items()}
        units = {**END_TO_END_UNITS, **PRINTED_UNITS}
        for k, (v, n) in values.items():
            shown = "n/a" if v is None else f"{v:.6g}"
            basis = f"median of {n}"
            if k == "ok_frac":
                basis = f"over {n} operations"
            elif k in ("setup_s", "fastest_s", "setup_fastest_s",
                       "calib_s"):
                basis = f"fastest of {n}"
            print(f"  {k:15s} {shown:>14s} {units[k]:9s} {basis}")
    fail_frac = failed / result["attempted"]
    print(f"  fail_frac       {fail_frac:14.6g} ({failed} of "
          f"{result['attempted']} operations; {result['known_defects']} "
          f"from the known ValueError)")
    print(f"  numpy branch of class_number_disc: "
          f"{'taken' if result['numpy_branch_taken'] else 'not taken'}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    return result


def record(workdir: Path) -> int:
    """Write the seed-0 reference outputs, and the digests of the CLI
    outputs, which seed 0 must reproduce byte for byte."""
    ref_dir = workloads.REFERENCE_DIR
    ref_dir.mkdir(exist_ok=True)
    digests = {}
    for name, spec in workloads.WORKLOADS.items():
        inputs = make_inputs(name, 0, workdir)
        mode = "multiples" if spec["kind"] == "multiples" else "cli"
        out = workdir / f"{name}.out"
        res, _, err = spawn({"mode": mode, "config": str(inputs.config_path),
                             "argv": inputs.argv, "ns": inputs.ns,
                             "kmax": spec.get("kmax"), "out": str(out),
                             "err": str(workdir / f"{name}.err"),
                             "trace": False}, workdir, name)
        if res is None or res["exit"] != 0:
            raise CannotRun(f"{name}: reference run failed: {err}")
        text = out.read_text(encoding="utf-8")
        if mode == "cli":
            digests[name] = workloads.digest(text)
        else:
            doc = json.loads(text)
            for op in doc["ops"]:
                if op[2] == "failure":
                    if not (workloads.is_known_defect(op[3])
                            and _imprimitive(spec, op[0], op[1])):
                        raise CannotRun(f"{name}: unexpected failure {op}")
                    # the defect hides a NotPrimitiveError; expect that
                    op[2:] = ["undefined", "NotPrimitiveError"]
            text = json.dumps(doc) + "\n"
        path = ref_dir / workloads.reference_file(name)
        path.write_text(text, encoding="utf-8")
        print(f"recorded {path.name}  sha256 {workloads.digest(text)}")
    (ref_dir / "digests.json").write_text(
        json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    bad = workloads.check_pinned_facts()
    for fact in bad:
        print(f"reference breaks a pinned fact: {fact}")
    return 1 if bad else 0


def _imprimitive(spec: dict, k: int, n: int) -> bool:
    """Whether the value form of kP at n is imprimitive (seed 0)."""
    from hyperclass import (IntPoly, from_point, is_n_primitive, jac_smul,
                            new_curve, specialize_form, to_alt_mumford)

    curve = new_curve(IntPoly(spec["curve"]["f"]))
    D = jac_smul(curve, k, from_point(curve, *spec["curve"]["point"]))
    return not is_n_primitive(specialize_form(to_alt_mumford(curve, D),
                                              curve, n))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the seed-0 reference outputs")
    args = parser.parse_args(argv)

    if not (SRC / "hyperclass" / "__init__.py").is_file():
        print(f"no hyperclass package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if args.record:
            return record(workdir)
        bad = workloads.check_pinned_facts()
        if bad:
            print(f"the reference breaks pinned facts: {bad}", file=sys.stderr)
            return 2
        names = list(workloads.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace), workdir) for name in names]
    except CannotRun as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:   # another run is using it
            pass
    info = dict(stamp(), numpy_branch_taken={
        r["workload"]: r["numpy_branch_taken"] for r in results})
    print("stamp: " + json.dumps(info))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
