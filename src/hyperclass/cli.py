"""Command-line experiment runner.

Subcommands:

    validate      check a config: curve invariants, divisor validity
    scan          specialise a divisor class over a range of n
    search        find the largest n whose pairing order reaches a target
    threshold     congruence class and threshold of guaranteed non-principal n
    class-number  class number of Z[sqrt(D)] for negative D
    jac           Jacobian arithmetic: add, neg, smul
    altmumford    integral form (A, B, C, e) of the configured divisor

Every number the tool reads, from config keys, flags and jac operands,
goes through the config value parsers, and exact values of any length
are read and printed.  Exit codes: 0 success, 1 search exhausted without
a hit, 2 invalid input.  All output is deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import fields, replace

from .config import (ExperimentConfig, load_config, parse_int, parse_list,
                     parse_pair, parse_positive)
from .curve import OddHyperellipticCurve, new_curve
from .errors import (
    BadDegreeError,
    ConfigError,
    DegreeTooLargeError,
    HyperclassError,
)
from .integral_forms import (
    congruence_data,
    nontriviality_threshold,
    to_alt_mumford,
)
from .jacobian import (
    MumfordDivisor,
    check_divisor,
    from_point,
    jac_add,
    jac_neg,
    jac_smul,
)
from .polyarith import IntPoly, RatPoly, discriminant, fixed_divisor
from .quadring import class_number
from .specialize import ROW_FIELDS, find_order_at_least, scan


def curve_from_config(cfg: ExperimentConfig) -> OddHyperellipticCurve:
    coeffs = []
    for c in cfg.f:
        if c.denominator != 1:
            raise ConfigError(
                f"curve coefficient {c} is not an integer")
        coeffs.append(c.numerator)
    return new_curve(IntPoly(coeffs))


def divisor_from_config(cfg: ExperimentConfig,
                        curve: OddHyperellipticCurve) -> MumfordDivisor | None:
    if cfg.point is not None:
        return from_point(curve, cfg.point[0], cfg.point[1])
    if cfg.divisor_a is not None:
        D = MumfordDivisor(RatPoly(cfg.divisor_a), RatPoly(cfg.divisor_b))
        check_divisor(curve, D)
        return D
    return None


def require_divisor(cfg: ExperimentConfig,
                    curve: OddHyperellipticCurve) -> MumfordDivisor:
    D = divisor_from_config(cfg, curve)
    if D is None:
        raise ConfigError("config defines no divisor "
                          "(need 'point' or 'divisor_a'/'divisor_b')")
    return D


# ---------------------------------------------------------------------------
# output helpers


def _poly_list(p) -> str:
    cs = p.coeffs
    if not cs:
        return "[0]"
    return "[" + ",".join(str(c) for c in cs) + "]"


def _format_divisor(D: MumfordDivisor) -> str:
    return f"{_poly_list(D.a)};{_poly_list(D.b)}"


def _parse_divisor_operand(text: str,
                           curve: OddHyperellipticCurve) -> MumfordDivisor:
    """Either 'x,y' (a point) or '[a0,a1,...];[b0,...]' (a Mumford pair),
    read as the config's pair and lists."""
    a, semicolon, b = text.partition(";")
    try:
        if semicolon:
            D = MumfordDivisor(RatPoly(parse_list(a)), RatPoly(parse_list(b)))
        else:
            D = from_point(curve, *parse_pair(f"({text})"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse divisor operand: {exc}") from None
    check_divisor(curve, D)
    return D


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_value(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    return str(v)   # integers as decimal strings


def _summarise(rows) -> dict:
    errors = sum(1 for r in rows if r.error is not None)
    nontrivial = sum(1 for r in rows
                     if r.order_order is not None and r.order_order > 1)
    max_oo = max((r.order_order for r in rows
                  if r.order_order is not None), default=None)
    max_om, max_at = None, None
    for r in rows:
        if r.order_maximal is not None and (max_om is None
                                            or r.order_maximal > max_om):
            max_om, max_at = r.order_maximal, r.n
    return {
        "rows": len(rows),
        "errors": errors,
        "nontrivial": nontrivial,
        "max_order_order": max_oo,
        "max_order_maximal": max_om,
        "max_order_at_n": max_at,
    }


def _emit_rows(rows, fmt: str, out) -> None:
    summary = _summarise(rows)
    if fmt == "json":
        doc = {
            "rows": [
                {k: _json_value(getattr(r, k)) for k in ROW_FIELDS}
                for r in rows
            ],
            "summary": {k: _json_value(v) for k, v in summary.items()},
        }
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for r in rows:
        writer.writerow([_csv_cell(getattr(r, k)) for k in ROW_FIELDS])
    for k, v in summary.items():
        out.write(f"# {k} = {_csv_cell(v)}\n")


# ---------------------------------------------------------------------------
# subcommands


def _config_with_flags(args) -> ExperimentConfig:
    """The config file's values with every given flag laid over them; the
    flag dests are the ExperimentConfig field names."""
    cfg = load_config(args.config)
    given = {f.name: getattr(args, f.name) for f in fields(cfg)
             if getattr(args, f.name, None) is not None}
    return replace(cfg, **given)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    curve = curve_from_config(cfg)
    print(f"curve: {curve}")
    print(f"genus: {curve.genus}")
    print(f"negativity_bound: {curve.negativity_bound}")
    print(f"discriminant: {discriminant(curve.f)}")
    print(f"fixed_divisor: {fixed_divisor(curve.f)}")
    D = divisor_from_config(cfg, curve)
    if D is None:
        print("divisor: none")
    else:
        print(f"divisor: {_format_divisor(D)} valid")
    return 0


def cmd_scan(args) -> int:
    cfg = _config_with_flags(args)
    curve = curve_from_config(cfg)
    Q = require_divisor(cfg, curve)
    n_to = cfg.n_to if cfg.n_to is not None else curve.negativity_bound
    if cfg.n_from is None:
        raise ConfigError("scan needs a lower bound: config 'from' or --from")
    rows = scan(curve, Q, cfg.n_from, n_to,
                class_numbers=cfg.class_numbers,
                squarefree_only=cfg.squarefree_only,
                factor_bound=cfg.factor_bound)
    _emit_rows(rows, cfg.format, sys.stdout)
    return 0


def cmd_search(args) -> int:
    cfg = _config_with_flags(args)
    curve = curve_from_config(cfg)
    Q = require_divisor(cfg, curve)
    k, floor = cfg.min_order, cfg.floor
    if k is None:
        raise ConfigError("search needs a target: config 'min_order' "
                          "or --min-order")
    if floor is None:
        raise ConfigError("search needs a cut-off: config 'floor' or --floor")
    stats = {"examined": 0, "defined": 0, "max_order_seen": None}

    def note(n, order):
        stats["examined"] += 1
        if order is not None:
            stats["defined"] += 1
            if stats["max_order_seen"] is None \
                    or order > stats["max_order_seen"]:
                stats["max_order_seen"] = order

    s = find_order_at_least(curve, Q, k, floor,
                            squarefree_only=cfg.squarefree_only,
                            factor_bound=cfg.factor_bound, progress=note)
    if s is None:
        print(f"no n >= {floor} with pairing order >= {k}", file=sys.stderr)
        for key in ("examined", "defined", "max_order_seen"):
            print(f"{key} = {stats[key]}", file=sys.stderr)
        return 1
    cls = s.maximal_class
    print(f"n = {s.n}")
    print(f"f(n) = {s.fval}")
    print(f"form = {cls.rep}")
    print(f"disc = {cls.disc}")
    # a capped order or a refused h raises only after the lines above it
    print(f"order = {s.order_maximal}")
    print(f"class_number = {s.h_maximal}")
    return 0


def cmd_threshold(args) -> int:
    cfg = load_config(args.config)
    curve = curve_from_config(cfg)
    form = to_alt_mumford(curve, require_divisor(cfg, curve))
    cd = congruence_data(form, cfg.factor_bound)
    print(f"integral form: A = {form.A}, B = {form.B}, e = {form.e}")
    print(f"congruence class: n = {cd.N_L} (mod {cd.modulus})")
    print(f"fixed divisor: {cd.d_L}")
    try:
        threshold = nontriviality_threshold(form.A, cd.d_L, curve)
    except (BadDegreeError, DegreeTooLargeError) as exc:
        print(f"threshold: none, no norm-gap guarantee from this divisor "
              f"({exc})")
        return 0
    print(f"threshold: {threshold}")
    print(f"guarantee: every n <= {threshold} with n = {cd.N_L} "
          f"(mod {cd.modulus}) gives a non-principal class")
    return 0


def cmd_class_number(args) -> int:
    D = args.D
    if D >= 0:
        print(f"D = {D} must be negative", file=sys.stderr)
        return 2
    print(class_number(D))
    return 0


def cmd_jac(args) -> int:
    cfg = load_config(args.config)
    curve = curve_from_config(cfg)
    op = args.op
    operands = args.operand
    if op == "add":
        if len(operands) != 2:
            raise ConfigError("jac add takes two divisor operands")
        D1 = _parse_divisor_operand(operands[0], curve)
        D2 = _parse_divisor_operand(operands[1], curve)
        result = jac_add(curve, D1, D2)
    elif op == "neg":
        if len(operands) != 1:
            raise ConfigError("jac neg takes one divisor operand")
        result = jac_neg(curve, _parse_divisor_operand(operands[0], curve))
    else:  # smul
        if len(operands) != 2:
            raise ConfigError("jac smul takes k and one divisor operand")
        try:
            k = parse_int(operands[0])
        except ValueError as exc:
            raise ConfigError(
                f"jac smul: k must be an integer: {exc}") from None
        result = jac_smul(curve, k, _parse_divisor_operand(operands[1], curve))
    print(_format_divisor(result))
    return 0


def cmd_altmumford(args) -> int:
    cfg = load_config(args.config)
    curve = curve_from_config(cfg)
    Q = require_divisor(cfg, curve)
    form = to_alt_mumford(curve, Q)
    doc = {
        "A": [str(c) for c in form.A.coeffs],
        "B": [str(c) for c in form.B.coeffs],
        "C": [str(c) for c in form.C.coeffs],
        "e": form.e,
    }
    print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _flag(parse):
    """Flag type from a config value parser: argparse reports its
    ValueError text as a usage error, with exit code 2."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperclass",
        description="Specialise divisor classes on y^2 = f(x) into ideal "
                    "classes of imaginary quadratic orders.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True,
                       help="path to the experiment config file")

    def add_scan_flags(p):
        p.add_argument("--squarefree-only", action="store_const", const=True,
                       default=None, dest="squarefree_only",
                       help="restrict to n with f(n)/fd(f) square-free")
        p.add_argument("--factor-bound",
                       type=_flag(parse_positive("factor_bound")),
                       default=None, dest="factor_bound",
                       help="iteration budget for integer factorisation")

    p = sub.add_parser("validate", help="check config, curve and divisor")
    add_config(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("scan", help="specialise over a range of n")
    add_config(p)
    p.add_argument("--from", type=_flag(parse_int), default=None,
                   dest="n_from", help="lower end of the n range")
    p.add_argument("--to", type=_flag(parse_int), default=None,
                   dest="n_to",
                   help="upper end of the n range (default: negativity bound)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (default from config)")
    add_scan_flags(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("search",
                       help="largest n whose pairing order reaches a target")
    add_config(p)
    p.add_argument("--min-order", type=_flag(parse_positive("min_order")),
                   default=None, dest="min_order",
                   help="target order")
    p.add_argument("--floor", type=_flag(parse_int), default=None,
                   help="lowest n to examine")
    add_scan_flags(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("threshold",
                       help="congruence class and threshold below which "
                            "every n gives a non-principal class")
    add_config(p)
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("class-number",
                       help="class number of Z[sqrt(D)] for D < 0")
    p.add_argument("--D", type=_flag(parse_int), required=True,
                   help="negative non-square D")
    p.set_defaults(handler=cmd_class_number)

    p = sub.add_parser("jac", help="Jacobian arithmetic on the config curve")
    add_config(p)
    p.add_argument("op", choices=("add", "neg", "smul"))
    p.add_argument("operand", nargs="+",
                   help="divisors as 'x,y' or '[a];[b]'; smul takes k first")
    # argparse takes only plain negative numbers for positionals; widen its
    # test so that a point with a negative x, such as -2,2, is an operand
    p._negative_number_matcher = re.compile(r"-\d")
    p.set_defaults(handler=cmd_jac)

    p = sub.add_parser("altmumford",
                       help="integral form (A, B, C, e) of the divisor")
    add_config(p)
    p.set_defaults(handler=cmd_altmumford)

    return parser


def main(argv=None) -> int:
    # exact values outgrow Python's int-to-str digit limit (3.10.7 and
    # later) both ways; lift it for this call alone
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HyperclassError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
