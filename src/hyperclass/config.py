"""Flat text configuration for experiments.

Format: one `key = value` per line, `#` starts a comment, blank lines are
skipped.  Values are integers, rationals (`106/9`), booleans
(`true`/`false`), bracketed rational lists (`[-4, 0, 0, 1]`, ascending
coefficient order), or coordinate pairs (`(2, 2)`).

Recognised keys:

    f               = [c0, c1, ...]     curve polynomial, required
    point           = (x, y)            divisor as a point minus infinity
    divisor_a       = [ ... ]           Mumford a-polynomial
    divisor_b       = [ ... ]           Mumford b-polynomial
    from, to        = integers          scan range (to <= negativity bound)
    min_order       = integer >= 1      search target order
    floor           = integer           search lower cut-off
    format          = csv | json
    squarefree_only = true | false
    class_numbers   = true | false
    factor_bound    = integer >= 1      factorisation work budget

Exactly one of `point` or the `divisor_a`/`divisor_b` pair may be given.
All diagnostics carry file and line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError

@dataclass
class ExperimentConfig:
    """Parsed experiment description; unset fields stay None/defaults."""

    f: list[Fraction] = field(default_factory=list)
    point: tuple[Fraction, Fraction] | None = None
    divisor_a: list[Fraction] | None = None
    divisor_b: list[Fraction] | None = None
    n_from: int | None = None
    n_to: int | None = None
    min_order: int | None = None
    floor: int | None = None
    format: str = "csv"
    squarefree_only: bool = False
    class_numbers: bool = False
    factor_bound: int = 10 ** 6


def _fail(path: str, lineno: int, msg: str):
    raise ConfigError(f"{path}:{lineno}: {msg}")


def _parse_rational(text: str, path: str, lineno: int) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(path, lineno, f"expected an integer or fraction, got {text!r}")


def _parse_int(text: str, path: str, lineno: int) -> int:
    v = _parse_rational(text, path, lineno)
    if v.denominator != 1:
        _fail(path, lineno, f"expected an integer, got {text!r}")
    return v.numerator


def _parse_bool(text: str, path: str, lineno: int) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    _fail(path, lineno, f"expected true or false, got {text!r}")


def _parse_list(text: str, path: str, lineno: int) -> list[Fraction]:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        _fail(path, lineno, f"expected a bracketed list, got {text!r}")
    body = t[1:-1].strip()
    if not body:
        return []
    return [_parse_rational(part, path, lineno) for part in body.split(",")]


def _parse_pair(text: str, path: str, lineno: int):
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        _fail(path, lineno, f"expected a coordinate pair, got {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        _fail(path, lineno, f"expected two coordinates, got {text!r}")
    return (_parse_rational(parts[0], path, lineno),
            _parse_rational(parts[1], path, lineno))


def _parse_format(text: str, path: str, lineno: int) -> str:
    if text not in ("csv", "json"):
        _fail(path, lineno, f"format must be csv or json, got {text!r}")
    return text


def _parse_positive(key: str):
    def parse(text: str, path: str, lineno: int) -> int:
        v = _parse_int(text, path, lineno)
        if v < 1:
            _fail(path, lineno, f"{key} must be positive")
        return v
    return parse


# config key -> (ExperimentConfig field, parser)
_KEYS = {
    "f": ("f", _parse_list),
    "point": ("point", _parse_pair),
    "divisor_a": ("divisor_a", _parse_list),
    "divisor_b": ("divisor_b", _parse_list),
    "from": ("n_from", _parse_int),
    "to": ("n_to", _parse_int),
    "min_order": ("min_order", _parse_positive("min_order")),
    "floor": ("floor", _parse_int),
    "format": ("format", _parse_format),
    "squarefree_only": ("squarefree_only", _parse_bool),
    "class_numbers": ("class_numbers", _parse_bool),
    "factor_bound": ("factor_bound", _parse_positive("factor_bound")),
}


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            _fail(path, lineno, f"unknown key {key!r}")
        if key in seen:
            _fail(path, lineno, f"duplicate key {key!r}")
        seen.add(key)
        if not value:
            _fail(path, lineno, f"empty value for {key!r}")
        name, parse = _KEYS[key]
        setattr(cfg, name, parse(value, path, lineno))
    if not cfg.f:
        raise ConfigError(f"{path}: missing required key 'f'")
    if cfg.point is not None and (cfg.divisor_a is not None
                                  or cfg.divisor_b is not None):
        raise ConfigError(
            f"{path}: give either 'point' or 'divisor_a'/'divisor_b', not both")
    if (cfg.divisor_a is None) != (cfg.divisor_b is None):
        raise ConfigError(
            f"{path}: 'divisor_a' and 'divisor_b' must appear together")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, path)
