"""Flat text configuration for experiments.

Format: one `key = value` per line, `#` starts a comment, blank lines are
skipped.  Values are integers and rationals of any length (`106/9`),
booleans (`true`/`false`), bracketed rational lists (`[-4, 0, 0, 1]`,
ascending coefficient order), or coordinate pairs (`(2, 2)`).

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
All diagnostics carry file and line number.  Each value parser maps text
to a value or raises ValueError; the command line reads its numbers with
the same parsers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .quadring import FACTOR_BOUND


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
    factor_bound: int = FACTOR_BOUND


def _quote(text: str) -> str:
    """text for a message: whole when short, else its head and length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    if not re.fullmatch(r"\s*[+-]?[0-9]+(/0*[1-9][0-9]*)?\s*", text):
        raise ValueError(
            f"expected an integer or fraction, got {_quote(text.strip())}")
    return Fraction(text)


def parse_int(text: str) -> int:
    v = parse_rational(text)
    if v.denominator != 1:
        raise ValueError(f"expected an integer, got {_quote(text.strip())}")
    return v.numerator


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true or false, got {_quote(text)}")


def parse_list(text: str) -> list[Fraction]:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"expected a bracketed list, got {_quote(t)}")
    body = t[1:-1].strip()
    if not body:
        return []
    return [parse_rational(part) for part in body.split(",")]


def parse_pair(text: str) -> tuple[Fraction, Fraction]:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"expected a coordinate pair, got {_quote(t)}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two coordinates, got {_quote(t)}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {_quote(text)}")
    return text


def parse_positive(key: str):
    def parse(text: str) -> int:
        v = parse_int(text)
        if v < 1:
            raise ValueError(
                f"{key} must be positive, got {_quote(text.strip())}")
        return v
    return parse


# config key -> (ExperimentConfig field, parser)
_KEYS = {
    "f": ("f", parse_list),
    "point": ("point", parse_pair),
    "divisor_a": ("divisor_a", parse_list),
    "divisor_b": ("divisor_b", parse_list),
    "from": ("n_from", parse_int),
    "to": ("n_to", parse_int),
    "min_order": ("min_order", parse_positive("min_order")),
    "floor": ("floor", parse_int),
    "format": ("format", _parse_format),
    "squarefree_only": ("squarefree_only", _parse_bool),
    "class_numbers": ("class_numbers", _parse_bool),
    "factor_bound": ("factor_bound", parse_positive("factor_bound")),
}


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError(f"expected 'key = value', got {_quote(line)}")
            if key not in _KEYS:
                raise ValueError(f"unknown key {_quote(key)}")
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
            if not value:
                raise ValueError(f"empty value for {key!r}")
            name, parse = _KEYS[key]
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, path)
