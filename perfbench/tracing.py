"""Per-layer spans and counts, recorded by wrapping hyperclass functions.

The benchmark never edits the package: in a traced repeat the child
process replaces selected functions with wrappers, in every hyperclass
module that binds them (the modules import each other's names with
``from .x import y``, so patching only the defining module would miss most
calls).  A span wrapper times the call and subtracts the time of the spans
it encloses, which gives the layer's self time; a count wrapper only counts
calls, for functions so hot that a span would cost more than it measures.

Spans are kept as in-memory aggregates per name (calls and self time)
and written out when the repeat ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute, kind).  A dotted attribute names a method.  The list
# follows the layers of one per-n specialisation: config and curve set-up,
# Cantor arithmetic, the integral form, specialisation, factoring and the
# conductor, ideals and forms, class orders and class numbers, and the CLI
# commands around them.  _delta_ideal is private but is where imprimitive
# value forms are refused, so the search's undefined n can be counted.
TARGETS = (
    ("cli", "main", SPAN),
    ("cli", "cmd_scan", SPAN),
    ("cli", "cmd_search", SPAN),
    ("config", "load_config", SPAN),
    ("curve", "new_curve", SPAN),
    ("jacobian", "from_point", SPAN),
    ("jacobian", "jac_add", SPAN),
    ("jacobian", "check_divisor", SPAN),
    ("integral_forms", "to_alt_mumford", SPAN),
    ("integral_forms", "coprime_shift", SPAN),
    ("specialize", "scan", SPAN),
    ("specialize", "find_order_at_least", SPAN),
    ("specialize", "delta_n", SPAN),
    ("specialize", "pairing_value", SPAN),
    ("specialize", "specialize_form", SPAN),
    ("specialize", "_delta_ideal", SPAN),
    ("quadring", "conductor_data", SPAN),
    ("quadring", "factorint", SPAN),
    ("quadring", "extend_ideal", SPAN),
    ("quadring", "ideal_to_class", SPAN),
    ("quadring", "push_to_maximal", SPAN),
    ("quadring", "IdealClass.order", SPAN),
    ("quadring", "class_number_disc", SPAN),
    ("quadring", "class_number_from_conductor", SPAN),
    ("quadring", "compose", COUNT),
    ("quadring", "reduce_form", COUNT),
    ("polyarith", "xgcd", COUNT),
)


class Tracer:
    """Aggregated spans and counts of one traced repeat."""

    def __init__(self, error_base: type[BaseException]):
        self.error_base = error_base
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.examined = 0
        self._stack: list[float] = []

    def _span(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self.error_base as exc:
                # count each package error once, where it first leaves a span
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_examined(self, fn):
        """find_order_at_least reports every examined n to its progress
        callback; interpose on that callback to count them."""

        @functools.wraps(fn)
        def wrapper(*args, progress=None, **kwargs):
            def note(n, order):
                self.examined += 1
                if progress is not None:
                    progress(n, order)
            return fn(*args, progress=note, **kwargs)
        return wrapper

    def install(self, package: str = "hyperclass") -> None:
        """Replace every target, in every loaded module of the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for modname, attr, kind in TARGETS:
            module = sys.modules[f"{package}.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, kind,
                                              getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, kind, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def _wrap(self, name: str, kind: str, fn):
        if name == "specialize.find_order_at_least":
            fn = self._count_examined(fn)
        return self._span(name, fn) if kind == SPAN else self._count(name, fn)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "examined": self.examined,
        }
