"""Per-layer spans taken from outside the package.

Each layer is timed by rebinding its public name, in every ``ame`` module that
binds it, with a wrapper that records a span.  ``solve_traces`` is bound in
``enumerator``, ``existence`` and ``cli``; ``k_uniformity`` in
``oracle.weights``, ``oracle`` and ``oracle.search``; calls between modules go
through those globals, so nested calls are seen too.  ``DensityMatrix`` is
timed by wrapping ``__post_init__`` on the class.  ``binomial`` is only
counted: it is called hundreds of thousands of times per pass.

Spans are recorded only while an item runs; the output checks around the items
pass straight through.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import io
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import ame.cli  # loads every ame module whose names are rebound below
from ame.oracle.weights import DensityMatrix


@dataclass
class Span:
    item: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


Hook = Callable[["Tracer", tuple, dict, Any], None]


def _build_entries(tr, args, kwargs, system):
    tr.add("enumerator.build_system.entries", system.size * system.size)


def _solve_bits(tr, args, kwargs, profile):
    bits = max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for values in (profile.traces, profile.eigenvalues)
        for x in values.values()
    )
    tr.peak("enumerator.solve_traces.max_bits", bits)


def _main_stdout(tr, args, kwargs, code):
    # items capture cli.main's output in a fresh StringIO per call
    if isinstance(sys.stdout, io.StringIO):
        tr.add("cli.main.stdout_bytes", len(sys.stdout.getvalue().encode()))


def _density_dim(tr, args, kwargs, _):
    tr.peak("oracle.weights.DensityMatrix.max_dim", args[0].entries.shape[0])


def _coeff_count(tr, args, kwargs, coeffs):
    tr.add("oracle.basis.bloch_coefficients.coeffs", coeffs.size)


def _search_counts(tr, args, kwargs, hits):
    n, d = args[0], args[1]
    tr.add("oracle.search.candidates", d ** (n * (n - 1) // 2))
    tr.add("oracle.search.hits", len(hits))


# (module, public name, hook run on the result); the span is named after the
# module without its "ame." prefix, then the public name
SPANS: list[tuple[str, str, Hook | None]] = [
    ("ame.exact", "hyp2f1_terminating", None),
    ("ame.enumerator", "build_system", _build_entries),
    ("ame.enumerator", "solve_traces", _solve_bits),
    ("ame.enumerator", "trace_closed_form", None),
    ("ame.enumerator", "eigenvalue_closed_form", None),
    ("ame.existence", "check", None),
    ("ame.existence", "scan", None),
    ("ame.cli", "main", _main_stdout),
    ("ame.cli", "run_verification", None),
    ("ame.oracle.weights", "partial_trace", None),
    ("ame.oracle.weights", "k_uniformity", None),
    ("ame.oracle.weights", "projector_property_residual", None),
    ("ame.oracle.weights", "subset_purity", None),
    ("ame.oracle.weights", "weight_distribution", None),
    ("ame.oracle.basis", "bloch_coefficients", _coeff_count),
    ("ame.oracle.basis", "weight_distribution_basis", None),
    ("ame.oracle.search", "find_ame_graph", _search_counts),
    ("ame.oracle.states", "graph_state", None),
]
COUNTED = [("ame.exact", "binomial")]
DENSITY_SPAN = "oracle.weights.DensityMatrix"


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('ame.')}.{attr}"


SPAN_NAMES = [span_name(module, attr) for module, attr, _ in SPANS] + [DENSITY_SPAN]
COUNTER_NAMES = [
    "exact.binomial.calls",
    "enumerator.build_system.entries",
    "enumerator.solve_traces.max_bits",
    "cli.main.stdout_bytes",
    "oracle.weights.DensityMatrix.max_dim",
    "oracle.basis.bloch_coefficients.coeffs",
    "oracle.search.candidates",
    "oracle.search.hits",
]


class Tracer:
    """Spans and counters of one pass; ``item`` is set while an item runs."""

    def __init__(self) -> None:
        self.item: int | None = None
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._opened = 0
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, k: float) -> None:
        self.counters[name] += k

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def _span(self, name: str, fn, hook: Hook | None):
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span_id = self._opened
            self._opened += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.item, span_id, parent, name, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.item is not None:
                self.counters[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module: str, attr: str, wrapper_for) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = wrapper_for(original)
        for name, mod in list(sys.modules.items()):
            if name != "ame" and not name.startswith("ame."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for module, attr, hook in SPANS:
            name = span_name(module, attr)
            self._rebind(module, attr, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for module, attr in COUNTED:
            name = span_name(module, attr)
            self._rebind(module, attr, lambda fn, name=name: self._counter(name, fn))
        original = DensityMatrix.__post_init__
        self._installed.append((DensityMatrix, "__post_init__", original))
        DensityMatrix.__post_init__ = self._span(DENSITY_SPAN, original, _density_dim)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self milliseconds and counters of the spans recorded so far."""
        by_id = {s.span_id: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0)
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".self_ms"] = 0.0
        for s in self.spans:
            out[s.name + ".calls"] += 1
            out[s.name + ".self_ms"] += 1e3 * (s.end - s.start - child_time[s.span_id])
        survivors = sum(
            1
            for s in self.spans
            if s.name == "oracle.weights.k_uniformity"
            and s.parent is not None
            and by_id[s.parent].name == "oracle.search.find_ame_graph"
        )
        out["oracle.search.survivors"] = survivors
        out.update(self.counters)
        out["oracle.search.hit_ratio"] = out["oracle.search.hits"] / survivors if survivors else 0.0
        return out
