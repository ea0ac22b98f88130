"""Spans around the package's public functions, installed from outside.

The package itself is not instrumented.  ``Tracer.install`` replaces every
module-level binding of a public function of the layer modules (its home
module and each module that imported it by name, since callers look the
name up there at call time) with a wrapper that records a span, plus the
entries of ``cli.COMMANDS``.  ``uninstall`` puts the originals back.

Spans are aggregated as they close: per span name the inclusive time, the
self time (inclusive minus the time of spans opened inside it) and the
call count, and per layer the summed self time.  Counters are computed
from the arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "locc_forge"
LAYERS = ("majorization", "protocol", "simulator", "probabilistic", "cli")


class SpanTotals:
    __slots__ = ("incl", "self", "calls")

    def __init__(self):
        self.incl = 0.0
        self.self = 0.0
        self.calls = 0


def _mixture_terms(counts, args, result):
    counts["majorization.mixture_terms"] += len(result.terms)


def _amplitudes(counts, args, result):
    counts["simulator.amplitudes_touched"] += args[0].amplitudes.size


def _branches(counts, args, result):
    counts["simulator.branches"] += len(result.branches)


def _catalysis(counts, args, result):
    counts["probabilistic.catalysis_candidates"] += result.candidates_tested
    counts["probabilistic.catalysis_found"] += int(result.found and result.candidates_tested > 0)


def _tensor_entries(counts, args, result):
    lam, mu, copies = args
    counts["probabilistic.tensor_entries"] += len(lam) ** copies + len(mu) ** copies


RESULT_COUNTERS = {
    "majorization.mixture_for": _mixture_terms,
    "simulator.apply_local": _amplitudes,
    "simulator.run_protocol": _branches,
    "probabilistic.catalysis_search": _catalysis,
    "probabilistic.multicopy_check": _tensor_entries,
}

# (span, exception class name) -> counter
ERROR_COUNTERS = {
    ("majorization.mixture_for", "DecompositionFailed"): "majorization.decomposition_failures",
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.layer_self.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = ERROR_COUNTERS.get((name, type(exc).__name__))
                if counter is not None:
                    self.counts[counter] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                totals = self.spans[name]
                totals.incl += dur
                totals.self += dur - frame[0]
                totals.calls += 1
                self.layer_self[layer] += dur - frame[0]
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(home).items():
                if (inspect.isfunction(obj) and obj.__module__ == home.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        table = sys.modules[f"{PACKAGE}.cli"].COMMANDS
        for key, fn in list(table.items()):
            self._patched.append((table, key, fn))
            table[key] = self._wrap("cli.command", fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
