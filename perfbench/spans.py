"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``SPANS`` and
``COUNTED`` in every ``specdetect.*`` module namespace that binds it.  The
package re-exports with ``from .x import f``, so one function can have
several bindings (``specdetect.optimal_lss``, ``specdetect.simulate``'s
own name for it, ...); internal calls look the name up in their module's
globals at call time, so they reach the wrapper too.  ``remove`` puts
every original object back.

A span is (name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children; calls run on one
thread, so children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute); a name listed twice sums both functions
SPANS = [
    ("mp.support_intervals", "specdetect.mp", "support_intervals"),
    ("mp.stieltjes_grid", "specdetect.mp", "stieltjes_grid"),
    ("weak_derivative.delta_diff", "specdetect.weak_derivative", "delta_diff"),
    ("kernel.assemble", "specdetect.kernel", "assemble_diagreg"),
    ("kernel.solve", "specdetect.kernel", "solve_diagreg"),
    ("kernel.solve", "specdetect.kernel", "solve_collocation"),
    # the power sweep factors and solves the kernel system through these
    ("kernel.solve", "specdetect.simulate", "cho_factor"),
    ("kernel.solve", "specdetect.simulate", "cho_solve"),
    ("optimal", "specdetect.optimal", "optimal_lss"),
    ("optimal", "specdetect.optimal", "optimal_ls3"),
    ("optimal", "specdetect.optimal", "integrate_derivative"),
    ("optimal", "specdetect.optimal", "lss_above_pt"),
    ("simulate.sample_eigenvalues", "specdetect.simulate", "sample_eigenvalues"),
    ("simulate.apply_lss", "specdetect.simulate", "apply_lss"),
    ("simulate.power_experiment", "specdetect.simulate", "power_experiment"),
]

# called once per grid point: counted only, so the Newton time stays in
# the self time of the stieltjes_grid span that drives it
COUNTED = [
    ("mp.pointwise_solves", "specdetect.mp", "solve_silverstein"),
    ("mp.pointwise_solves", "specdetect.mp", "solve_real_limit"),
]


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "specdetect" or name.startswith("specdetect."))]


class Tracer:
    """Spans, call counts and selected return values of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.calls: dict[str, list] = defaultdict(list)  # attribute -> [(args, kwargs, result)]
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _span(self, name: str, attr: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            calls[attr].append((args, kwargs, out))
            return out

        return wrapper

    def _counter(self, name: str, attr: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for specs, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for name, module, attr in specs:
                original = getattr(sys.modules[module], attr)
                wrapper = make(name, attr, original)
                for m in package_modules():
                    for bound, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, bound, wrapper)
                            self._installed.append((m, bound, original))

    def remove(self) -> None:
        for m, bound, original in reversed(self._installed):
            setattr(m, bound, original)
        self._installed.clear()


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
