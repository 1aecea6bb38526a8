"""Spans and counters around the public functions of the sphereqed layers.

The package is not edited: `Tracer.install` replaces every public function
of the layer modules with a wrapper, in every package module that holds a
reference to it.  That matters because callers look functions up in
different places: `microsphere` binds the `special` recurrences with
`from .special import ...`, `cli` imports `load_config` by name and reaches
the other layers through its `ms.`, `dyn.` and `ss.` module attributes, and
`steady_state` imports `amplitude_modes` from `dynamics`.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "sphereqed"
LAYERS = ("special", "microsphere", "dynamics", "steady_state", "cli", "config")
RATE_SPAN = "microsphere.collective_rate"


def _length(args, kwargs, result):
    return len(result)


def _orders_scanned(args, kwargs, result):
    l_range = args[3] if len(args) > 3 else kwargs["l_range"]
    return len(l_range)


# span name -> (counter name, work(args, kwargs, result)) pairs, counted
# where the work happens
COUNTERS = {
    **{
        f"special.{fn}": (("special.orders", _length),)
        for fn in ("sph_jn_all", "sph_h1n_all", "riccati_deriv_all", "legendre_all")
    },
    "microsphere.find_resonances": (
        ("microsphere.orders_scanned", _orders_scanned),
        ("microsphere.roots_kept", _length),
    ),
    "dynamics.volterra_branch": (
        ("dynamics.volterra_branch.steps", lambda args, kwargs, result: len(result[0]) - 1),
    ),
    "cli.write_csv": (
        ("cli.write_csv.bytes", lambda args, kwargs, result: os.path.getsize(args[0])),
    ),
}


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent, job].

    A span's parent is the index of the innermost wrapped call still open
    when it started; spans of one CLI job share the job's name.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def take(self) -> tuple[list[list], Counter]:
        """The spans and counts recorded so far; recording starts afresh."""
        taken = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return taken

    def _wrap(self, name: str, fn):
        stack = self._stack
        counters = COUNTERS.get(name, ())
        orders_in_rate = name.startswith("special.")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, work in counters:
                amount = work(args, kwargs, result)
                self.counts[counter] += amount
                if orders_in_rate and any(spans[i][0] == RATE_SPAN for i in stack):
                    self.counts["microsphere.rate_orders"] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function defined in a layer module, everywhere
        the package holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo = []


def summarize(spans: list[list], slowdown: dict[str, float]) -> tuple[Counter, Counter]:
    """(calls, self seconds) per span name.  A span's self time is its
    duration minus the durations of its direct children, divided by the
    slowdown measured around its job."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    child_s = [0.0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        name, start, end, parent, job = spans[index]
        duration = end - start
        calls[name] += 1
        self_s[name] += (duration - child_s[index]) / slowdown[job]
        if parent >= 0:
            child_s[parent] += duration
    return calls, self_s
