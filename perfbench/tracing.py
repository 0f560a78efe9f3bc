"""Spans and counters recorded from the benchmark's own files.

A span is [layer, name, start, end, parent]: the benchmark opens one around
each call it makes into a public function of a qjump module, and the layer
is that module's name.  Spans stay in memory and are written out when the
run ends; self times are computed afterwards.  `Untraced` has the same
interface and records nothing, so a traced and an untraced run execute the
same benchmark code.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import Counter

# public entry points whose self time is adaptive quadrature
QUAD_FUNCTIONS = {"mean_waiting_time", "waiting_time_normalization"}


class Untraced:
    """Records nothing; the end-to-end runs use it."""

    def span(self, layer, name):
        return contextlib.nullcontext()

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Untraced):
    """Records spans and counters in memory."""

    def __init__(self, accounts=None):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        # (layer, function name) -> f(counts, fn, args, kwargs, result)
        self._accounts = accounts or {}

    @contextlib.contextmanager
    def span(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [layer, name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """Call fn inside a span named after its module; then count its work."""
        layer = fn.__module__.rpartition(".")[2]
        with self.span(layer, fn.__name__):
            out = fn(*args, **kwargs)
        account = self._accounts.get((layer, fn.__name__))
        if account is not None:
            account(self.counts, fn, args, kwargs, out)
        return out

    def absorb(self, spans, counts):
        """Add the spans and counters another process recorded."""
        base = len(self.spans)
        self.spans.extend(
            [layer, name, t0, t1, parent + base if parent >= 0 else -1]
            for layer, name, t0, t1, parent in spans
        )
        self.counts.update(counts)


class LayerProxy:
    """Stands in for a module: its functions are called through a tracer.

    Installed as an attribute of the calling module only (for example
    `qjump.cli.core`), so calls the module makes into itself, such as the
    density inside `quad`, stay unwrapped.
    """

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, types.FunctionType):
            return functools.partial(self._tracer.call, attr)
        return attr


def summarize(spans):
    """Self time per layer, call count per layer, quadrature self time, and
    the time covered by top-level spans."""
    self_time = [t1 - t0 for _, _, t0, t1, _ in spans]
    covered = 0.0
    for layer, name, t0, t1, parent in spans:
        if parent >= 0:
            self_time[parent] -= t1 - t0
        else:
            covered += t1 - t0
    busy, calls = Counter(), Counter()
    quad = 0.0
    for (layer, name, *_), own in zip(spans, self_time):
        busy[layer] += own
        calls[layer] += 1
        if layer == "core" and name in QUAD_FUNCTIONS:
            quad += own
    return {"busy": busy, "calls": calls, "quad_s": quad, "covered_s": covered}
