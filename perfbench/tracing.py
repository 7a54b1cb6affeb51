"""Span tracing around the public names each kfrflow layer is called through.

Nothing here edits the library: :func:`layer_bindings` builds wrappers for
module attributes (``kfrflow.harness.ksd``, ``kfrflow.flows.build_workspace``,
...) and :func:`patched` rebinds them for a block.  A span is
``(name, start, end, parent)``; spans stay in memory and are folded into
per-name totals after each traced repeat, so memory does not grow with run
length.  Self time of a span is its duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The harness imports these names into its
# own namespace, and flows calls particles through its own, so those copies
# are the ones rebound.
LAYER_CALLS = (
    ("kfrflow.harness", "kfrflow_i_step", "flows.kfrflow_i_step"),
    ("kfrflow.harness", "kfrflow_velocity", "flows.kfrflow_velocity"),
    ("kfrflow.flows", "sample_ot_newton", "flows.sample_ot_newton"),
    ("kfrflow.flows", "build_workspace", "particles.build_workspace"),
    ("kfrflow.flows", "spd_solve", "particles.spd_solve"),
    ("kfrflow.flows", "importance_weights", "particles.importance_weights"),
    ("kfrflow.harness", "rwm_run", "baselines.rwm_run"),
    ("kfrflow.harness", "svgd_step", "baselines.svgd_step"),
    ("kfrflow.harness", "ula_step", "baselines.ula_step"),
)

# spans whose single durations are kept, for percentiles
PER_CALL = frozenset({
    "integrators.step", "baselines.svgd_step", "baselines.ula_step",
    "flows.kfrflow_i_step", "flows.kfrflow_velocity",
    "diagnostics.ksd_target", "diagnostics.ksd_tempered",
})


class Tracer:
    """In-memory span recorder with per-name aggregation."""

    def __init__(self):
        self._names: list = []
        self._start: list = []
        self._end: list = []
        self._parent: list = []
        self._stack: list = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)

    def _open(self, name: str) -> int:
        i = len(self._start)
        self._names.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, after=None):
        """``fn`` with one span per call; ``after(args, result)`` sees each call."""

        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        n = len(self._start)
        if self._stack:
            raise RuntimeError("fold() called inside an open span")
        if n == 0:
            return
        dur = np.asarray(self._end) - np.asarray(self._start)
        parent = np.asarray(self._parent)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - covered
        for i, name in enumerate(self._names):
            self.calls[name] += 1
            self.total_s[name] += float(dur[i])
            self.self_s[name] += float(own[i])
            if name in PER_CALL:
                self.durations[name].append(float(dur[i]))
        for buf in (self._names, self._start, self._end, self._parent):
            buf.clear()


def _traced_target(tracer: Tracer, target):
    """``target`` with every callable wrapped; log_ratio also counts rows."""

    def count_rows(args, _):
        tracer.counters["targets.log_ratio.rows"] += np.atleast_2d(args[0]).shape[0]

    return dataclasses.replace(
        target,
        log_ratio=tracer.wrap("targets.log_ratio", target.log_ratio, count_rows),
        sample_reference=tracer.wrap("targets.sample_reference",
                                     target.sample_reference),
        score_reference=tracer.wrap("targets.score", target.score_reference),
        score_target=tracer.wrap("targets.score", target.score_target),
    )


def layer_bindings(tracer: Tracer, on_run) -> list:
    """``(module, attribute, wrapper)`` for every traced call site.

    ``on_run(initial, final)`` sees the ensembles of each run_unit_time call.
    """
    import kfrflow.config
    import kfrflow.harness

    def note_weights(_, w):
        tracer.counters["particles.ess_frac_min"] = min(
            tracer.counters.get("particles.ess_frac_min", 1.0),
            1.0 / float(np.sum(w * w)) / w.shape[0])

    after = {"particles.importance_weights": note_weights}
    bindings = []
    for mod_name, attr, name in LAYER_CALLS:
        mod = importlib.import_module(mod_name)
        bindings.append((mod, attr, tracer.wrap(name, getattr(mod, attr), after.get(name))))

    base_ksd = kfrflow.harness.ksd
    ksd_spans = {
        kind: tracer.wrap(f"diagnostics.ksd_{kind}", base_ksd)
        for kind in ("target", "tempered")
    }

    def ksd(samples, score_fn, cfg=None):
        # the harness passes the target's score, or a lambda for pi_t
        kind = "tempered" if score_fn.__name__ == "<lambda>" else "target"
        return ksd_spans[kind](samples, score_fn, cfg)

    bindings.append((kfrflow.harness, "ksd", ksd))

    base_run = kfrflow.harness.run_unit_time

    def run_unit_time(initial, stepper, schedule, observers=(), total_time=1.0):
        stepper = tracer.wrap("integrators.step", stepper)
        observers = [tracer.wrap("harness.observe", obs) for obs in observers]
        trace = base_run(initial, stepper, schedule, observers, total_time)
        on_run(initial, trace.final)
        return trace

    bindings.append((kfrflow.harness, "run_unit_time",
                     tracer.wrap("integrators.run_unit_time", run_unit_time)))

    base_target = kfrflow.config.target_by_name
    bindings.append((kfrflow.config, "target_by_name",
                     lambda name: _traced_target(tracer, base_target(name))))
    return bindings


@contextlib.contextmanager
def patched(bindings):
    """Rebind ``(module, attribute, value)`` triples for the block's duration."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
