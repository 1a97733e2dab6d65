"""In-memory span tracing of pottsim's layers, installed from outside.

The tracer replaces module attributes with timing wrappers for the length of
a traced round and puts the originals back afterwards. A span records its
name, start, end, parent span and solve index; a span's self time is its
duration minus the time its child spans cover. The benchmark records the
spans of its own calls (cli.run_batch, oracle.exact_coloring) with call().
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

# (module, attribute, span name). Each attribute is looked up at call time by
# its caller, so replacing it on the module is seen by the program.
WRAPPED = [
    ("pottsim.cli", "solve_kcoloring", "scheduler.solve_kcoloring"),
    ("pottsim.cli", "aggregate", "metrics.aggregate"),
    ("pottsim.scheduler", "evolve", "dynamics.evolve"),
    ("pottsim.dynamics", "wrap_phases", "dynamics.wrap_phases"),
    ("pottsim.oracle", "brute_force_maxcut", "oracle.brute_force_maxcut"),
    ("pottsim.graph", "kings_side", "graph.kings_side"),
]
WINDOW_KINDS = ("free", "anneal", "lock")


def window_kind(args, kwargs):
    """Classify an evolve call by its arguments and count its work.

    Returns (kind, node_steps, active_edge_steps); the step count follows
    evolve's own ceil(duration / dt) rule.
    """
    state, duration, graph, gate, shil, params = (list(args) + [None] * 6)[:6]
    duration = kwargs.get("duration", duration)
    graph, gate = kwargs.get("graph", graph), kwargs.get("gate", gate)
    shil, params = kwargs.get("shil", shil), kwargs.get("params", params)
    steps = math.ceil(duration / params.dt - 1e-12)
    active = int(np.count_nonzero(gate.active))
    kind = "lock" if np.any(shil.enabled) else "anneal" if active else "free"
    return kind, graph.n * steps, active * steps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.solve: list[int] = []
        self.sampled_s: list[float] = []  # host-speed sample time inside each span
        self.windows: dict[int, tuple] = {}  # evolve span -> window_kind(...)
        self.not_observed: list[str] = []
        self._stack: list[int] = []
        self._solves = 0
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.names)
        if name == "scheduler.solve_kcoloring":
            self._solves += 1
        if name == "dynamics.evolve":
            self.windows[idx] = window_kind(args, kwargs)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self._solves - 1)
        self.start.append(math.nan)
        self.end.append(math.nan)
        self.sampled_s.append(0.0)
        # a span is on the stack only once all its fields exist (see sampled)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def sampled(self, kernel):
        """kernel, timed and charged to the spans it interrupts, so that
        their work excludes it. It runs in a signal handler (see
        hostspeed.SpeedSampler), between any two bytecodes of call()."""
        def run():
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
            for idx in self._stack:
                if not math.isnan(self.start[idx]) and math.isnan(self.end[idx]):
                    self.sampled_s[idx] += took
        return run

    def install(self):
        for module_name, attr, name in WRAPPED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                if name not in self.not_observed:
                    self.not_observed.append(name)
                continue

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            module = sys.modules[module_name]
            setattr(module, attr, wrapper)
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self):
        """(names, work, self time) per span. Work is the duration less the
        host-speed samples inside the span; self time is work less the
        children's work."""
        work = np.array(self.end) - np.array(self.start) - np.array(self.sampled_s)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_work = np.bincount(parent[has_parent], weights=work[has_parent],
                                 minlength=len(work))
        return np.array(self.names), work, work - child_work

    def save(self, path) -> None:
        """Write every span as columns of an .npz file; a span's name is
        names[name_id], and its work is end - start - sampled_s."""
        names, name_id = np.unique(np.array(self.names), return_inverse=True)
        np.savez(path, names=names, name_id=name_id.astype(np.int16),
                 start=np.array(self.start), end=np.array(self.end),
                 sampled_s=np.array(self.sampled_s),
                 parent=np.array(self.parent, dtype=np.int32),
                 solve=np.array(self.solve, dtype=np.int32))

    def layer_metrics(self, rounds: int, scale: float = 1.0) -> dict:
        """Per-layer figures per traced round (calls and time sums divide by
        rounds, so counts repeat exactly whatever the number of rounds).
        Times are multiplied by scale, to put them at the reference speed."""
        names, dur, self_time = self.arrays()
        dur, self_time = dur * scale, self_time * scale
        out = {}

        def per_round(x):
            return float(x) / rounds

        def put(metric, value, unit):
            out[metric] = {"value": value, "unit": unit}

        def sel(name):
            return names == name

        put("cli.run_batch.s", per_round(dur[sel("cli.run_batch")].sum()), "s")
        put("cli.run_batch.self_s", per_round(self_time[sel("cli.run_batch")].sum()), "s")
        solves = dur[sel("scheduler.solve_kcoloring")]
        put("scheduler.solve_kcoloring.calls", per_round(len(solves)), "count")
        put("scheduler.solve_kcoloring.median_s",
            statistics.median(solves) if len(solves) else 0.0, "s")
        put("scheduler.solve_kcoloring.self_s",
            per_round(self_time[sel("scheduler.solve_kcoloring")].sum()), "s")
        for kind in WINDOW_KINDS:
            idx = [i for i, w in self.windows.items() if w[0] == kind]
            secs = float(dur[idx].sum()) if idx else 0.0
            node_steps = sum(self.windows[i][1] for i in idx)
            put(f"dynamics.evolve.{kind}.s", per_round(secs), "s")
            put(f"dynamics.evolve.{kind}.node_steps", per_round(node_steps), "count")
            put(f"dynamics.evolve.{kind}.active_edge_steps",
                per_round(sum(self.windows[i][2] for i in idx)), "count")
            put(f"dynamics.evolve.{kind}.ns_per_node_step",
                secs / node_steps * 1e9 if node_steps else 0.0, "ns")
        for name in ("dynamics.wrap_phases", "oracle.brute_force_maxcut",
                     "oracle.exact_coloring"):
            put(f"{name}.calls", per_round(np.count_nonzero(sel(name))), "count")
            put(f"{name}.s", per_round(dur[sel(name)].sum()), "s")
        put("graph.kings_side.s", per_round(dur[sel("graph.kings_side")].sum()), "s")
        put("metrics.aggregate.s", per_round(dur[sel("metrics.aggregate")].sum()), "s")
        return out
