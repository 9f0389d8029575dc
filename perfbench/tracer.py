"""Outside-in tracing of one benchmark pass.

The tracer never edits the library.  It replaces public methods on the
objects the harness itself builds (the constraint bank, the objective, the
geometry) with timed wrappers, and opens spans around the library calls the
harness makes (``build_example``, ``load_problem``, ``run``,
``verify_example``).

Per-call timings are kept as counters, not spans: a 1-10 us call per solver
step would otherwise mean millions of spans.  Each span records the counter
deltas that accrued while it was open.  Spans and counters stay in memory;
the caller writes them out when the benchmark ends.

A frame's self time is its duration minus the time of the wrapped calls and
spans directly inside it.  Wrapper overhead lands in the enclosing frame,
which is why self times are read as shares of a run, next to the measured
overhead of the traced pass over the untraced one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Counters that every traced pass reports, even when a workload never
# touches them.
LAYERS = (
    "problems.scan",
    "problems.constraint_subgradient",
    "problems.objective",
    "geometry.mirror_step",
    "geometry.dual_norm",
    "solver.segments",
)


class Counter:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Spans and per-layer counters of one pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.counters = {name: Counter() for name in LAYERS}
        self.spans: list[dict] = []
        # Time spent in finished wrapped calls and spans directly inside the
        # innermost open frame.
        self.child_s = 0.0

    def _timed(self, fn, counter: Counter):
        """``fn`` timed into ``counter``; a call nested in one of the same
        counter is counted once, as part of the outer call."""
        clock = self.clock
        tracer = self

        def timed(*args):
            if counter.depth:
                return fn(*args)
            counter.depth = 1
            outer = tracer.child_s
            tracer.child_s = 0.0
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                counter.calls += 1
                counter.self_s += dt - tracer.child_s
                tracer.child_s = outer + dt
                counter.depth = 0

        return timed

    def instrument(self, instance, geometry) -> None:
        """Wrap the public methods the solver calls on these objects.

        Also counts segments: runs of consecutive steps with the same kind
        and the same constraint or objective subgradient.  A step is
        productive when the objective's value and subgradient were taken
        since the previous mirror step.
        """
        c = self.counters
        bank = instance.constraint_bank()
        for name in ("values", "max_entry"):
            setattr(bank, name, self._timed(getattr(bank, name), c["problems.scan"]))
        bank.subgradient = self._timed(bank.subgradient,
                                       c["problems.constraint_subgradient"])

        objective = instance.objective
        objective.value = self._timed(objective.value, c["problems.objective"])
        value_and_subgradient = self._timed(objective.value_and_subgradient,
                                            c["problems.objective"])
        geometry.dual_norm = self._timed(geometry.dual_norm,
                                         c["geometry.dual_norm"])
        mirror_step = self._timed(geometry.mirror_step,
                                  c["geometry.mirror_step"])

        segments = c["solver.segments"]
        state = {"productive": False, "kind": None, "direction": None}

        def marked_value_and_subgradient(x):
            state["productive"] = True
            return value_and_subgradient(x)

        def segmented_mirror_step(x, p, h):
            kind = state["productive"]
            state["productive"] = False
            last = state["direction"]
            if kind is not state["kind"] or (
                    p is not last and not np.array_equal(p, last)):
                segments.calls += 1
                state["kind"] = kind
                state["direction"] = p
            return mirror_step(x, p, h)

        objective.value_and_subgradient = marked_value_and_subgradient
        geometry.mirror_step = segmented_mirror_step

    @contextmanager
    def span(self, name: str, cell: int, **attrs):
        """Time a harness call into the library as a child of ``cell``."""
        before = {k: (v.calls, v.self_s) for k, v in self.counters.items()}
        outer = self.child_s
        self.child_s = 0.0
        record = {"name": name, "id": f"{name}-{cell}", "cell": cell,
                  "parent": f"cell-{cell}", **attrs}
        start = self.clock()
        try:
            yield record
        finally:
            end = self.clock()
            record["start"] = start
            record["end"] = end
            record["duration"] = end - start
            record["self_s"] = end - start - self.child_s
            record["counters"] = {
                k: {"calls": v.calls - before[k][0],
                    "self_s": v.self_s - before[k][1]}
                for k, v in self.counters.items() if v.calls != before[k][0]
            }
            self.child_s = outer + (end - start)
            self.spans.append(record)

    def cell_spans(self) -> list[dict]:
        """One parent span per cell, covering its children."""
        cells: dict[int, dict] = {}
        for s in self.spans:
            c = cells.setdefault(s["cell"], {"name": "cell", "id": f"cell-{s['cell']}",
                                             "cell": s["cell"], "parent": None,
                                             "start": s["start"], "end": s["end"]})
            c["start"] = min(c["start"], s["start"])
            c["end"] = max(c["end"], s["end"])
        return list(cells.values())

    def span_total(self, name: str, field: str = "self_s") -> float:
        return sum(s[field] for s in self.spans if s["name"] == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)
