"""Per-layer spans recorded by the benchmark's own wrappers.

The program under test is never edited for tracing. Instead, for the
length of one traced repeat, :func:`installed` swaps a timing wrapper in
front of each layer's public call (a module attribute or a class
method) and restores the original afterwards. Spans stay in memory in a
:class:`Recorder` and are written out once, when the run ends.

The program's own ``record_timeline=True`` is deliberately not used: a
recorded timeline switches the columnar drain to the batched one, so it
would time a different program than the untraced run.

A span is ``[name, parent index, start, end]`` in host seconds from
:func:`time.perf_counter`. Wrapped calls are synchronous and run on one
thread, so they nest strictly and a stack gives each span its parent.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

#: Span name of the wrappers' own work (see :meth:`Recorder.durations`).
HARNESS = "harness"


class Recorder:
    """Spans, counters and samples of one traced repeat."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        record = self.spans[idx]
        record[2] = start
        record[3] = end

    def durations(self) -> List[float]:
        """Each span's duration, less the harness spans inside it.

        The wrappers' own bookkeeping runs in ``harness`` spans; taking
        it out of every enclosing span keeps it out of each layer's
        time. It still shows in ``trace.overhead_frac``.
        """
        dur = [end - start for _, _, start, end in self.spans]
        for name, parent, start, end in self.spans:
            if name == HARNESS:
                while parent >= 0:
                    dur[parent] -= end - start
                    parent = self.spans[parent][1]
        return dur

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        dur = self.durations()
        child_total = [0.0] * len(self.spans)
        for i, (name, parent, _, _) in enumerate(self.spans):
            if parent >= 0 and name != HARNESS:
                child_total[parent] += dur[i]
        out: Dict[str, float] = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            out[name] += dur[i] - child_total[i]
        return dict(out)

    def total_times(self) -> Dict[str, float]:
        """Summed inclusive time per span name (outermost calls only)."""
        dur = self.durations()
        out: Dict[str, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        for i, (name, parent, _, _) in enumerate(self.spans):
            # A recursive call's time is already inside its outer call.
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                out[name] += dur[i]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def write_spans(path, recorders: List[Recorder]) -> None:
    """Write every traced repeat's spans as one JSON document."""
    with open(path, "w") as fh:
        json.dump([r.to_json() for r in recorders], fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(rec: Recorder, name: str, fn: Callable,
           tally: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec._open(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec._close(idx, start)
        if tally is not None:
            tally(rec, result)
        return result
    return wrapper


def _counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _scored_observe(rec: Recorder, fn: Callable) -> Callable:
    """Score the predictor's top guess against each scalar observation.

    The engines never score their own predictor, so its ``accuracy``
    reads 0. The guess is taken with the public ``predict()`` before
    the observation is recorded. The scoring cost lands in a
    ``harness`` span, so it is kept out of every layer's time.
    """
    @functools.wraps(fn)
    def wrapper(self, expert):
        idx = rec._open(HARNESS)
        start = perf_counter()
        guess = self.predict()
        rec.counts["predictor.scored"] += 1
        if guess is not None and guess.name == expert.name:
            rec.counts["predictor.correct"] += 1
        rec._close(idx, start)
        return fn(self, expert)
    return wrapper


def _lagged_sleep(rec: Recorder, fn: Callable) -> Callable:
    """Record how late the wall clock wakes after each real sleep."""
    @functools.wraps(fn)
    async def wrapper(self, model_time):
        sleeps = model_time > self.now
        await fn(self, model_time)
        if sleeps:
            rec.samples["clock.wake_lag_ms"].append(
                (self.now - model_time) * self.time_scale * 1e3
            )
    return wrapper


def _count_len(key: str) -> Callable:
    def tally(rec: Recorder, result) -> None:
        rec.counts[key] += len(result)
    return tally


def _count_value(key: str) -> Callable:
    def tally(rec: Recorder, result) -> None:
        rec.counts[key] += result
    return tally


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every traced layer's public calls for the ``with`` body."""
    from repro.coe import cache, cluster_engine, columnar, engine, live_engine
    from repro.coe import runtime, scheduling
    from repro.sim import clock as sim_clock
    from repro.sim import engine as sim_engine

    patches = []

    def patch(owner, attr: str, wrapper: Callable) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # Free functions are patched where the callers look them up: each
    # engine module imported them under its own global name.
    for module in (cluster_engine, engine):
        patch(module, "affinity_schedule",
              _timed(rec, "scheduling.order", scheduling.affinity_schedule))
        patch(module, "coalesce_groups",
              _timed(rec, "scheduling.coalesce", scheduling.coalesce_groups,
                     _count_len("scheduling.groups")))
    for module in (cluster_engine, engine, live_engine):
        patch(module, "summarize_latencies",
              _timed(rec, "metrics.report", module.summarize_latencies))
    # ServingEngine calls columnar.lower_queue and columnar.drain (the
    # latter bound to a private alias) from the engine module.
    patch(engine, "lower_queue",
          _timed(rec, "columnar.lower", columnar.lower_queue))
    patch(engine, "_columnar_drain",
          _timed(rec, "columnar.drain", columnar.drain))

    for cls in _subclasses_defining(scheduling.Scheduler, "order"):
        patch(cls, "order",
              _timed(rec, "scheduling.order", cls.__dict__["order"]))
    for cls in _subclasses_defining(cache.CachePolicy, "eviction_order"):
        patch(cls, "eviction_order",
              _timed(rec, "cache.eviction_order",
                     cls.__dict__["eviction_order"]))
    patch(engine.ServingEngine, "precompute_phases",
          _timed(rec, "engine.phase", engine.ServingEngine.precompute_phases,
                 _count_value("engine.phase_shapes")))
    patch(engine.ServingEngine, "submit",
          _counted(rec, "cluster_engine.submits", engine.ServingEngine.submit))
    patch(cluster_engine.ClusterEngine, "serve",
          _timed(rec, "cluster_engine.serve",
                 cluster_engine.ClusterEngine.serve))
    patch(sim_engine.Simulator, "run",
          _timed(rec, "sim.run", sim_engine.Simulator.run))
    patch(runtime.CoERuntime, "activate",
          _timed(rec, "runtime.activate", runtime.CoERuntime.activate))
    patch(scheduling.ExpertPredictor, "observe",
          _scored_observe(rec, scheduling.ExpertPredictor.observe))
    patch(sim_clock.WallClock, "sleep_until",
          _lagged_sleep(rec, sim_clock.WallClock.sleep_until))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
