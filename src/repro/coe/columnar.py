"""Columnar (structure-of-arrays) drain core for the serving engines.

A whole-queue drain replaces per-group simulator events with one pass
over the queue on a local clock. Done one Python iteration per group,
that pass *is* the cost of a million-request run: a dict probe, a
predictor observation, a cache activation, a float add chain and one
``CompletedRequest`` NamedTuple per request — all interpreter work.

This module vectorizes the pass itself. A queued backlog is *lowered*
once into parallel arrays (:func:`lower_queue`), gathered from the
request plane's :class:`~repro.coe.scheduling.GroupPlan` columns:
per-group expert names, phase-time triples (read from the engine's
phase memo, which :meth:`ServingEngine.precompute_phases` seeds through
the vectorized ``perf.kernel_cost`` batch entry points), batch sizes,
and per-request request-id/arrival/output-token columns. The drain
(:func:`drain`) then segments the queue into **runs**:

    a run is a maximal stretch of groups whose experts are all
    HBM-resident with no pending copy-done barrier — so no eviction,
    no DMA wait, no prefetch decision can occur inside it, and every
    timestamp in the run is a pure prefix sum over phase durations.

Run timestamps come from one ``numpy.cumsum`` over the interleaved
``(router, prefill, decode)`` durations. ``cumsum`` accumulates strictly
left-to-right, so each partial sum performs the *same* float additions
in the *same* order as the scalar loop — the timestamps are bitwise
identical, not merely close (pinned by ``tests/coe/test_columnar.py``).
Cache/predictor bookkeeping for a run goes through the batch APIs
(:meth:`CoERuntime.touch_run`, :meth:`CachePolicy.on_access_run`,
:meth:`ExpertPredictor.observe_run`), each an order-equivalent bulk form
of its scalar path. Only *decision points* — a cache miss (victim
selection + demand copy), or a hit gated on a pending copy barrier —
drop back to the event path's scalar arithmetic, preserving
``CoERuntime.activate`` as the single cache-decision choke point the
sim/live cross-check relies on. A decision point also runs the event
path's per-group work: the pipelined promotion and the ``overlap``
prefetch of the next group's expert, and the phase spans of a recorded
timeline. Under ``overlap``, pipelining or a timeline, every group is a
decision point.

Completions land in a :class:`CompletedLog`: run segments append whole
column blocks (no per-request allocation), decision points append scalar
``CompletedRequest`` records, and materialization back to the exact
NamedTuples today's report/consumer code sees is lazy. Latency and
token aggregation read the columns directly (``finish - arrival`` over
float64 arrays is elementwise-bitwise-equal to the scalar property).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.coe.engine import CompletedRequest, ServingEngine
    from repro.coe.scheduling import GroupPlan

__all__ = [
    "CompletedLog",
    "GroupColumns",
    "drain",
    "latency_values",
    "lower_queue",
    "token_total",
]


def _completed_request_type():
    from repro.coe.engine import CompletedRequest

    return CompletedRequest


class _Block:
    """One drained run, as columns. Per-group arrays (``names``,
    ``sizes``, ``start``, ``end``) plus per-request arrays aligned with
    ``sizes`` expansion (``req_ids``, ``arrivals``, ``tokens``)."""

    __slots__ = (
        "names", "sizes", "start", "end", "req_ids", "arrivals", "tokens",
        "num_requests",
    )

    def __init__(self, names, sizes, start, end, req_ids, arrivals, tokens):
        self.names = names
        self.sizes = sizes
        self.start = start
        self.end = end
        self.req_ids = req_ids
        self.arrivals = arrivals
        self.tokens = tokens
        self.num_requests = len(req_ids)

    def materialize(self) -> List["CompletedRequest"]:
        """Expand back to per-request records, in completion order.

        ``.tolist()`` converts every ``float64``/``int64`` back to the
        native Python scalar — exactly (no rounding) — so the records
        are indistinguishable from ones the scalar path appended.
        """
        CompletedRequest = _completed_request_type()
        sizes = self.sizes.tolist()
        names = [n for n, b in zip(self.names, sizes) for _ in range(b)]
        batches = [b for b in sizes for _ in range(b)]
        starts = np.repeat(self.start, self.sizes).tolist()
        ends = np.repeat(self.end, self.sizes).tolist()
        return [
            CompletedRequest(*fields)
            for fields in zip(
                self.req_ids.tolist(), names, batches,
                self.arrivals.tolist(), starts, ends, self.tokens.tolist(),
            )
        ]

    def latency_values(self) -> List[float]:
        finish = np.repeat(self.end, self.sizes)
        return (finish - self.arrivals).tolist()

    def token_total(self) -> int:
        return int(self.tokens.sum())


class CompletedLog:
    """Completion store mixing scalar records and column blocks.

    Ordered segments: plain ``CompletedRequest`` lists (decision points,
    and a hooked engine's event path, record by record) interleaved
    with :class:`_Block` columns (vectorized runs). :attr:`append` is
    the *bound* ``list.append`` of the current tail segment — the scalar
    paths pay zero dispatch overhead over appending to a bare list.

    Iteration, indexing and ``materialize()`` present the exact
    per-request NamedTuples, in completion order, that a plain list
    would hold; the result is cached until the log grows.
    """

    __slots__ = ("_segments", "_tail", "append", "_cache", "_cache_len")

    def __init__(self) -> None:
        self._tail: List["CompletedRequest"] = []
        self._segments: List[object] = [self._tail]
        #: Bound tail-list append; rebound whenever a block closes the tail.
        self.append = self._tail.append
        self._cache: Optional[List["CompletedRequest"]] = None
        self._cache_len = -1

    def extend_block(
        self, names, sizes, start, end, req_ids, arrivals, tokens
    ) -> None:
        """Append one drained run as columns (see :class:`_Block`)."""
        block = _Block(names, sizes, start, end, req_ids, arrivals, tokens)
        if self._tail:
            self._segments.append(block)
            self._tail = []
            self._segments.append(self._tail)
            self.append = self._tail.append
        else:
            # Keep the (empty) tail last so `append` stays valid.
            self._segments.insert(len(self._segments) - 1, block)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            seg.num_requests if isinstance(seg, _Block) else len(seg)
            for seg in self._segments
        )

    def __iter__(self) -> Iterator["CompletedRequest"]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def materialize(self) -> List["CompletedRequest"]:
        """The full per-request record list, built lazily and cached."""
        total = len(self)
        if self._cache is not None and self._cache_len == total:
            return self._cache
        records: List["CompletedRequest"] = []
        for seg in self._segments:
            if isinstance(seg, _Block):
                records.extend(seg.materialize())
            else:
                records.extend(seg)
        self._cache = records
        self._cache_len = total
        return records

    # ------------------------------------------------------------------
    def latency_values(self) -> List[float]:
        """Per-request ``finish - arrival``, in completion order.

        Column segments subtract whole float64 arrays; IEEE-754 binary
        subtraction is the same operation either way, so each value is
        bitwise-equal to the scalar ``CompletedRequest.latency_s``.
        """
        out: List[float] = []
        for seg in self._segments:
            if isinstance(seg, _Block):
                out.extend(seg.latency_values())
            else:
                out.extend(c.latency_s for c in seg)
        return out

    def token_total(self) -> int:
        total = 0
        for seg in self._segments:
            if isinstance(seg, _Block):
                total += seg.token_total()
            else:
                total += sum(c.output_tokens for c in seg)
        return total


def latency_values(completed) -> List[float]:
    """Per-request latencies of any completion store (list or log)."""
    if isinstance(completed, CompletedLog):
        return completed.latency_values()
    return [c.latency_s for c in completed]


def token_total(completed) -> int:
    """Total output tokens of any completion store (list or log)."""
    if isinstance(completed, CompletedLog):
        return completed.token_total()
    return sum(c.output_tokens for c in completed)


# ----------------------------------------------------------------------
# Lowering + the drain core
# ----------------------------------------------------------------------


class GroupColumns:
    """A queued backlog, lowered to parallel arrays (one row per group)."""

    __slots__ = (
        "experts", "names", "flat", "sizes", "offsets", "req_ids",
        "arrivals", "tokens",
    )

    def __init__(self, experts, names, flat, sizes, offsets, req_ids,
                 arrivals, tokens):
        self.experts = experts
        self.names = names
        #: Phase triples as an (n, 3) float64 array for the cumsum; the
        #: decision path reads a row back with ``.tolist()`` so no
        #: ``np.float64`` ever leaks into engine state or records.
        self.flat = flat
        self.sizes = sizes
        #: Request-column offsets: group ``i`` owns rows
        #: ``offsets[i]:offsets[i+1]`` of the per-request arrays.
        self.offsets = offsets
        self.req_ids = req_ids
        self.arrivals = arrivals
        self.tokens = tokens

    def __len__(self) -> int:
        return len(self.names)


def lower_queue(
    engine: "ServingEngine",
    plan: "GroupPlan",
    index: Optional[np.ndarray] = None,
) -> GroupColumns:
    """Lower the plan's groups ``index`` (all when None) for one drain.

    Every column is a gather over the request plane's
    :class:`~repro.coe.scheduling.GroupPlan`; nothing walks request
    objects. Phase triples come from the engine's phase memo, one row
    per distinct shape (seeded in bulk by the vectorized
    ``precompute_phases``; a cold shape is seeded here), gathered once.
    The slow factor is applied here once — it cannot change inside a
    drain event, and ``x * 1.0`` is bitwise ``x``, so skipping it
    changes no timestamp.
    """
    if index is None:
        codes, sizes, shape_of = plan.codes, plan.sizes, plan.shape_of
    else:
        codes = plan.codes[index]
        sizes = plan.sizes[index]
        shape_of = plan.shape_of[index]
    offsets = np.empty(len(sizes) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    if index is None:
        rows = plan.rows
    else:
        # Each group's request rows, concatenated in queue order.
        rows = plan.rows[
            np.repeat(plan.starts[index] - offsets[:-1], sizes)
            + np.arange(offsets[-1])
        ]
    used, local = np.unique(shape_of, return_inverse=True)
    shapes = [plan.shapes[s] for s in used.tolist()]
    cache = engine._phase_cache
    cold = [s for s in shapes if s.phase_key not in cache]
    if cold:
        engine.precompute_phases(cold)
    table = np.array([cache[s.phase_key] for s in shapes], dtype=np.float64)
    flat = table[local.reshape(-1)]
    factor = engine.slow_factor
    if factor != 1.0:
        flat = flat * factor
    table_experts = plan.batch.experts
    experts = [table_experts[c] for c in codes.tolist()]
    batch = plan.batch
    return GroupColumns(
        experts=experts,
        names=[e.name for e in experts],
        flat=flat,
        sizes=sizes,
        offsets=offsets,
        req_ids=batch.ids[rows],
        arrivals=batch.arrivals[rows],
        tokens=batch.output_tokens[rows],
    )


def drain(
    engine: "ServingEngine", cols: GroupColumns, start_at: float
) -> Tuple[float, int]:
    """Drain lowered columns on a local clock.

    Returns the end time and the number of overlap prefetches the
    reference path would have deferred to an event of their own.

    Runs of resident-expert groups are timestamped by one cumsum and
    their cache/predictor bookkeeping applied through the batch APIs;
    each decision point executes the reference path's begin/finish
    arithmetic in scalar code. The segmentation is conservative — a
    group is only admitted to a run if its expert is resident *and* any
    pending copy completed by the run's start — and a group it excludes
    is simply re-examined (scalar) at its true start time, where the
    identical hit/barrier/miss arithmetic applies. Under the ``overlap``
    policy (a prefetch decision per group), pipelined promotions (a tier
    peek per group) or a recorded timeline (a span per phase) every
    group is a decision point. State mutations therefore happen in the
    same order with the same values as the event-by-event reference,
    which the equivalence grid asserts byte-for-byte.
    """
    CompletedRequest = _completed_request_type()
    runtime = engine.server.runtime
    resident = runtime.resident_map
    copy_done = engine._copy_done
    predictor = engine._predictor
    log = engine.completed
    names = cols.names
    experts = cols.experts
    flat = cols.flat
    bounds = cols.offsets.tolist()
    n = len(names)
    overlap = engine.policy == "overlap"
    pipelining = engine._pipeline_active
    tracing = engine._sim.timeline is not None
    scan = not (overlap or pipelining or tracing)
    first_index = engine._groups_started
    deferred = 0
    engine._drain_names = names
    now = start_at
    pos = 0
    while pos < n:
        # --- scan the maximal run of barrier-free resident hits -------
        run_end = pos
        while scan and run_end < n:
            name = names[run_end]
            if name not in resident:
                break
            done = copy_done.get(name)
            if done is not None and done > now:
                break
            run_end += 1
        if run_end > pos:
            m = run_end - pos
            # One prefix sum over [now, r0, p0, d0, r1, ...]: acc[3k] is
            # group k's exec start, acc[3k+3] its end — each partial sum
            # adds the same floats in the same order as the scalar loop.
            acc = np.empty(3 * m + 1, dtype=np.float64)
            acc[0] = now
            acc[1:] = flat[pos:run_end].reshape(-1)
            np.cumsum(acc, out=acc)
            run_experts = experts[pos:run_end]
            predictor.observe_run(run_experts)
            runtime.touch_run(run_experts)
            lo = bounds[pos]
            hi = bounds[run_end]
            log.extend_block(
                names[pos:run_end],
                cols.sizes[pos:run_end],
                acc[0 : 3 * m : 3].copy(),
                acc[3::3].copy(),
                cols.req_ids[lo:hi],
                cols.arrivals[lo:hi],
                cols.tokens[lo:hi],
            )
            now = float(acc[-1])
            pos = run_end
            continue
        # --- decision point: the reference path's scalar code ---------
        engine._drain_next = pos + 1  # the lookahead backlog
        expert = experts[pos]
        expert_name = names[pos]
        exec_start = engine._begin(expert, now)
        nxt = experts[pos + 1] if pos + 1 < n else None
        engine._pipeline_promote(now, nxt)
        if overlap and nxt is not None:
            if exec_start > now:
                # The reference path defers this to its own event at
                # exec_start; nothing else of this engine runs in
                # between, so replaying it inline at that time is the
                # same interleaving.
                deferred += 1
                engine._prefetch_next(expert_name, nxt, now=exec_start)
            else:
                engine._prefetch_next(expert_name, nxt, now=now)
        base = flat[pos].tolist()
        end = exec_start + base[0] + base[1] + base[2]
        lo = bounds[pos]
        hi = bounds[pos + 1]
        batch = hi - lo
        if tracing:
            engine._record_phases(expert_name, batch, exec_start, base,
                                  first_index + pos)
        append = log.append
        for req_id, arrival, tokens in zip(
            cols.req_ids[lo:hi].tolist(), cols.arrivals[lo:hi].tolist(),
            cols.tokens[lo:hi].tolist(),
        ):
            append(CompletedRequest(
                req_id, expert_name, batch, arrival, exec_start, end, tokens,
            ))
        now = end
        pos += 1
        if pos < n:
            head_name = names[pos]
            done = copy_done.get(head_name)
            if done is not None and done > now and head_name in resident:
                now = done
    engine._drain_names = None
    return now, deferred
