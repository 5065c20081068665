"""Throughput-oriented CoE serving engine: batching + copy/compute overlap.

The latency path (:mod:`repro.coe.serving`) serves every request as a
batch of one and pays every expert switch serially — the paper's Figure 1
decomposition. This module models the *throughput* story instead: a
saturated node draining a backlog of pre-routed requests as fast as the
hardware allows. Three levers, composed as policies:

- ``fifo`` — arrival order, but *consecutive* same-expert requests merge
  into one batched prefill/decode call (one switch, one weight read,
  shared roofline terms). This is the honest baseline: no reordering.
- ``affinity`` — bounded-window reordering (:func:`affinity_schedule`)
  first, so same-expert requests become adjacent and the groups grow.
- ``overlap`` — affinity grouping plus double-buffered expert activation:
  while group *i* executes, the DDR->HBM copy of group *i+1*'s expert
  runs on the otherwise-idle DMA engines, so the switch is (partly or
  fully) hidden behind compute. When the next expert is already resident
  the DMA warms the :class:`ExpertPredictor`'s best non-resident guess
  instead (the speculative case; an abandoned or useless copy costs
  nothing over the baseline — the bandwidth was idle).

The pipeline runs event-driven on :class:`repro.sim.engine.Simulator`:
group-start, DMA-complete, and group-finish events chain through the
queue, and the makespan is the simulator clock after the last completion.
Per-request latency (queueing included — every request is backlogged at
t=0) feeds the SLO percentiles via :func:`repro.coe.metrics.percentile`.

Every run records a :class:`repro.obs.Timeline`: router/prefill/decode
spans on the ``compute`` lane, demand DDR->HBM copies on the ``switch``
lane (recorded at true simulated timestamps), and speculative warms on
the ``prefetch`` lane. The report's switch totals and hidden-switch
fraction are *derived from that timeline* — the hidden time is literally
the overlap of the switch lane with the compute lane, so the stat and
the exported trace cannot disagree.

The engine itself is incremental: groups are :meth:`ServingEngine.submit`-ted
into a queue and drained by events on a simulator clock. A standalone
:meth:`ServingEngine.run` creates a private clock and drains a whole
backlog; the cluster engine (:mod:`repro.coe.cluster_engine`) instead
constructs many engines over one *shared* simulator, each with a
``lane_prefix`` (``node0/``, ``node1/``, ...) so every node's activity
lands on its own lanes of a single cross-node timeline. The queue is
also externally steerable — :meth:`ServingEngine.steal` removes queued
work for another replica, :meth:`ServingEngine.host` /
:meth:`ServingEngine.warm` land a replicated expert and pay its copy —
which is what cluster-level work stealing and online replication drive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from repro.coe.cache import CachePolicyLike, LookaheadPolicy, PredictivePolicy
from repro.coe.columnar import (
    CompletedLog,
    drain as _columnar_drain,
    latency_values,
    lower_queue,
)
from repro.coe.decisions import DecisionLog
from repro.coe.expert import ExpertLibrary, ExpertProfile
from repro.coe.metrics import summarize_latencies
from repro.coe.policies import DrainMode, NodePolicy
from repro.coe.scheduling import (
    EngineRequest,
    ExpertPredictor,
    GroupPlan,
    RequestBatch,
    RequestGroup,
    SchedulerLike,
    affinity_schedule,
    coalesce_groups,
    make_scheduler,
    plan_requests,
    reject_duplicate_ids,
)
from repro.coe.serving import ExpertServer
from repro.obs import Timeline
from repro.sim.clock import EventSource
from repro.sim.engine import Simulator
from repro.systems.platforms import Platform

#: Legacy value-string tuple; :class:`repro.coe.policies.NodePolicy` is
#: the typed source of truth and coerces these (kept for back-compat).
POLICIES = NodePolicy.values()

#: Event kind tag of a whole-queue drain. All engines sharing one
#: simulator use the same tag, so back-to-back drains (e.g. every node's
#: t=0 drain in a cluster) merge into a single batched handler call.
DRAIN_EVENT_KIND = "coe-drain"


class EngineReentryError(RuntimeError):
    """A single-use engine was run a second time.

    :meth:`ServingEngine.run` (and :meth:`ClusterEngine.serve`) rebinds
    the simulator and resets the *queue* state, but the expert cache,
    its policy bookkeeping, the predictor's transition counts and the
    runtime stats all deliberately survive — so a second run on the
    same instance would start warm and report numbers no fresh run can
    reproduce (and before this guard, a stale ``_drained_until`` could
    leak a prior run's makespan into ``max(sim.run(), _drained_until)``).
    Construct a fresh engine per run instead.
    """


def _run_drain_batch(batch) -> None:
    """Batch handler for :data:`DRAIN_EVENT_KIND` events.

    Each callback replays its own engine's queue on a local clock and
    never touches the shared one, so running them back-to-back is
    exactly the event-by-event execution order.
    """
    for _, callback in batch:
        callback()


class CompletedRequest(NamedTuple):
    """Completion record of one request, with its group context.

    A NamedTuple rather than a dataclass: the engine materializes one of
    these per request on the hottest loop of a million-request sim, and
    tuple construction is several times cheaper than a frozen dataclass's
    per-field ``object.__setattr__``.
    """

    request_id: int
    expert: str
    batch: int
    arrival_s: float
    start_s: float
    finish_s: float
    output_tokens: int = 0

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class EngineReport:
    """Throughput and latency summary of one engine run."""

    policy: str
    platform: str
    requests: int
    groups: int
    makespan_s: float
    output_tokens: int
    switch_s: float
    hidden_switch_s: float
    speculative_prefetches: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    events_run: int
    #: HBM expert-cache policy of the run and its *demand* hit rate
    #: (speculative prefetcher traffic excluded — see RuntimeStats).
    cache_policy: str = "lru"
    demand_hit_rate: float = 0.0
    #: Admission-time scheduler the backlog went through (SchedulerName).
    scheduler: str = "fifo"
    #: NVMe->DDR promotions started ahead of demand by the pipelined
    #: prefetch path (0 unless ``pipeline_promotions`` was enabled).
    pipelined_promotions: int = 0
    completed: tuple = field(repr=False, default=())
    #: The run's full span record (compute / switch / prefetch lanes);
    #: export via :func:`repro.obs.write_chrome_trace`.
    timeline: Optional[Timeline] = field(repr=False, compare=False, default=None)

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def tokens_per_second(self) -> float:
        return self.output_tokens / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def switch_hidden_fraction(self) -> float:
        """Fraction of total switch time overlapped with execution."""
        return self.hidden_switch_s / self.switch_s if self.switch_s > 0 else 0.0

    @property
    def mean_batch(self) -> float:
        return self.requests / self.groups if self.groups else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary (benchmark harness + CLI)."""
        return {
            "policy": self.policy,
            "platform": self.platform,
            "requests": self.requests,
            "groups": self.groups,
            "mean_batch": round(self.mean_batch, 3),
            "makespan_s": self.makespan_s,
            "requests_per_second": self.requests_per_second,
            "tokens_per_second": self.tokens_per_second,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "switch_s": self.switch_s,
            "hidden_switch_s": self.hidden_switch_s,
            "switch_hidden_fraction": self.switch_hidden_fraction,
            "speculative_prefetches": self.speculative_prefetches,
            "events_run": self.events_run,
            "cache_policy": self.cache_policy,
            "demand_hit_rate": self.demand_hit_rate,
            "scheduler": self.scheduler,
            "pipelined_promotions": self.pipelined_promotions,
        }


class ServingEngine:
    """Drains a queue of pre-routed request groups through one platform.

    Standalone use: :meth:`run` a whole backlog on a private simulator.
    Cluster use: construct with an external (shared) ``simulator`` and a
    ``lane_prefix``, then :meth:`submit` groups; a cluster-level policy
    may additionally :meth:`steal` queued groups, :meth:`host` a
    replicated expert, and :meth:`warm` its DDR->HBM copy. The ``on_idle``
    and ``on_group_done`` hooks let that policy react to this engine
    draining or finishing work, on the shared clock.
    """

    def __init__(
        self,
        platform: Platform,
        library: ExpertLibrary,
        policy: str = "fifo",
        max_batch: int = 8,
        window: int = 16,
        reserved_hbm_bytes: Optional[int] = None,
        simulator: Optional[EventSource] = None,
        lane_prefix: str = "",
        cache_policy: CachePolicyLike = None,
        record_timeline: bool = True,
        decision_log: Optional[DecisionLog] = None,
        drain_mode: Union[str, DrainMode] = DrainMode.COLUMNAR,
        scheduler: SchedulerLike = None,
        tier_capacities: Optional[Dict[str, int]] = None,
        pipeline_promotions: bool = False,
    ) -> None:
        if max_batch < 1 or window < 1:
            raise ValueError("max_batch and window must be >= 1")
        self.policy = NodePolicy.coerce(policy).value
        if pipeline_promotions and self.policy == "overlap":
            raise ValueError(
                "pipeline_promotions is incompatible with the 'overlap' "
                "policy: overlap's speculative prefetches start at 'now' "
                "regardless of DMA occupancy, so sharing the prefetch lane "
                "with pipelined NVMe promotions would double-book the DMA"
            )
        #: Admission-time backlog reordering (:mod:`repro.coe.scheduling`)
        #: — applied once in :meth:`run`, before the windowed node policy.
        self.scheduler = make_scheduler(scheduler)
        self.max_batch = max_batch
        self.window = window
        self.lane_prefix = lane_prefix
        #: How queued groups execute (:class:`DrainMode`) — both modes
        #: byte-identical, see docs/PERFORMANCE.md. ``columnar`` drains
        #: the whole queue in one simulator event on a local clock,
        #: unless an external party could interleave with the queue
        #: mid-run (installed hooks; see :meth:`_batch_ok`).
        self.drain_mode = DrainMode.coerce(drain_mode).value
        #: ``False`` skips building a span timeline in :meth:`run` — the
        #: report's timeline-derived switch stats then read 0.0.
        self.record_timeline = record_timeline
        #: (expert name, batch, prompt, output) -> base (router_s,
        #: prefill_s, decode_s) with no slow factor applied. Seeded in
        #: bulk by :meth:`precompute_phases`, filled lazily otherwise.
        self._phase_cache: Dict[Tuple[str, int, int, int],
                                Tuple[float, float, float]] = {}
        self.server = ExpertServer(
            platform, library, reserved_hbm_bytes=reserved_hbm_bytes,
            cache_policy=cache_policy, tier_capacities=tier_capacities,
        )
        self._predictor = ExpertPredictor()
        # A predictive cache policy without its own predictor reads the
        # engine's — the same Markov model the overlap prefetcher uses.
        runtime_policy = self.server.runtime.policy
        if (isinstance(runtime_policy, PredictivePolicy)
                and runtime_policy.predictor is None):
            runtime_policy.predictor = self._predictor
        #: A lookahead policy reads the groups not yet begun, in
        #: scheduled order, as its backlog window (:meth:`_backlog_names`).
        if isinstance(runtime_policy, LookaheadPolicy):
            runtime_policy.bind_backlog(self._backlog_names)
        self.cache_policy = runtime_policy.name
        #: Whether the CoServe-style promotion pipeline is live: it needs
        #: a bounded DDR tier (otherwise there is nothing to promote).
        self.pipeline_promotions = bool(pipeline_promotions)
        self._pipeline_active = (
            self.pipeline_promotions
            and self.server.runtime.ddr_budget_bytes is not None
        )
        if decision_log is not None:
            # The node's demand cache decisions (hit / miss+victims)
            # stream under its node name — ``"node0"`` standalone,
            # matching what the live backend records for the same node.
            stream = lane_prefix.rstrip("/") or "node0"
            self.server.runtime.attach_decisions(decision_log, stream)
        #: Hooks a cluster-level scheduler installs: ``on_idle(engine)``
        #: fires when the queue drains, ``on_group_done(engine, group)``
        #: after every completed group. Both run on the simulator clock.
        self.on_idle: Optional[Callable[["ServingEngine"], None]] = None
        self.on_group_done: Optional[
            Callable[["ServingEngine", RequestGroup], None]
        ] = None
        self._sim: Optional[EventSource] = None
        #: One-shot guard for :meth:`run` (see EngineReentryError): the
        #: runtime cache, policy bookkeeping and predictor survive a
        #: rebind by design, so a reused engine cannot reproduce a fresh
        #: run's numbers.
        self._ran = False
        self._reset_run_state()
        if simulator is not None:
            self.bind(simulator)

    # ------------------------------------------------------------------
    # Binding to a clock
    # ------------------------------------------------------------------
    def lane(self, base: str) -> str:
        """The timeline lane this engine uses for ``base`` activity."""
        return f"{self.lane_prefix}{base}"

    def _reset_run_state(self) -> None:
        self._queue: "deque[RequestGroup]" = deque()
        #: Memo of the queue's left-to-right exec-time sum:
        #: ``(sum, slow_factor, queue length)`` it was computed at, or
        #: None. :meth:`submit` extends it; every other queue change
        #: resets it (see :meth:`estimated_backlog_s`).
        self._queued_memo: Optional[Tuple[float, float, int]] = None
        #: A request-plane backlog awaiting the columnar drain:
        #: ``(plan, group indices or None for all)`` (see submit_plan).
        self._planned: Optional[Tuple[GroupPlan, object]] = None
        #: While a columnar drain runs: its lowered expert names and the
        #: position of the first group not yet begun (the backlog).
        self._drain_names: Optional[List[str]] = None
        self._drain_next = 0
        self._busy = False
        self._begin_scheduled = False
        self._busy_until_s = 0.0
        #: When the (single) DMA path last frees up: demand copies queue
        #: behind each other so the switch lane stays physically serial.
        self._dma_free_s = 0.0
        #: Expert name -> completion time of its most recent demand copy;
        #: execution of a freshly copied expert waits for this.
        self._copy_done: Dict[str, float] = {}
        #: At most one in-flight speculative copy: (name, start_s, copy_s).
        self._spec_open: List[tuple] = []
        #: The executing group: (group, exec_start, phase times, index).
        #: Compute spans are recorded retrospectively at group finish so a
        #: crashed node's partial work truncates at the crash instead of
        #: painting phantom compute past its death.
        self._current: Optional[tuple] = None
        self._groups_started = 0
        self.groups_done = 0
        self.speculative_prefetches = 0
        #: Completion store. Columnar mode uses a :class:`CompletedLog`
        #: so vectorized runs append whole column blocks; its bound
        #: ``append`` keeps the scalar paths (decision points, hooked
        #: event-by-event groups) as cheap as appending to the plain list
        #: the reference mode keeps. Either way consumers see per-request
        #: :class:`CompletedRequest` records in completion order.
        self.completed: "Union[List[CompletedRequest], CompletedLog]" = (
            CompletedLog() if self.drain_mode == DrainMode.COLUMNAR.value
            else []
        )
        #: Fail-stop flag: a halted engine ignores every already-scheduled
        #: simulator callback (crash semantics — see ``halt``).
        self._halted = False
        #: Transient straggler multiplier (>= 1.0) applied to the phase
        #: times of every group *started* while it is raised.
        self.slow_factor = 1.0
        #: Armed DDR->HBM copy failures: the next N demand copies fail
        #: once each and are retried on the DMA clock.
        self._copy_faults_armed = 0
        self.copy_retries = 0
        #: Extra DMA occupancy paid by injected-fault retries: the failed
        #: attempt's transfer ran and was discarded. Explicitly separate
        #: from RuntimeStats.switch_time_s, whose contract is that
        #: failures contribute no bytes and no copy time.
        self.retry_dma_s = 0.0
        #: End of the last group completed by a whole-queue drain. Drains run
        #: on a local clock and never advance a (possibly shared)
        #: simulator clock, so the makespan is
        #: ``max(sim.run(), drained_until)`` across engines.
        self._drained_until = 0.0

    def bind(self, simulator: EventSource) -> None:
        """Attach to a (possibly shared) event source, resetting state.

        The engine only ever uses the narrow
        :class:`repro.sim.clock.EventSource` surface — ``now``,
        ``schedule``/``schedule_at``, ``record_span``, the batching
        accounting — never the concrete simulator, which is what keeps
        every decision this engine makes clock-agnostic. (The
        :class:`~repro.sim.engine.Simulator` satisfies the protocol
        structurally; :meth:`run` still constructs one to *drive* a
        standalone backlog, because something has to pump the events.)
        A live node binds a :class:`~repro.sim.clock.WallClock`: its
        asyncio worker calls only the begin, promotion and finish steps
        (:meth:`_begin`, :meth:`_pipeline_promote`, :meth:`_complete`),
        which read nothing but the :class:`~repro.sim.clock.Clock`
        surface.
        """
        self._sim = simulator
        self._reset_run_state()

    def unbind(self) -> None:
        self._sim = None

    # ------------------------------------------------------------------
    # Queue introspection / steering (the cluster scheduler's surface)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        self._unplan()
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def last_queued_expert(self) -> Optional[str]:
        """Expert of the queue tail (affinity routing extends its run)."""
        self._unplan()
        return self._queue[-1].expert.name if self._queue else None

    def queued_expert_counts(self) -> Dict[str, int]:
        """Queued group count per expert name (replication signal)."""
        self._unplan()
        counts: Dict[str, int] = {}
        for group in self._queue:
            counts[group.expert.name] = counts.get(group.expert.name, 0) + 1
        return counts

    def estimated_backlog_s(self) -> float:
        """Closed-form estimate of queued + in-flight work (routing cost).

        In-flight work is ``busy_until - now``, read on every call. The
        queued part is the exec-time sum over the queue, added strictly
        left to right from 0.0 — bitwise the running sums the admission
        ledger keeps (:class:`repro.coe.dispatch.AdmissionLedger`),
        on every Python version (``sum()`` of floats is compensated
        from 3.12 on). It is memoized: :meth:`submit` extends the memo
        by one addition, so a queue that only grows costs O(1) per
        read; any other queue change or a ``slow_factor`` change makes
        the next read recompute it.
        """
        self._unplan()
        now = self._sim.now if self._sim is not None else 0.0
        total = max(0.0, self._busy_until_s - now) if self._busy else 0.0
        queue = self._queue
        memo = self._queued_memo
        if memo is None or memo[1:] != (self.slow_factor, len(queue)):
            queued = 0.0
            for group in queue:
                queued += self._group_exec_time(group)
            memo = self._queued_memo = (queued, self.slow_factor, len(queue))
        return total + memo[0]

    def submit(self, group: RequestGroup) -> None:
        """Enqueue one group; starts it immediately if the engine is idle."""
        if self._halted:
            raise RuntimeError("cannot submit to a halted (crashed) engine")
        self._unplan()
        memo = self._queued_memo
        if memo is not None and memo[1:] == (self.slow_factor,
                                             len(self._queue)):
            self._queued_memo = (memo[0] + self._group_exec_time(group),
                                 memo[1], memo[2] + 1)
        else:
            self._queued_memo = None
        self._queue.append(group)
        self._kick()

    def submit_plan(self, plan: GroupPlan, index=None) -> None:
        """Enqueue the plan's groups ``index`` (all when None), in order.

        The request plane's hand-off. An engine that drains whole
        queues keeps the plan's columns and builds no
        :class:`RequestGroup` — :func:`repro.coe.columnar.lower_queue`
        gathers them at drain time. Any other engine queues the groups
        as objects, exactly as if each had been :meth:`submit`-ted.
        """
        if self._halted:
            raise RuntimeError("cannot submit to a halted (crashed) engine")
        if (self._planned is None and not self._queue
                and self._batch_ok()):
            self._planned = (plan, index)
        else:
            self._unplan()
            self._queued_memo = None
            self._queue.extend(plan.groups(index))
        self._kick()

    def _unplan(self) -> None:
        """Turn a planned backlog into queued objects, for the callers
        that read or steer the queue group by group."""
        if self._planned is not None:
            plan, index = self._planned
            self._planned = None
            self._queued_memo = None
            self._queue.extend(plan.groups(index))

    def steal(self, wanted: Callable[[ExpertProfile], bool]) -> Optional[RequestGroup]:
        """Remove and return the latest-queued group whose expert satisfies
        ``wanted``, or None.

        Scans from the tail (the work least likely to be prefetched). The
        head is only up for grabs while the engine is busy executing —
        when idle, the head's begin event is already on the clock.
        """
        self._unplan()
        floor = 0 if self._busy else 1
        for i in range(len(self._queue) - 1, floor - 1, -1):
            if wanted(self._queue[i].expert):
                group = self._queue[i]
                del self._queue[i]
                self._queued_memo = None
                return group
        return None

    def host(self, expert: ExpertProfile) -> None:
        """Add a replicated expert to this node's library."""
        self.server.library.add(expert)

    def warm(self, expert: ExpertProfile) -> Optional[float]:
        """Pay the DDR->HBM copy for a replicated expert on this node.

        Returns the copy's completion time on the sim clock, or None when
        copying now would evict an expert the pipeline still needs (the
        copy then happens on demand when the expert's first group begins).
        """
        runtime = self.server.runtime
        if runtime.is_resident(expert):
            return self._sim.now
        self._unplan()
        needed = {g.expert.name for g in list(self._queue)[:2]}
        if not needed.isdisjoint(runtime.would_evict(expert)):
            return None
        return self._demand_copy(expert, speculative=True)

    # ------------------------------------------------------------------
    # Fault surface (driven by the cluster's FaultInjector)
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        return self._halted

    def halt(self) -> None:
        """Fail-stop this engine at the current simulated time.

        Already-scheduled simulator callbacks become no-ops; the group
        executing right now is cut short — its partial compute records as
        a truncated ``lost`` span ending at the crash instant, and none
        of its requests complete (they stay re-dispatchable, which is
        what makes cluster-level recovery exactly-once). Queued work and
        the interrupted group remain available via :meth:`drain`.
        """
        if self._halted:
            return
        self._halted = True
        now = self._sim.now if self._sim is not None else 0.0
        if self._sim is not None:
            self.flush_speculation(now)
        if self._current is not None:
            _, exec_start, _, _ = self._current
            if self._sim is not None and now > exec_start:
                self._sim.record_span(
                    f"lost:{self._current[0].expert.name}",
                    self.lane("compute"), "lost",
                    start_s=exec_start, end_s=now,
                    args={"batch": self._current[0].batch,
                          "reason": "node crash"},
                )

    def drain(self) -> List[RequestGroup]:
        """Remove and return all unfinished groups (in-flight one first).

        Only meaningful on a halted engine: the cluster's recovery path
        re-dispatches exactly these groups to surviving nodes.
        """
        self._unplan()
        orphans: List[RequestGroup] = []
        if self._current is not None:
            orphans.append(self._current[0])
            self._current = None
        orphans.extend(self._queue)
        self._queue.clear()
        self._queued_memo = None
        return orphans

    def inject_copy_faults(self, count: int = 1) -> None:
        """Arm ``count`` one-shot DDR->HBM demand-copy failures."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._copy_faults_armed += count

    # ------------------------------------------------------------------
    def _order(self, requests: Sequence[EngineRequest]) -> List[EngineRequest]:
        if self.policy == "fifo":
            return list(requests)
        return affinity_schedule(requests, window=self.window)

    def _base_phase_times(self, group: RequestGroup) -> Tuple[float, float, float]:
        """Un-stretched (router_s, prefill_s, decode_s), memoized.

        The memo key is cheap (a name and three ints) where the platform
        ``lru_cache``\\ s hash whole model configs per call.
        """
        key = group.phase_key
        base = self._phase_cache.get(key)
        if base is None:
            _, batch, prompt, output = key
            router = self.server.router_time(batch=batch, prompt_tokens=prompt)
            prefill, decode = self.server.expert_time(
                group.expert, output, prompt, batch=batch
            )
            base = self._phase_cache[key] = (router, prefill, decode)
        return base

    def _group_phase_times(self, group: RequestGroup) -> Tuple[float, float, float]:
        """(router_s, prefill_s, decode_s) of one batched group."""
        router, prefill, decode = self._base_phase_times(group)
        # A straggler window stretches every phase of a group started
        # inside it (thermal throttling, a noisy neighbour, a flaky link).
        factor = self.slow_factor
        return router * factor, prefill * factor, decode * factor

    def precompute_phases(self, groups: Sequence[RequestGroup]) -> int:
        """Seed the phase memo for ``groups`` with vectorized cost math.

        ``groups`` may hold :class:`RequestGroup` objects or the request
        plane's :class:`~repro.coe.scheduling.GroupShape` tuples — only
        ``phase_key`` and ``expert`` are read.

        One :meth:`Platform.prefill_time_batch` /
        :meth:`Platform.decode_span_time_batch` call per distinct model
        replaces four memoized scalar evaluations per distinct group
        shape. The vectorized entry points are bitwise-equal to the
        scalar ones, so seeding the memo this way cannot change a single
        simulated timestamp. Returns the number of shapes computed.
        """
        pending: Dict[Tuple[str, int, int, int], RequestGroup] = {}
        for group in groups:
            key = group.phase_key
            if key not in self._phase_cache and key not in pending:
                pending[key] = group
        if not pending:
            return 0
        platform = self.server.platform
        router_model = self.server.router.model
        keys = list(pending)
        batches = [k[1] for k in keys]
        prompts = [k[2] for k in keys]
        outputs = [k[3] for k in keys]
        router_s = (
            platform.prefill_time_batch(router_model, batches, prompts)
            + platform.decode_token_time_batch(router_model, batches, prompts)
        )
        # Expert phases vectorize per distinct model architecture.
        prefill_s = [0.0] * len(keys)
        decode_s = [0.0] * len(keys)
        by_model: Dict[object, List[int]] = {}
        for i, key in enumerate(keys):
            by_model.setdefault(pending[key].expert.model, []).append(i)
        for model, idxs in by_model.items():
            pre = platform.prefill_time_batch(
                model, [batches[i] for i in idxs], [prompts[i] for i in idxs]
            )
            dec = platform.decode_span_time_batch(
                model,
                [outputs[i] for i in idxs],
                [batches[i] for i in idxs],
                [prompts[i] for i in idxs],
            )
            for j, i in enumerate(idxs):
                prefill_s[i] = float(pre[j])
                decode_s[i] = float(dec[j])
        for i, key in enumerate(keys):
            self._phase_cache[key] = (
                float(router_s[i]), prefill_s[i], decode_s[i]
            )
        return len(keys)

    def _group_exec_time(self, group: RequestGroup) -> float:
        """Batched router + prefill + closed-form decode for one group."""
        router, prefill, decode = self._group_phase_times(group)
        return router + prefill + decode

    # ------------------------------------------------------------------
    # The event pipeline
    # ------------------------------------------------------------------
    def flush_speculation(self, now: float) -> None:
        """Close any in-flight speculative copy span at ``now``.

        A new DMA transfer aborts an in-flight speculative copy; its span
        ends at min(natural completion, abort time). Call once at end of
        run to close a copy the makespan cut short.
        """
        while self._spec_open:
            name, start, copy_s = self._spec_open.pop()
            end = min(start + copy_s, now)
            self._sim.record_span(
                name, self.lane("prefetch"), "prefetch",
                start_s=start, end_s=end,
                args={"copy_s": copy_s, "abandoned": end < start + copy_s},
            )

    def _demand_copy(
        self,
        expert: ExpertProfile,
        *,
        speculative: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Activate a non-resident expert; the copy takes the DMA's next
        free slot and its span lands on this engine's switch lane.

        An armed copy fault makes the first attempt fail after consuming
        its full DMA window (the transfer ran and was discarded); the
        retry immediately follows, so one injected fault costs exactly
        one extra copy duration and shows up as a ``fault`` span. That
        extra DMA time is accounted in :attr:`retry_dma_s` — never in
        ``RuntimeStats``: the runtime's copy succeeded, so booking a
        ``failures`` tick there would violate its contract that failures
        contribute no bytes and no switch time.

        ``speculative=True`` marks prefetcher/replication warms so the
        runtime books them apart from demand traffic.
        """
        sim = self._sim
        if now is None:
            now = sim.now  # event path; drains pass a local clock
        self.flush_speculation(now)
        start = max(now, self._dma_free_s)
        event = self.server.runtime.activate(
            expert, span=False, speculative=speculative
        )
        if self._copy_faults_armed > 0 and event.time_s > 0:
            self._copy_faults_armed -= 1
            self.copy_retries += 1
            self.retry_dma_s += event.time_s
            sim.record_span(
                f"copy-failed:{expert.name}", self.lane("switch"), "fault",
                start_s=start, end_s=start + event.time_s,
                args={"bytes_up": event.bytes_up, "failed": True,
                      "retried": True},
            )
            start += event.time_s
        done = start + event.time_s
        if event.time_s > 0:
            sim.record_span(
                f"copy:{expert.name}", self.lane("switch"), "switch",
                start_s=start, end_s=done,
                args={
                    "hit": False,
                    "speculative": speculative,
                    "policy": event.policy,
                    "bytes_up": event.bytes_up,
                    "bytes_down": event.bytes_down,
                    "evicted": list(event.evicted),
                    "evicted_why": list(event.evicted_why),
                },
            )
        self._dma_free_s = done
        self._copy_done[expert.name] = done
        return done

    def _pipeline_promote(
        self, now: float, nxt: Optional[ExpertProfile]
    ) -> None:
        """Start the next group's NVMe->DDR promotion behind this group.

        The CoServe pipelining trick: called right after the current
        group's activation with the expert of the scheduler's next group
        (the queue head on the event path and in the live worker, which
        calls it once its copy wait is over; the next lowered group in a
        drain); if it is still NVMe-resident, commits its promotion
        (:meth:`CoERuntime.promote_to_ddr`) and books the DMA occupancy
        on the prefetch lane starting at the DMA's next free slot — so
        the copy overlaps this group's compute and the upcoming demand
        miss pays only the DDR->HBM hop. Pure bookkeeping on the given
        clock reading (no new simulator events), so the reference and
        columnar drains stay bitwise-identical; promotions are never
        recorded in the decision log (prefetcher traffic, not a policy
        decision), so sim/live cross-check streams are unchanged.
        """
        if not self._pipeline_active or nxt is None:
            return
        runtime = self.server.runtime
        if runtime.tier_of(nxt.name) != "nvme":
            return
        promo = runtime.promote_to_ddr(nxt)
        if promo.time_s <= 0:
            return
        start = max(now, self._dma_free_s)
        done = start + promo.time_s
        self._dma_free_s = done
        self._sim.record_span(
            f"promote:{nxt.name}", self.lane("prefetch"), "promote",
            start_s=start, end_s=done,
            args={
                "pipelined": True,
                "bytes_read": promo.bytes_read,
                "bytes_written": promo.bytes_written,
                "demoted": list(promo.demoted),
            },
        )

    def _backlog_names(self) -> Iterator[str]:
        """Expert names of the groups not yet begun, soonest first.

        The lookahead policy's backlog window. Inside a columnar drain
        it is the lowered names after the group being decided — what
        the queue holds once that group has begun on the event path —
        read lazily, so a scan stops at the policy's horizon.
        """
        names = self._drain_names
        if names is None:
            return (g.expert.name for g in self._queue)
        return (names[i] for i in range(self._drain_next, len(names)))

    def _batch_ok(self) -> bool:
        """Whether draining the whole queue in one event is equivalent.

        True in ``columnar`` mode unless hooks are installed: hooks are
        the cluster scheduler's surface for interleaving with this queue
        mid-run (stealing, replication), so with any installed, every
        group must go through its own begin/finish events so the hooks
        observe real intermediate states. Fault schedules force the
        reference mode at construction time (see :class:`ClusterEngine`).
        """
        return (self.drain_mode == "columnar" and self.on_idle is None
                and self.on_group_done is None)

    def _kick(self) -> None:
        """Schedule the queue head's begin event if the engine is idle."""
        if (self._sim is None or self._halted or self._busy
                or self._begin_scheduled):
            return
        if self._queue:
            head = self._queue[0].expert
        elif self._planned is not None:
            plan, index = self._planned
            head = plan.expert_of(0 if index is None else index[0])
        else:
            return
        sim = self._sim
        start_at = sim.now
        if self.server.runtime.is_resident(head):
            start_at = max(start_at, self._copy_done.get(head.name, start_at))
        self._begin_scheduled = True
        if self._batch_ok():
            # One tagged event drains the whole queue on a local clock;
            # consecutive drains (one per node at t=0 in a cluster) merge
            # into a single handler call via the simulator's batch-drain
            # machinery.
            sim.schedule_at(
                start_at,
                lambda: self._drain_queue(start_at),
                kind=DRAIN_EVENT_KIND,
            )
        else:
            sim.schedule_at(start_at, self._begin_next)

    def _begin_next(self) -> None:
        if self._halted:
            return
        self._begin_scheduled = False
        if self._busy:
            return
        self._unplan()
        if not self._queue:
            self._notify_idle()
            return
        sim = self._sim
        group = self._queue.popleft()
        self._queued_memo = None
        self._busy = True
        index = self._groups_started
        self._groups_started += 1
        router_s, prefill_s, decode_s = self._group_phase_times(group)
        exec_start = self._begin(group.expert, sim.now)
        self._pipeline_promote(
            sim.now, self._queue[0].expert if self._queue else None
        )
        if self.policy == "overlap" and self._queue:
            # While this group executes, the DMA engines prefetch the
            # next queued expert (or speculate when it is already here).
            protect = group.expert.name
            if exec_start <= sim.now:
                self._prefetch_head(protect)
            else:
                sim.schedule_at(
                    exec_start, lambda: self._prefetch_head(protect)
                )
        end = exec_start + router_s + prefill_s + decode_s
        # Phase spans are recorded at finish time (see halt): the same
        # timestamps either way, but a crash truncates honestly.
        self._current = (group, exec_start,
                         (router_s, prefill_s, decode_s), index)
        self._busy_until_s = end
        sim.schedule_at(end, self._finish_group)

    def _begin(self, expert: ExpertProfile, now: float) -> float:
        """The begin step of a group of ``expert``; returns its exec start.

        The predictor observes the demand stream (a predictive cache
        policy needs it even when the overlap prefetcher is off); then
        a resident expert gets a free recency refresh and waits out any
        copy still landing it, and a missing one takes a demand copy.
        Shared by the event path, the columnar decision point and the
        live worker.
        """
        self._predictor.observe(expert)
        runtime = self.server.runtime
        if runtime.is_resident(expert):
            runtime.activate(expert)  # hit: free recency refresh
            done = self._copy_done.get(expert.name)
            return now if done is None or done <= now else done
        return self._demand_copy(expert, now=now)

    def _prefetch_head(self, protected_name: str) -> None:
        """The event path's prefetch: warms the queue head as of now."""
        if self._queue:
            self._prefetch_next(protected_name, self._queue[0].expert)

    def _prefetch_next(
        self,
        protected_name: str,
        nxt: ExpertProfile,
        now: Optional[float] = None,
    ) -> None:
        """Warm the next group's expert on the otherwise-idle DMA engines."""
        if self._halted:
            return
        if now is None:
            now = self._sim.now  # event path; drains pass a local clock
        runtime = self.server.runtime
        if runtime.is_resident(nxt):
            self.flush_speculation(now)
            # Recency refresh, free hit — speculative: the demand access
            # happens when the group actually begins.
            runtime.activate(nxt, speculative=True)
            # The DMA is idle this window: warm the predictor's best
            # non-resident guess. A speculative copy may evict cold LRU
            # tails but must never displace the experts the pipeline
            # still needs (the one executing and the one up next).
            protected = {nxt.name, protected_name}
            guess = next(
                (c for c in self._predictor.iter_candidates()
                 if not runtime.is_resident(c)
                 and protected.isdisjoint(runtime.would_evict(c))),
                None,
            )
            if guess is not None:
                event = runtime.activate(guess, span=False, speculative=True)
                self._spec_open.append(
                    (f"copy:{guess.name}", now, event.time_s)
                )
                self.speculative_prefetches += 1
        else:
            self._demand_copy(nxt, speculative=True, now=now)

    def _record_phases(
        self,
        expert_name: str,
        batch: int,
        exec_started: float,
        phase_times: Sequence[float],
        index: int,
    ) -> None:
        """One group's router/prefill/decode spans on the compute lane.

        Shared by the event path (at the finish event) and the columnar
        drain (at the group's decision point); both pass the same start
        and phase times, so the spans are bitwise-identical either way.
        """
        end = exec_started
        for category, duration in zip(("router", "prefill", "decode"),
                                      phase_times):
            if duration > 0:
                self._sim.record_span(
                    f"{category}:{expert_name}",
                    self.lane("compute"), category,
                    start_s=end, end_s=end + duration,
                    args={"group": index, "batch": batch},
                )
            end += duration

    def _complete(
        self,
        group: RequestGroup,
        exec_started: float,
        phase_times: Sequence[float],
        index: int,
        finish_s: float,
    ) -> None:
        """The finish step: phase spans, completion records, the count.

        Shared by the event path and the live worker.
        """
        expert_name = group.expert.name
        batch = group.batch
        if self._sim.timeline is not None:
            self._record_phases(expert_name, batch, exec_started,
                                phase_times, index)
        append = self.completed.append
        for req in group.requests:
            append(CompletedRequest(
                request_id=req.request_id,
                expert=expert_name,
                batch=batch,
                arrival_s=req.arrival_s,
                start_s=exec_started,
                finish_s=finish_s,
                output_tokens=req.output_tokens,
            ))
        self.groups_done += 1

    def _finish_group(self) -> None:
        if self._halted or self._current is None:
            return
        group, exec_started, phase_times, index = self._current
        self._current = None
        self._complete(group, exec_started, phase_times, index,
                       self._sim.now)
        self._busy = False
        if self.on_group_done is not None:
            self.on_group_done(self, group)
        if self._queue:
            self._kick()
        else:
            self._notify_idle()

    def _drain_queue(self, start_at: float) -> None:
        """One whole-queue drain event, through the columnar core.

        Lowers the queued groups to parallel arrays — a request-plane
        backlog directly, groups queued one by one through
        :meth:`submit` via :meth:`GroupPlan.of_groups` — and hands them
        to :func:`repro.coe.columnar.drain`, which replays the reference
        path's begin -> (deferred prefetch) -> finish chain group by
        group on a local clock. The shared clock is never advanced — a
        later-scheduled drain of another engine on the same simulator
        must still see its own scheduled time — so the run end is
        published via :attr:`_drained_until` and folded into the
        makespan as ``max(sim.run(), drained_until)``. Credits the
        events the reference path would have run for the same work: a
        begin and a finish per group plus one per deferred prefetch,
        less the drain event the simulator already counted.
        """
        if self._halted:
            return
        self._begin_scheduled = False
        if self._busy:
            return
        if self._planned is not None:
            plan, index = self._planned
            self._planned = None
        elif self._queue:
            plan, index = GroupPlan.of_groups(self._queue), None
            self._queue.clear()
            self._queued_memo = None
        else:
            self._notify_idle()
            return
        cols = lower_queue(self, plan, index)
        end, deferred = _columnar_drain(self, cols, start_at)
        n = len(cols)
        self._groups_started += n
        self.groups_done += n
        self._drained_until = max(self._drained_until, end)
        self._sim.count_events(max(0, 2 * n + deferred - 1))
        self._notify_idle()

    def _notify_idle(self) -> None:
        if self.on_idle is not None:
            self.on_idle(self)
        self._kick()  # the idle hook may have stolen work into the queue

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[EngineRequest]) -> EngineReport:
        """Serve a whole backlog on a private clock; returns the report.

        Engines are single-use: a second :meth:`run` raises
        :class:`EngineReentryError` (cache/predictor/stats state
        survives the rebind, so a reused engine starts warm and cannot
        reproduce a fresh run). Construct a new engine per run.
        """
        if self._ran:
            raise EngineReentryError(
                "this ServingEngine already ran; cache, predictor and "
                "stats state persists across rebinds — construct a fresh "
                "engine per run"
            )
        if not requests:
            raise ValueError("empty request backlog")
        reject_duplicate_ids(requests)
        # Set only once the backlog is valid: a rejected one touched no
        # state, so the engine may still serve a valid one.
        self._ran = True
        plan: Optional[GroupPlan] = None
        if self.drain_mode == DrainMode.REFERENCE.value:
            # The object front end: the oracle the request plane is
            # held to, byte for byte.
            admitted = self.scheduler.order(requests)
            groups = coalesce_groups(self._order(admitted), self.max_batch)
            num_groups = len(groups)
            output_tokens = sum(r.output_tokens for r in requests)
        else:
            plan = plan_requests(requests, self.scheduler, self.policy,
                                 self.window, self.max_batch)
            num_groups = len(plan)
            output_tokens = plan.batch.output_total()
        timeline = Timeline() if self.record_timeline else None
        sim = Simulator(timeline=timeline)
        self.bind(sim)
        try:
            sim.set_batch_handler(DRAIN_EVENT_KIND, _run_drain_batch)
            if plan is None:
                self.precompute_phases(groups)
                self._queue.extend(groups)
                self._kick()
            else:
                self.precompute_phases(plan.shapes)
                self.submit_plan(plan)
            makespan = max(sim.run(), self._drained_until)
            self.flush_speculation(makespan)
            # A halted engine can finish with zero completions; the
            # summary handles the empty sample (zeros, no div-by-zero).
            latencies = latency_values(self.completed)
            summary = summarize_latencies(latencies)
            report = EngineReport(
                policy=self.policy,
                platform=self.server.platform.name,
                requests=len(self.completed),
                groups=num_groups,
                makespan_s=makespan,
                output_tokens=output_tokens,
                switch_s=(timeline.busy_s(self.lane("switch"))
                          if timeline is not None else 0.0),
                hidden_switch_s=(timeline.overlap_s(
                    self.lane("switch"), self.lane("compute")
                ) if timeline is not None else 0.0),
                speculative_prefetches=self.speculative_prefetches,
                p50_s=summary.p50_s,
                p95_s=summary.p95_s,
                p99_s=summary.p99_s,
                mean_s=summary.mean_s,
                events_run=sim.events_run,
                cache_policy=self.cache_policy,
                demand_hit_rate=self.server.runtime.stats.hit_rate,
                scheduler=self.scheduler.name,
                pipelined_promotions=(
                    self.server.runtime.stats.pipelined_promotions
                ),
                completed=tuple(self.completed),
                timeline=timeline,
            )
        finally:
            self.unbind()
        return report

    def serve(self, requests: Sequence[EngineRequest]) -> EngineReport:
        """Alias of :meth:`run` satisfying :class:`repro.coe.api.Server`."""
        return self.run(requests)


# ----------------------------------------------------------------------
# Workload + comparison helpers (benchmark harness, CLI, examples)
# ----------------------------------------------------------------------


def zipf_request_stream(
    library: ExpertLibrary,
    num_requests: int,
    alpha: float = 1.1,
    seed: int = 1234,
    prompt_tokens: int = 256,
    output_tokens: int = 20,
) -> RequestBatch:
    """A skewed (Zipf) pre-routed request stream over a library.

    Real CoE traffic concentrates on a few hot experts (the router's
    domain mix is not uniform); rank-``r`` experts draw with weight
    ``r^-alpha``. Deterministic under ``seed``.

    Returns a :class:`~repro.coe.scheduling.RequestBatch`: columns for
    the engines' request plane, and a ``Sequence[EngineRequest]`` whose
    elements — request ``i`` routed to the ``i``-th draw, all queued at
    t=0 — are built lazily on first access.
    """
    import random

    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not library.experts:
        raise ValueError("cannot draw requests from an empty expert library")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(library))]
    # Drawing indices consumes the generator exactly as drawing the
    # experts themselves would: same draws, same stream.
    codes = rng.choices(range(len(library)), weights=weights, k=num_requests)
    return RequestBatch.uniform(
        library.experts, codes, prompt_tokens, output_tokens
    )


def compare_policies(
    platform: Platform,
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
    policies: Sequence[str] = POLICIES,
    max_batch: int = 8,
    window: int = 16,
) -> Dict[str, EngineReport]:
    """Run the same backlog under each policy on a fresh engine."""
    reports: Dict[str, EngineReport] = {}
    for policy in policies:
        engine = ServingEngine(
            platform, library, policy=policy, max_batch=max_batch, window=window
        )
        reports[policy] = engine.run(requests)
    return reports
