"""Wall-clock CoE serving: the same policies, an asyncio backend.

The simulator answers "what would this policy do"; this module answers
"does the deployed loop actually do it". A :class:`LiveEngine` runs one
asyncio worker task per node against a :class:`repro.sim.clock.WallClock`
— real admission at arrival time, bounded per-node queues with
backpressure shedding, streamed token callbacks as decode steps complete,
and a graceful drain on shutdown — while making **byte-identical policy
decisions** to the sim backend for the same request stream:

- Grouping goes through :class:`repro.coe.scheduling.GroupAssembler`,
  the proven streaming equivalent of the batch pipeline's
  ``coalesce_groups(affinity_schedule(...))``.
- Node choice and deadline admission go through the same
  :class:`repro.coe.dispatch.AdmissionLedger` the cluster engine's
  column admission uses: per-node backlog running sums and queue-tail
  experts, fed by each node's phase memo. Like the sim (where every
  request is backlogged at t=0), admission evaluates ETAs at logical
  ``now = 0.0`` — so the arithmetic is bitwise-identical even though
  wall arrivals are spread in time.
- Each node is a :class:`repro.coe.engine.ServingEngine` bound to the
  run's wall clock, its queue the groups not yet begun. The worker
  drives it through the engine's own begin, promotion and finish steps,
  so demand copies, pipelined NVMe->DDR promotions, spans and
  completion records are the sim's code; cache decisions happen inside
  :meth:`repro.coe.runtime.CoERuntime.activate`, the single choke point
  both backends share.

The cross-check (:mod:`repro.coe.crosscheck`) runs both backends over a
recorded trace and diffs their :class:`~repro.coe.decisions.DecisionLog`
streams — the correctness artifact for the whole policy/clock split.

What live mode deliberately does *not* model: speculative prefetch
(``overlap``), runtime stealing, and fault injection are sim-clock
features; :class:`repro.coe.api.ServeConfig` rejects them with a typed
:class:`~repro.coe.api.ServeModeError` rather than silently diverging.

Timestamps: everything is **model seconds** (``time_scale`` wall seconds
each — see :class:`~repro.sim.clock.WallClock`), so a live timeline's
spans line up with a sim run of the same work, and a 10-model-second
trace smoke-tests in a fraction of a wall second. The report's timeline
ends at the makespan: a span still open when the run stopped (a copy
cut off by the drain timeout) is clipped there, and one that would only
have started later is dropped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
    TYPE_CHECKING,
)

from repro.coe.decisions import DecisionLog
from repro.coe.dispatch import AdmissionLedger
from repro.coe.engine import (
    EngineReentryError,
    EngineRequest,
    ServingEngine,
)
from repro.coe.expert import ExpertLibrary
from repro.coe.metrics import summarize_latencies
from repro.coe.scheduling import (
    GroupAssembler,
    RequestGroup,
    make_scheduler,
    reject_duplicate_ids,
)
from repro.coe.serving import ExpertServer
from repro.obs import Timeline
from repro.sim.clock import WallClock
from repro.systems.cluster import partition_experts

if TYPE_CHECKING:  # avoid the api <-> live_engine import cycle
    from repro.coe.api import PlatformLike, ServeConfig

#: Live defaults, applied here so :class:`ServeConfig` can keep ``None``
#: (= "not set") and reject the knobs in sim mode.
DEFAULT_MAX_QUEUE = 64
DEFAULT_TIME_SCALE = 1.0
DEFAULT_DRAIN_TIMEOUT_S = 30.0

#: Shed reasons a :class:`ShedRequest` can carry.
SHED_REASONS = ("deadline", "backpressure", "drain_timeout")


class ShedRequest(NamedTuple):
    """One request the live engine refused, and why.

    ``deadline`` mirrors the sim's admission shedding (the ETA busts the
    SLO); ``backpressure`` is live-only (the chosen node's bounded queue
    was full at arrival); ``drain_timeout`` marks a request still queued
    or in flight when graceful shutdown hit its timeout. Shed work is
    reported, never silently dropped — the same contract as
    :attr:`ClusterEngine.rejected`.
    """

    request_id: int
    expert: str
    reason: str
    output_tokens: int


class TokenEvent(NamedTuple):
    """One streamed decode token, delivered to the token callback."""

    request_id: int
    expert: str
    #: 0-based index of this token within the request's generation.
    index: int
    #: Model-seconds timestamp of the decode step that produced it.
    time_s: float
    node: str


@dataclass
class _LiveNode:
    """One live node: its serving engine and its worker's wake-up."""

    index: int
    name: str
    engine: ServingEngine
    hosted: Set[str]
    #: Set when the dispatcher queues a group or closes admission.
    wake: Optional[asyncio.Event] = None
    #: The group the worker is running (popped from the queue, not yet
    #: complete), or None.
    running: Optional[RequestGroup] = None

    @property
    def server(self) -> ExpertServer:
        return self.engine.server

    @property
    def completed(self):
        return self.engine.completed

    @property
    def groups_done(self) -> int:
        return self.engine.groups_done


@dataclass(frozen=True)
class LiveReport:
    """Result of one wall-clock serving run.

    Latencies and the makespan are model seconds (finish minus arrival,
    queueing and wall jitter included); ``wall_s`` is the raw wall-clock
    duration of the run. ``drained`` is False only when graceful
    shutdown hit ``drain_timeout_s`` and in-flight work was cancelled;
    the requests it cut off are shed with reason ``drain_timeout``, so
    ``completed_requests + shed_requests == requests`` on every path.
    """

    policy: str
    cluster_policy: str
    cache_policy: str
    num_nodes: int
    requests: int
    completed_requests: int
    shed_deadline: int
    shed_backpressure: int
    #: Output tokens of *completed* requests only.
    output_tokens: int
    #: Tokens actually delivered through the streaming callback.
    tokens_streamed: int
    makespan_s: float
    wall_s: float
    time_scale: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    drained: bool = True
    #: Requests still queued or in flight at the drain timeout.
    shed_drain_timeout: int = 0
    demand_hit_rate: float = 0.0
    #: Admission-time scheduler the backlog went through (SchedulerName).
    scheduler: str = "fifo"
    #: NVMe->DDR promotions started ahead of demand by the pipelined
    #: prefetch path (0 unless ``pipeline_promotions`` was enabled).
    pipelined_promotions: int = 0
    completed: tuple = field(repr=False, default=())
    shed: tuple = field(repr=False, default=())
    timeline: Optional[Timeline] = field(repr=False, compare=False, default=None)

    @property
    def shed_requests(self) -> int:
        return (self.shed_deadline + self.shed_backpressure
                + self.shed_drain_timeout)

    @property
    def shed_rate(self) -> float:
        return self.shed_requests / self.requests if self.requests else 0.0

    @property
    def requests_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.completed_requests / self.makespan_s

    @property
    def tokens_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.output_tokens / self.makespan_s

    @property
    def goodput_tokens_per_second(self) -> float:
        """Completed-work throughput; shed tokens never count."""
        return self.tokens_per_second

    def to_dict(self) -> dict:
        """JSON-serializable summary (benchmark harness + CLI)."""
        return {
            "policy": self.policy,
            "cluster_policy": self.cluster_policy,
            "cache_policy": self.cache_policy,
            "num_nodes": self.num_nodes,
            "requests": self.requests,
            "completed_requests": self.completed_requests,
            "shed_deadline": self.shed_deadline,
            "shed_backpressure": self.shed_backpressure,
            "shed_drain_timeout": self.shed_drain_timeout,
            "shed_rate": self.shed_rate,
            "output_tokens": self.output_tokens,
            "tokens_streamed": self.tokens_streamed,
            "makespan_s": self.makespan_s,
            "wall_s": self.wall_s,
            "time_scale": self.time_scale,
            "requests_per_second": self.requests_per_second,
            "goodput_tokens_per_second": self.goodput_tokens_per_second,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "drained": self.drained,
            "demand_hit_rate": self.demand_hit_rate,
            "scheduler": self.scheduler,
            "pipelined_promotions": self.pipelined_promotions,
        }


class LiveEngine:
    """Serves an arrival stream on the wall clock, one task per node.

    Construct via :func:`repro.coe.api.build_server` with a
    ``mode="live"`` config (which has already vetted the policy subset),
    then :meth:`serve` a backlog — or :meth:`aserve` from inside an
    existing event loop. ``token_callback(event: TokenEvent)`` fires for
    every decode token as its step completes; ``decision_log`` records
    the same streams the sim backend would.
    """

    def __init__(
        self,
        platform: "PlatformLike",
        library: ExpertLibrary,
        config: "ServeConfig",
        *,
        decision_log: Optional[DecisionLog] = None,
        token_callback: Optional[Callable[[TokenEvent], None]] = None,
    ) -> None:
        from repro.coe.api import ServeMode, ServeModeError

        if config.mode is not ServeMode.LIVE:
            raise ServeModeError(
                "LiveEngine needs a mode='live' ServeConfig; use "
                "repro.serve / build_server for sim configs"
            )
        self.config = config
        self.library = library
        self.policy = config.policy.value
        self.cluster_policy = config.cluster_policy.value
        self.scheduler = make_scheduler(config.scheduler)
        self.deadline_s = config.deadline_s
        self.max_queue = (
            config.max_queue if config.max_queue is not None
            else DEFAULT_MAX_QUEUE
        )
        self.time_scale = (
            config.time_scale if config.time_scale is not None
            else DEFAULT_TIME_SCALE
        )
        self.drain_timeout_s = (
            config.drain_timeout_s if config.drain_timeout_s is not None
            else DEFAULT_DRAIN_TIMEOUT_S
        )
        self._token_callback = token_callback
        self.shed: List[ShedRequest] = []
        self.timeline = Timeline()
        self.clock = WallClock(
            time_scale=self.time_scale, timeline=self.timeline
        )

        factory = platform if callable(platform) else (lambda: platform)
        if config.wants_cluster:
            # ClusterEngine's sharding (and its ExpertServer defaults —
            # reserved_hbm_bytes is a single-node-only knob).
            shards = [
                s for s in partition_experts(
                    library, config.num_nodes, balanced=True
                ) if s
            ]
        else:
            shards = [list(library.experts)]
        self.nodes: List[_LiveNode] = []
        #: Expert name -> indices of nodes hosting a replica.
        owners: Dict[str, List[int]] = {}
        for idx, shard in enumerate(shards):
            name = f"node{idx}"
            engine = ServingEngine(
                factory(),
                ExpertLibrary(experts=list(shard))
                if config.wants_cluster else library,
                policy=self.policy,
                reserved_hbm_bytes=(
                    None if config.wants_cluster
                    else config.reserved_hbm_bytes
                ),
                simulator=self.clock,
                lane_prefix=f"{name}/",
                cache_policy=config.cache_policy.value,
                decision_log=decision_log,
                tier_capacities=config.tier_capacities,
                pipeline_promotions=bool(config.pipeline_promotions),
            )
            self.nodes.append(_LiveNode(
                index=idx, name=name, engine=engine,
                hosted={e.name for e in shard},
            ))
            for expert in shard:
                owners.setdefault(expert.name, []).append(idx)
        self.cache_policy = self.nodes[0].engine.cache_policy
        #: The sim records admission decisions only when the config
        #: selects the cluster engine; so does this ledger.
        self._ledger = AdmissionLedger(
            [node.name for node in self.nodes], owners,
            affinity=self.cluster_policy == "affinity",
            deadline_s=self.deadline_s,
            decisions=decision_log if config.wants_cluster else None,
        )
        self._admitting = False
        self._served = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Admission (the dispatcher task)
    # ------------------------------------------------------------------
    def _shed(self, group: RequestGroup, reason: str) -> None:
        name = group.expert.name
        for req in group.requests:
            self.shed.append(
                ShedRequest(req.request_id, name, reason, req.output_tokens)
            )

    def _admit(self, group: RequestGroup) -> None:
        """Route one closed group through the cluster's admission ledger.

        ETAs are evaluated at logical ``now = 0.0`` exactly like the
        sim's all-backlogged-at-t0 admission, so ``repr(eta)`` matches
        bit for bit. A full queue sheds with ``backpressure`` *after*
        the dispatch decision, which still advances the ledger's backlog
        and tail — the decision stream stays sim-identical even under
        shed (the cache streams cannot, which is why the cross-check
        pins ``max_queue`` high enough to never shed).
        """
        ledger = self._ledger
        name = group.expert.name
        node = self.nodes[ledger.route(name)]
        if not ledger.admit(node.index, name, group.batch,
                            node.engine._group_exec_time(group)):
            self._shed(group, "deadline")
            return
        queue = node.engine._queue
        if len(queue) >= self.max_queue:
            self._shed(group, "backpressure")
            return
        queue.append(group)
        node.wake.set()

    async def _dispatch_all(self, requests: Sequence[EngineRequest]) -> None:
        """Open-loop admission: release each arrival at its model time."""
        assembler = GroupAssembler(
            policy=self.policy,
            window=self.config.window,
            max_batch=self.config.max_batch,
        )
        clock = self.clock
        for request in requests:
            await clock.sleep_until(request.arrival_s)
            for group in assembler.push(request):
                self._admit(group)
        for group in assembler.flush():
            self._admit(group)

    # ------------------------------------------------------------------
    # Execution (one worker task per node)
    # ------------------------------------------------------------------
    async def _run_group(self, node: _LiveNode, group: RequestGroup) -> None:
        """One group through the node engine's begin and finish steps.

        The group has left the engine's queue, so the lookahead window
        and the promotion peek see only the groups not yet begun, as on
        the sim clock. The copy wait and the phases are real sleeps;
        the phase spans keep their planned model durations, anchored at
        the actual start — wall jitter shifts spans, never stretches
        them.
        """
        clock = self.clock
        engine = node.engine
        queue = engine._queue
        router_s, prefill_s, decode_s = engine._group_phase_times(group)
        await clock.sleep_until(engine._begin(group.expert, clock.now))
        engine._pipeline_promote(
            clock.now, queue[0].expert if queue else None
        )
        exec_start = clock.now
        await clock.sleep(router_s + prefill_s)
        callback = self._token_callback
        steps = group.phase_key[3]
        if callback is not None and steps > 0 and decode_s > 0:
            # Stream: one decode step per output token position, the
            # batch's tokens delivered as each step completes. Steps
            # sleep to *absolute* model deadlines, so the event loop's
            # ~1ms timer floor is paid once per behind-schedule stretch
            # — late steps fire back to back — instead of compounding
            # per token.
            step_s = decode_s / steps
            decode_start = clock.now
            node_name = node.name
            expert_name = group.expert.name
            for step in range(steps):
                await clock.sleep_until(decode_start + step_s * (step + 1))
                now = clock.now
                for req in group.requests:
                    if step < req.output_tokens:
                        callback(TokenEvent(
                            req.request_id, expert_name, step, now, node_name,
                        ))
                        self._tokens_streamed += 1
        else:
            await clock.sleep(decode_s)
        engine._complete(group, exec_start, (router_s, prefill_s, decode_s),
                         engine.groups_done, clock.now)

    async def _worker(self, node: _LiveNode) -> None:
        queue = node.engine._queue
        while queue or self._admitting:
            if queue:
                node.running = queue.popleft()
                await self._run_group(node, node.running)
                node.running = None
            else:
                node.wake.clear()
                await node.wake.wait()

    # ------------------------------------------------------------------
    async def aserve(self, requests: Sequence[EngineRequest]) -> LiveReport:
        """Serve the stream inside the caller's event loop.

        Single-use like :meth:`ServingEngine.run`: a second call raises
        :class:`~repro.coe.engine.EngineReentryError`, because the
        caches, ledger and completion records of the first run persist.
        """
        if self._served:
            raise EngineReentryError(
                "this LiveEngine already served; cache, admission and "
                "completion state persists — construct a fresh engine "
                "per run"
            )
        if not requests:
            raise ValueError("empty request backlog")
        reject_duplicate_ids(requests)
        # Set only once the backlog is valid: a rejected one touched no
        # state, so the engine may still serve a valid one.
        self._served = True
        # Admission-time reordering over the known backlog, same as the
        # sim engines. Dispatch still honours each request's arrival
        # time (``sleep_until`` treats past deadlines as a no-op), so
        # for an all-at-t0 backlog — the cross-check precondition — the
        # live group stream matches the sim's exactly.
        requests = self.scheduler.order(list(requests))
        self._tokens_streamed = 0
        self.clock.start()
        self._admitting = True
        for node in self.nodes:
            node.wake = asyncio.Event()
        tasks = [
            asyncio.create_task(self._worker(node), name=f"live-{node.name}")
            for node in self.nodes
        ]
        drained = True
        try:
            await self._dispatch_all(requests)
            self._admitting = False
            for node in self.nodes:
                node.wake.set()
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=self.drain_timeout_s
                )
            except asyncio.TimeoutError:
                drained = False
        finally:
            # No task leaks, on any path: cancel whatever still runs and
            # reap every task before returning.
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        makespan = self.clock.now
        wall_s = self.clock.wall_elapsed_s
        # The report's timeline ends at the makespan: a span still open
        # when the run stopped (a copy or promotion cut off by the drain
        # timeout) is clipped there, one not yet started is dropped.
        timeline = self.timeline
        if timeline.end_s > makespan:
            timeline = timeline.clipped(makespan)
        if not drained:
            # Cut off by the timeout: the group each worker was running
            # (its completion never recorded) and every group still
            # queued are shed, so no request goes unaccounted.
            for node in self.nodes:
                if node.running is not None:
                    self._shed(node.running, "drain_timeout")
                for group in node.engine._queue:
                    self._shed(group, "drain_timeout")
        completed = [c for node in self.nodes for c in node.completed]
        if len(completed) + len(self.shed) != len(requests):
            raise RuntimeError(
                f"live engine lost requests: {len(completed)} completed + "
                f"{len(self.shed)} shed of {len(requests)} submitted"
            )
        # sorted first so mean_s accumulates in the same order as before the
        # summarize_latencies migration (fp addition is order-sensitive)
        latency_summary = summarize_latencies(sorted(c.latency_s for c in completed))
        stats = [n.server.runtime.stats for n in self.nodes]
        hits = sum(s.hits for s in stats)
        demand = sum(s.requests for s in stats)
        shed_counts = {reason: 0 for reason in SHED_REASONS}
        for shed in self.shed:
            shed_counts[shed.reason] += 1
        return LiveReport(
            policy=self.policy,
            cluster_policy=self.cluster_policy,
            cache_policy=self.cache_policy,
            scheduler=self.scheduler.name,
            num_nodes=self.num_nodes,
            requests=len(requests),
            completed_requests=len(completed),
            shed_deadline=shed_counts["deadline"],
            shed_backpressure=shed_counts["backpressure"],
            shed_drain_timeout=shed_counts["drain_timeout"],
            output_tokens=sum(c.output_tokens for c in completed),
            tokens_streamed=self._tokens_streamed,
            makespan_s=makespan,
            wall_s=wall_s,
            time_scale=self.time_scale,
            p50_s=latency_summary.p50_s,
            p95_s=latency_summary.p95_s,
            p99_s=latency_summary.p99_s,
            mean_s=latency_summary.mean_s,
            drained=drained,
            demand_hit_rate=(hits / demand if demand else 0.0),
            pipelined_promotions=sum(s.pipelined_promotions for s in stats),
            completed=tuple(completed),
            shed=tuple(self.shed),
            timeline=timeline,
        )

    def serve(self, requests: Sequence[EngineRequest]) -> LiveReport:
        """Run the stream to completion on a private event loop."""
        return asyncio.run(self.aserve(requests))


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_TIME_SCALE",
    "LiveEngine",
    "LiveReport",
    "SHED_REASONS",
    "ShedRequest",
    "TokenEvent",
]
