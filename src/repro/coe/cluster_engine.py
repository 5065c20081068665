"""Cluster-level CoE serving: event-driven multi-node dispatch.

The paper's Section III-B motivates the single-node SN40L by the pain of
the alternative: multi-machine CoE serving "increases costs, complicates
deployment, and introduces load balancing challenges". This module makes
that trade-off *measurable*: one :class:`repro.coe.engine.ServingEngine`
per node, all on a **shared** :class:`repro.sim.engine.Simulator` clock,
with every node's activity on its own lanes (``node0/compute``,
``node0/switch``, ``node0/prefetch``, ``node0/faults``, ``node1/...``)
of a single :class:`repro.obs.Timeline` — so a Perfetto trace shows
cross-node overlap directly, and the scaling curve is derived from the
same spans.

Cluster policies (:class:`repro.coe.policies.ClusterPolicy`; the legacy
strings in :data:`CLUSTER_POLICIES` still coerce):

- ``least_loaded`` — static admission: each group goes to the owner
  replica with the smallest estimated backlog. The baseline: whatever
  skew the sharding creates, the nodes keep.
- ``affinity`` — least-loaded, but an owner whose queue tail already
  ends in the group's expert wins ties: extending a same-expert run
  avoids a future switch on that node.
- ``steal`` — ``least_loaded`` admission plus *runtime* rebalancing:
  when a node drains, it steals queued groups whose expert it hosts
  from the deepest queue; when nothing is stealable and online
  replication is on, it picks the hottest queued expert on the deepest
  node, replicates it locally (paying the DDR->HBM copy span on the sim
  clock via :meth:`ServingEngine.warm` — replication is *not* free),
  and then pulls that expert's queued groups over.

Under Zipf-skewed traffic the single-owner sharding of
:func:`repro.systems.cluster.partition_experts` leaves most nodes idle
while the hot expert's owner grinds through a long queue; online
replication plus stealing is what converts those idle replicas into
throughput, which is exactly the load-balancing machinery the paper says
a scale-out CoE deployment must carry.

Fault tolerance
---------------

A production-scale deployment also has to survive the unhealthy days.
Passing a :class:`repro.sim.faults.FaultSchedule` arms deterministic
faults on the shared clock:

- **Node crash** — the node fail-stops (:meth:`ServingEngine.halt`); a
  heartbeat sweep (period ``heartbeat_s``) detects the silence on its
  next beat and runs recovery: the dead node's in-flight and queued
  groups are drained and re-dispatched to surviving owners exactly once,
  and any expert whose *only* replica died is promoted onto a survivor,
  paying the DDR->HBM copy on the sim clock when orphaned work needs it.
- **Slow node** — a transient straggler window; every group *started*
  inside it runs ``multiplier``x slower (windows stack multiplicatively).
- **Copy fault** — the node's next demand DDR->HBM copies fail once
  each and retry, doubling those copies' DMA occupancy.

With a ``deadline_s``, admission (initial and at re-dispatch) becomes
deadline-aware: groups whose estimated finish would bust the deadline
are shed lowest-priority first and reported as ``rejected`` — degraded
service is explicit, never a silent loss. The outage and the rebalance
are first-class spans on each node's ``faults`` lane (``crash`` between
death and detection, ``recovery`` while copies land, ``slow`` windows),
and :class:`ClusterReport` derives availability, goodput, recovery time
and latency percentiles from the same record the trace exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro.coe.cache import CachePolicy, CachePolicyLike
from repro.coe.columnar import latency_values, token_total
from repro.coe.decisions import DecisionLog
from repro.coe.dispatch import AdmissionLedger, admission_eta
from repro.coe.engine import (
    DRAIN_EVENT_KIND,
    CompletedRequest,
    EngineReentryError,
    EngineRequest,
    ServingEngine,
    _run_drain_batch,
    zipf_request_stream,
)
from repro.coe.expert import ExpertLibrary, ExpertProfile
from repro.coe.metrics import summarize_latencies
from repro.coe.policies import ClusterPolicy, DrainMode, NodePolicy
from repro.coe.scheduling import (
    GroupPlan,
    RequestGroup,
    SchedulerLike,
    affinity_schedule,
    coalesce_groups,
    make_scheduler,
    plan_requests,
    reject_duplicate_ids,
)
from repro.obs import Timeline
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CopyFault,
    FaultInjector,
    FaultSchedule,
    NodeCrash,
    SlowNode,
)
from repro.systems.cluster import partition_experts

#: Legacy value-string tuple; :class:`repro.coe.policies.ClusterPolicy`
#: is the typed source of truth and coerces these (kept for back-compat).
CLUSTER_POLICIES = ClusterPolicy.values()

#: Per-node lane bases, in the order traces should display them.
NODE_LANES = ("compute", "switch", "prefetch", "faults")

#: What the constructor accepts as a fault schedule.
FaultsLike = Union[FaultSchedule, Iterable]


def cluster_lanes(num_nodes: int) -> List[str]:
    """The lane names a ``num_nodes`` cluster records, in display order."""
    return [
        f"node{idx}/{base}" for idx in range(num_nodes) for base in NODE_LANES
    ]


def _coerce_faults(faults: Optional[FaultsLike]) -> FaultSchedule:
    if faults is None:
        return FaultSchedule()
    if isinstance(faults, FaultSchedule):
        return faults
    items = tuple(faults)
    if all(isinstance(item, str) for item in items):
        return FaultSchedule.from_specs(items)
    return FaultSchedule(faults=items)


@dataclass
class _Node:
    """One cluster node: its engine plus the scheduler's bookkeeping."""

    index: int
    name: str
    engine: ServingEngine
    hosted: Set[str]
    steals_in: int = 0
    replicas_hosted: int = 0
    #: Fault-tolerance state: a crashed node flips ``alive`` at the
    #: fault instant and is *detected* on the next heartbeat.
    alive: bool = True
    crashed_at: Optional[float] = None
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None
    #: Groups this node lost to a crash that were re-dispatched.
    redispatched: int = 0
    #: Active straggler multipliers (windows stack multiplicatively).
    slow_stack: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class NodeSummary:
    """Per-node slice of a cluster run."""

    name: str
    requests: int
    groups: int
    output_tokens: int
    busy_s: float
    switch_s: float
    hidden_switch_s: float
    steals_in: int
    replicas_hosted: int
    tokens_per_second: float
    alive: bool = True
    crashed_at: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "requests": self.requests,
            "groups": self.groups,
            "output_tokens": self.output_tokens,
            "busy_s": self.busy_s,
            "switch_s": self.switch_s,
            "hidden_switch_s": self.hidden_switch_s,
            "steals_in": self.steals_in,
            "replicas_hosted": self.replicas_hosted,
            "tokens_per_second": self.tokens_per_second,
            "alive": self.alive,
            "crashed_at": self.crashed_at,
        }


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate result of one cluster run, timeline-derived."""

    policy: str
    node_policy: str
    cache_policy: str
    num_nodes: int
    requests: int
    groups: int
    output_tokens: int
    makespan_s: float
    steals: int
    replications: int
    events_run: int
    #: Admission-time scheduler the backlog went through (SchedulerName).
    scheduler: str = "fifo"
    #: Fault-tolerance outcome. ``rejected`` counts requests shed by
    #: deadline admission (never silently dropped), ``availability`` is
    #: alive node-time over total node-time, ``recovery_s`` the worst
    #: crash-to-recovered interval, and the percentiles cover completed
    #: request latency (queueing included).
    rejected: int = 0
    rejected_tokens: int = 0
    crashes: int = 0
    promotions: int = 0
    redispatched_groups: int = 0
    availability: float = 1.0
    recovery_s: float = 0.0
    p50_s: float = 0.0
    p99_s: float = 0.0
    fault_specs: Tuple[str, ...] = ()
    deadline_s: Optional[float] = None
    nodes: Tuple[NodeSummary, ...] = ()
    #: ``None`` when the run was traced with ``record_timeline=False``;
    #: excluded from equality so columnar and reference runs compare by
    #: their simulated metrics (lane dict order differs — compare lanes
    #: explicitly via :meth:`repro.obs.Timeline.spans` when needed).
    timeline: Optional[Timeline] = field(repr=False, compare=False, default=None)

    @property
    def tokens_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.output_tokens / self.makespan_s

    @property
    def goodput_tokens_per_second(self) -> float:
        """Throughput of *useful* work: shed tokens don't count."""
        if self.makespan_s <= 0:
            return 0.0
        return (self.output_tokens - self.rejected_tokens) / self.makespan_s

    @property
    def requests_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.requests / self.makespan_s

    @property
    def load_imbalance(self) -> float:
        """Busiest-to-average node compute-busy ratio (1.0 = perfect)."""
        times = [n.busy_s for n in self.nodes]
        mean = sum(times) / len(times) if times else 0.0
        if mean == 0.0:
            return 1.0
        return max(times) / mean

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "node_policy": self.node_policy,
            "cache_policy": self.cache_policy,
            "scheduler": self.scheduler,
            "num_nodes": self.num_nodes,
            "requests": self.requests,
            "groups": self.groups,
            "output_tokens": self.output_tokens,
            "makespan_s": self.makespan_s,
            "tokens_per_second": self.tokens_per_second,
            "goodput_tokens_per_second": self.goodput_tokens_per_second,
            "requests_per_second": self.requests_per_second,
            "load_imbalance": self.load_imbalance,
            "steals": self.steals,
            "replications": self.replications,
            "events_run": self.events_run,
            "rejected": self.rejected,
            "rejected_tokens": self.rejected_tokens,
            "crashes": self.crashes,
            "promotions": self.promotions,
            "redispatched_groups": self.redispatched_groups,
            "availability": self.availability,
            "recovery_s": self.recovery_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "faults": list(self.fault_specs),
            "deadline_s": self.deadline_s,
            "nodes": [n.to_dict() for n in self.nodes],
        }


class ClusterEngine:
    """Runs one :class:`ServingEngine` per node on a shared clock."""

    def __init__(
        self,
        platform_factory: Callable[[], object],
        library: ExpertLibrary,
        num_nodes: int,
        policy: Union[str, ClusterPolicy] = "steal",
        node_policy: Union[str, NodePolicy] = "overlap",
        max_batch: int = 8,
        window: int = 16,
        balanced: bool = True,
        online_replication: bool = True,
        replication_depth: int = 3,
        max_replicas: Optional[int] = None,
        faults: Optional[FaultsLike] = None,
        heartbeat_s: float = 0.05,
        deadline_s: Optional[float] = None,
        cache_policy: CachePolicyLike = None,
        record_timeline: bool = True,
        decision_log: Optional[DecisionLog] = None,
        drain_mode: Union[str, DrainMode] = DrainMode.COLUMNAR,
        scheduler: SchedulerLike = None,
        tier_capacities: Optional[Dict[str, int]] = None,
        pipeline_promotions: bool = False,
    ) -> None:
        self.policy = ClusterPolicy.coerce(policy).value
        self.node_policy = NodePolicy.coerce(node_policy).value
        #: Admission-time backlog reordering, applied once in
        #: :meth:`serve` before dispatch — cluster-global, so same-expert
        #: runs stay contiguous through per-node routing. Schedulers are
        #: stateless order functions, safe to share across nodes.
        self.scheduler = make_scheduler(scheduler)
        self.tier_capacities = tier_capacities
        if isinstance(cache_policy, CachePolicy) and num_nodes > 1:
            # A policy instance carries per-cache mutable state; sharing
            # one across nodes would corrupt every node's bookkeeping.
            # Pass a name or a zero-arg factory to get one per node.
            raise ValueError(
                "cache_policy must be a name or factory (not a CachePolicy "
                "instance) when num_nodes > 1: each node needs its own "
                "stateful policy object"
            )
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if replication_depth < 1:
            raise ValueError(
                f"replication_depth must be >= 1, got {replication_depth}"
            )
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.library = library
        self.max_batch = max_batch
        self.window = window
        self.online_replication = online_replication
        self.replication_depth = replication_depth
        self.max_replicas = num_nodes if max_replicas is None else max_replicas
        self.heartbeat_s = heartbeat_s
        self.deadline_s = deadline_s
        self.cache_policy_spec = cache_policy
        self.pipeline_promotions = bool(pipeline_promotions)
        self.record_timeline = record_timeline
        self.timeline: Optional[Timeline] = (
            Timeline() if record_timeline else None
        )
        self.sim = Simulator(timeline=self.timeline)
        self.sim.set_batch_handler(DRAIN_EVENT_KIND, _run_drain_batch)
        self.faults = _coerce_faults(faults)
        #: Requested drain mode (see :class:`DrainMode`).
        requested = DrainMode.coerce(drain_mode)
        #: Whole-queue drains are only equivalent when nothing can
        #: interleave with a node's queue mid-run: the steal policy's
        #: hooks and every fault path (crash/slow/copy-fault events land
        #: between a node's begin/finish events) force event-by-event.
        if self.policy == "steal" or self.faults:
            effective = DrainMode.REFERENCE
        else:
            effective = requested
        self.drain_mode = effective.value
        #: The request plane (:meth:`_admit_plan`) follows the
        #: *requested* mode, not the policy/fault-gated one: its array
        #: front end, bulk phase precompute and incremental admission
        #: backlog are bitwise-identical to the object path, so they stay
        #: on for steal/fault runs too. Only an explicitly requested
        #: reference configuration (the seed-equivalent one the
        #: equivalence tests and perf benchmarks compare against) keeps
        #: the object front end and fresh per-route backlog sums.
        self._fast_admission = requested is not DrainMode.REFERENCE
        #: Cross-check evidence: dispatch/admission verdicts land on the
        #: ``"admission"`` stream, each node runtime's cache decisions on
        #: its own ``"nodeN"`` stream (attached below).
        self._decisions = decision_log
        #: One-shot guard for :meth:`serve` (see EngineReentryError):
        #: node caches, ``_drained_until`` markers and the shared
        #: simulator's event count all survive a serve, so a second call
        #: would fold a prior run's makespan and events into its report.
        self._served = False
        self.steals = 0
        self.replications = 0
        self.promotions = 0
        self.redispatches = 0
        #: Requests shed by deadline admission (reported, never dropped).
        self.rejected: List[EngineRequest] = []
        self._injector: Optional[FaultInjector] = None
        self._crashes_pending = 0
        self._recovery_ends: List[float] = []

        shards = [
            s for s in partition_experts(library, num_nodes, balanced=balanced)
            if s
        ]
        self.nodes: List[_Node] = []
        #: Expert name -> indices of nodes hosting a replica.
        self._owners: Dict[str, List[int]] = {}
        for idx, shard in enumerate(shards):
            engine = ServingEngine(
                platform_factory(),
                ExpertLibrary(experts=list(shard)),
                policy=self.node_policy,
                max_batch=max_batch,
                window=window,
                simulator=self.sim,
                lane_prefix=f"node{idx}/",
                cache_policy=cache_policy,
                drain_mode=self.drain_mode,
                decision_log=decision_log,
                tier_capacities=tier_capacities,
                pipeline_promotions=pipeline_promotions,
            )
            node = _Node(
                index=idx,
                name=f"node{idx}",
                engine=engine,
                hosted={e.name for e in shard},
            )
            if self.policy == "steal":
                # Only the steal policy reacts to these hooks
                # (:meth:`_node_idle` is a no-op otherwise); leaving them
                # uninstalled lets the other policies' engines drain
                # whole queues.
                engine.on_idle = lambda _eng, n=node: self._node_idle(n)
                engine.on_group_done = (
                    lambda _eng, _group, n=node: self._node_idle(n)
                    if not n.engine.busy
                    else None
                )
            self.nodes.append(node)
            for expert in shard:
                self._owners.setdefault(expert.name, []).append(idx)

        #: Admission state and the ``admission`` stream's only writer.
        self._ledger = AdmissionLedger(
            [n.name for n in self.nodes], self._owners,
            affinity=self.policy == "affinity", deadline_s=deadline_s,
            decisions=decision_log,
        )
        #: The real queues' routing state, for :meth:`_route`.
        self._queue_backlog = (
            lambda i: self.nodes[i].engine.estimated_backlog_s())
        self._queue_tail = lambda i: self.nodes[i].engine.last_queued_expert

        self.faults.validate_for(len(self.nodes))
        self._crashes_pending = len(self.faults.crashes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Admission routing
    # ------------------------------------------------------------------
    def _owner_nodes(self, expert: ExpertProfile) -> List[_Node]:
        try:
            return [self.nodes[i] for i in self._owners[expert.name]]
        except KeyError:
            raise KeyError(f"no node hosts expert {expert.name!r}") from None

    def _route(self, group: RequestGroup) -> _Node:
        """Pick the owner node on the real queues' backlogs and tails.

        The decision math lives in :mod:`repro.coe.dispatch`, shared
        with column admission and the live dispatcher.
        """
        return self.nodes[self._ledger.route(
            group.expert.name, self._queue_backlog, self._queue_tail)]

    def _dispatch(self, group: RequestGroup, now: float) -> bool:
        """Route + submit one group; returns False when it was shed.

        With a ``deadline_s``, a group whose estimated completion (queue
        backlog plus its own execution) would bust the deadline is shed
        instead of submitted: its requests land in :attr:`rejected`.
        Callers feed groups highest-priority first so degradation sheds
        the lowest priorities.
        """
        node = self._route(group)
        ledger = self._ledger
        label = (
            f"{group.expert.name}x{group.batch}"
            if self._decisions is not None else ""
        )
        if self.deadline_s is not None:
            eta = admission_eta(now, node.engine.estimated_backlog_s(),
                                node.engine._group_exec_time(group))
            if not ledger.verdict(node.index, label, eta):
                self.rejected.extend(group.requests)
                return False
        ledger.dispatched(node.index, label)
        node.engine.submit(group)
        return True

    def _admit_plan(self, plan: GroupPlan) -> None:
        """Admission over the request plane's group columns.

        Makes :meth:`_dispatch`'s decisions over every planned group, in
        the same order, without building a group object: routing is one
        lookup table while every expert has a single owner; deadline
        admission, multi-owner routing and decision recording take the
        scalar loop (:meth:`_admit_scalar`). Each node then gets its
        admitted groups in one :meth:`ServingEngine.submit_plan`, nodes
        in order of their first admitted group — the order their first
        ``submit`` would have scheduled their drains.
        """
        experts = plan.batch.experts
        order = (plan.priority_order() if self.deadline_s is not None
                 else np.arange(len(plan)))
        codes = plan.codes[order]
        owners = [self._owners.get(e.name, ()) for e in experts]
        unhosted = [c for c, o in enumerate(owners) if not o]
        if unhosted:
            hit = np.isin(codes, unhosted)
            if hit.any():
                name = experts[codes[np.argmax(hit)]].name
                raise KeyError(f"no node hosts expert {name!r}")
        # Seed every node's phase memo with one vectorized batch over
        # the shapes it could be routed (the experts it hosts).
        for node in self.nodes:
            hosted = node.hosted
            node.engine.precompute_phases(
                [s for s in plan.shapes if s.phase_key[0] in hosted]
            )
        if (self.deadline_s is None and self._decisions is None
                and all(len(o) <= 1 for o in owners)):
            owner = np.array([o[0] if o else -1 for o in owners])
            dest = owner[codes]
        else:
            dest = self._admit_scalar(plan, order)
        handoff = []
        for node in self.nodes:
            mine = np.flatnonzero(dest == node.index)
            if len(mine):
                handoff.append((int(mine[0]), node, order[mine]))
        for _, node, index in sorted(handoff, key=lambda h: h[0]):
            node.engine.submit_plan(plan, index)

    def _admit_scalar(self, plan: GroupPlan, order: np.ndarray) -> np.ndarray:
        """:meth:`_dispatch` over group columns, in admission ``order``.

        The :class:`AdmissionLedger` keeps each node's admission backlog
        — the running sum of its admitted groups' execution times, the
        same floats as :meth:`ServingEngine.estimated_backlog_s`, whose
        queued-work memo ``submit`` extends by the same ``+=`` while the
        queue only grows — and its tail, the last admitted expert.
        Returns each admitted group's node index, -1 where the deadline
        shed it.
        """
        names = [e.name for e in plan.batch.experts]
        keys = [s.phase_key for s in plan.shapes]
        ledger = self._ledger
        dest = np.full(len(order), -1, dtype=np.int64)
        for j, (code, size, shape) in enumerate(zip(
            plan.codes[order].tolist(), plan.sizes[order].tolist(),
            plan.shape_of[order].tolist(),
        )):
            name = names[code]
            k = ledger.route(name)
            # _group_exec_time at admission (slow factor 1.0), from the
            # node's seeded phase memo.
            router, prefill, decode = (
                self.nodes[k].engine._phase_cache[keys[shape]])
            if ledger.admit(k, name, size, router + prefill + decode):
                dest[j] = k
            else:
                self.rejected.extend(plan.requests_of(int(order[j])))
        return dest

    @staticmethod
    def _priority_order(groups: Sequence[RequestGroup]) -> List[RequestGroup]:
        """Highest priority first, original order within a priority."""
        indexed = list(enumerate(groups))
        indexed.sort(key=lambda pair: (
            -max((r.priority for r in pair[1].requests), default=0), pair[0]
        ))
        return [g for _, g in indexed]

    # ------------------------------------------------------------------
    # Runtime rebalancing (the ``steal`` policy)
    # ------------------------------------------------------------------
    def _node_idle(self, node: _Node) -> None:
        if self.policy != "steal" or not node.alive:
            return
        if node.engine.queue_depth > 0:
            return
        if self._steal_into(node):
            return
        if self.online_replication:
            self._replicate_into(node)

    def _steal_into(self, node: _Node) -> bool:
        """Pull one queued group this node can serve off the deepest queue."""
        hosted = node.hosted
        victims = sorted(
            (v for v in self.nodes
             if v is not node and v.alive and v.engine.queue_depth >= 2),
            key=lambda v: -v.engine.estimated_backlog_s(),
        )
        for victim in victims:
            group = victim.engine.steal(lambda e: e.name in hosted)
            if group is not None:
                self.steals += 1
                node.steals_in += 1
                node.engine.submit(group)
                return True
        return False

    def _replicate_into(self, node: _Node) -> bool:
        """Replicate the hottest queued expert of the deepest node here.

        The replica's DDR->HBM copy is paid on the simulator clock via
        :meth:`ServingEngine.warm` — replication is never free — and the
        victim's queued groups of that expert then move to this node.
        """
        victims = sorted(
            (
                v for v in self.nodes
                if v is not node and v.alive
                and v.engine.queue_depth >= self.replication_depth
            ),
            key=lambda v: -v.engine.estimated_backlog_s(),
        )
        for victim in victims:
            counts = victim.engine.queued_expert_counts()
            candidates = sorted(
                (
                    name for name, count in counts.items()
                    if count >= 2
                    and name not in node.hosted
                    and len(self._owners.get(name, ())) < self.max_replicas
                ),
                key=lambda name: (-counts[name], name),
            )
            for name in candidates:
                expert = self.library[name]
                node.engine.host(expert)
                node.hosted.add(name)
                node.replicas_hosted += 1
                self._owners.setdefault(name, []).append(node.index)
                self.replications += 1
                node.engine.warm(expert)
                # Move roughly half the victim's queued groups of this
                # expert; the owner keeps the rest so both replicas work.
                move = max(1, counts[name] // 2)
                for _ in range(move):
                    group = victim.engine.steal(lambda e: e.name == name)
                    if group is None:
                        break
                    self.steals += 1
                    node.steals_in += 1
                    node.engine.submit(group)
                return True
        return False

    # ------------------------------------------------------------------
    # Fault handling (driven by the FaultInjector on the shared clock)
    # ------------------------------------------------------------------
    def _record_fault_span(
        self,
        node: _Node,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record on the node's ``faults`` lane, clipped against what is
        already there (a crash inside a straggler window, stacked slow
        windows) so the lane's non-overlap invariant always holds."""
        if end_s < start_s or self.timeline is None:
            return
        lane = f"{node.name}/faults"
        pieces = [(start_s, end_s)]
        for span in self.timeline.spans(lane):
            clipped: List[Tuple[float, float]] = []
            for a, b in pieces:
                if b <= span.start_s or a >= span.end_s:
                    clipped.append((a, b))
                    continue
                if a < span.start_s:
                    clipped.append((a, span.start_s))
                if b > span.end_s:
                    clipped.append((span.end_s, b))
            pieces = clipped
        for a, b in pieces:
            self.sim.record_span(
                name, lane, category, start_s=a, end_s=b, args=args
            )

    def _on_crash(self, fault: NodeCrash) -> None:
        self._crashes_pending -= 1
        node = self.nodes[fault.node]
        if not node.alive:
            return
        node.alive = False
        node.crashed_at = self.sim.now
        node.engine.halt()

    def _on_slow_start(self, fault: SlowNode) -> None:
        node = self.nodes[fault.node]
        if not node.alive:
            return
        node.slow_stack.append(fault.multiplier)
        factor = 1.0
        for m in node.slow_stack:
            factor *= m
        node.engine.slow_factor = factor

    def _on_slow_end(self, fault: SlowNode) -> None:
        node = self.nodes[fault.node]
        if node.alive and fault.multiplier in node.slow_stack:
            node.slow_stack.remove(fault.multiplier)
            factor = 1.0
            for m in node.slow_stack:
                factor *= m
            node.engine.slow_factor = factor
        end = fault.end_s
        if node.crashed_at is not None:
            end = min(end, node.crashed_at)
        self._record_fault_span(
            node, f"slow:{fault.multiplier:g}x", "slow", fault.at_s, end,
            args={"multiplier": fault.multiplier},
        )

    def _on_copy_fault(self, fault: CopyFault) -> None:
        node = self.nodes[fault.node]
        if node.alive:
            node.engine.inject_copy_faults(fault.count)

    def _heartbeat(self) -> None:
        """Periodic liveness sweep: a dead node is noticed on the first
        beat after its crash, bounding detection latency by the period."""
        now = self.sim.now
        for node in self.nodes:
            if not node.alive and node.detected_at is None:
                node.detected_at = now
                self._recover(node, now)
        if self._crashes_pending > 0 or any(
            not n.alive and n.detected_at is None for n in self.nodes
        ):
            self.sim.schedule_at(now + self.heartbeat_s, self._heartbeat)

    def _recover(self, node: _Node, now: float) -> None:
        """React to a detected crash: promote orphaned experts, then
        re-dispatch the dead node's unfinished groups exactly once."""
        self._record_fault_span(
            node, f"crash:{node.name}", "fault",
            node.crashed_at if node.crashed_at is not None else now, now,
            args={"detected_s": now, "reason": "heartbeat timeout"},
        )
        drained = node.engine.drain()
        for owners in self._owners.values():
            if node.index in owners:
                owners.remove(node.index)
        alive = [n for n in self.nodes if n.alive]
        if not alive:
            raise RuntimeError("no surviving node to recover onto")
        # Promote every expert whose only replica died; pay the DDR->HBM
        # copy now only when orphaned work actually needs the expert —
        # the rest land lazily (copy on first demand).
        orphaned = sorted(
            name for name, owners in self._owners.items() if not owners
        )
        needed = {g.expert.name for g in drained}
        placed: Dict[int, int] = {n.index: 0 for n in alive}
        copy_ends: List[float] = []
        for name in orphaned:
            expert = self.library[name]
            target = min(alive, key=lambda n: (
                n.engine.estimated_backlog_s(), placed[n.index], n.index
            ))
            placed[target.index] += 1
            target.engine.host(expert)
            target.hosted.add(name)
            target.replicas_hosted += 1
            self._owners[name].append(target.index)
            self.promotions += 1
            if name in needed:
                done = target.engine.warm(expert)
                if done is not None:
                    copy_ends.append(done)
        # Exactly-once re-dispatch: the halted engine completed none of
        # these and can never finish them; survivors get each group once,
        # highest priority first so any deadline shedding degrades
        # gracefully from the bottom.
        shed_before = len(self.rejected)
        for group in self._priority_order(drained):
            if self._dispatch(group, now):
                node.redispatched += 1
                self.redispatches += 1
        recovery_end = max(copy_ends, default=now)
        node.recovered_at = recovery_end
        self._recovery_ends.append(recovery_end)
        self._record_fault_span(
            node, f"recovery:{node.name}", "recovery", now, recovery_end,
            args={
                "redispatched": node.redispatched,
                "shed": len(self.rejected) - shed_before,
                "promoted": len(orphaned),
            },
        )

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[EngineRequest]) -> ClusterReport:
        """Drain the whole backlog across the cluster; one shared clock.

        Single-use, like :meth:`ServingEngine.run`: a second call raises
        :class:`EngineReentryError` — node cache/predictor state, each
        engine's ``_drained_until`` and the shared simulator's event
        count persist, so a reused cluster would leak a prior run's
        makespan into ``max(sim.run(), drained_until)`` and double-count
        events. Construct a fresh :class:`ClusterEngine` per run.
        """
        if self._served:
            raise EngineReentryError(
                "this ClusterEngine already served a backlog; node caches, "
                "drained-until markers and the shared simulator's event "
                "count persist — construct a fresh ClusterEngine per run"
            )
        if not requests:
            raise ValueError("empty request backlog")
        reject_duplicate_ids(requests)
        # Set only once the backlog is valid: a rejected one touched no
        # state, so the cluster may still serve a valid one.
        self._served = True
        if self.faults:
            self._injector = FaultInjector(
                self.sim,
                self.faults,
                on_crash=self._on_crash,
                on_slow_start=self._on_slow_start,
                on_slow_end=self._on_slow_end,
                on_copy_fault=self._on_copy_fault,
            )
            if self.faults.crashes:
                self.sim.schedule_at(self.heartbeat_s, self._heartbeat)
        if self._fast_admission:
            plan = plan_requests(requests, self.scheduler, self.node_policy,
                                 self.window, self.max_batch)
            self._admit_plan(plan)
            num_groups = len(plan)
            output_tokens = plan.batch.output_total()
        else:
            # The object front end: the oracle the request plane is held
            # to, byte for byte.
            admitted = self.scheduler.order(requests)
            if self.node_policy == "fifo":
                ordered = list(admitted)
            else:
                ordered = affinity_schedule(admitted, window=self.window)
            groups = coalesce_groups(ordered, self.max_batch)
            admit = (self._priority_order(groups)
                     if self.deadline_s is not None else groups)
            for group in admit:
                self._dispatch(group, now=0.0)
            num_groups = len(groups)
            output_tokens = sum(r.output_tokens for r in requests)
        end_clock = self.sim.run()
        # Whole-queue drains finish their work on local clocks past the last
        # shared-clock event; the cluster end is the latest of both.
        end_clock = max(
            [end_clock] + [n.engine._drained_until for n in self.nodes]
        )
        for node in self.nodes:
            if not node.engine.halted:
                node.engine.flush_speculation(end_clock)
        completed = sum(len(n.engine.completed) for n in self.nodes)
        if completed + len(self.rejected) != len(requests):
            raise RuntimeError(
                f"cluster lost requests: {completed} completed + "
                f"{len(self.rejected)} rejected "
                f"of {len(requests)} submitted"
            )
        if self.faults:
            # The raw clock runs to the last scheduled fault event even
            # when traffic drained earlier; the makespan is when *work*
            # (completions, recovery copies) actually ended.
            work_end = max(
                (c.finish_s for n in self.nodes for c in n.engine.completed),
                default=0.0,
            )
            makespan = max([work_end] + self._recovery_ends)
        else:
            makespan = end_clock
        # Columnar nodes aggregate straight off their completion
        # columns; list-backed nodes take the scalar path. The summary
        # sorts the pooled sample once for both quantiles.
        latencies: List[float] = []
        for n in self.nodes:
            latencies.extend(latency_values(n.engine.completed))
        latency_summary = summarize_latencies(latencies)
        crashed = [n for n in self.nodes if not n.alive]
        alive_time = sum(
            min(n.crashed_at, makespan) if n.crashed_at is not None
            else makespan
            for n in self.nodes
        )
        total_time = len(self.nodes) * makespan
        recovery_s = max(
            (
                (n.recovered_at if n.recovered_at is not None else makespan)
                - n.crashed_at
                for n in crashed
            ),
            default=0.0,
        )
        summaries = []
        for node in self.nodes:
            tokens = token_total(node.engine.completed)
            summaries.append(
                NodeSummary(
                    name=node.name,
                    requests=len(node.engine.completed),
                    groups=node.engine.groups_done,
                    output_tokens=tokens,
                    busy_s=(
                        self.timeline.busy_s(node.engine.lane("compute"))
                        if self.timeline is not None else 0.0
                    ),
                    switch_s=(
                        self.timeline.busy_s(node.engine.lane("switch"))
                        if self.timeline is not None else 0.0
                    ),
                    hidden_switch_s=(
                        self.timeline.overlap_s(
                            node.engine.lane("switch"),
                            node.engine.lane("compute"),
                        ) if self.timeline is not None else 0.0
                    ),
                    steals_in=node.steals_in,
                    replicas_hosted=node.replicas_hosted,
                    tokens_per_second=(
                        tokens / makespan if makespan > 0 else 0.0
                    ),
                    alive=node.alive,
                    crashed_at=node.crashed_at,
                )
            )
        return ClusterReport(
            policy=self.policy,
            node_policy=self.node_policy,
            cache_policy=self.nodes[0].engine.cache_policy,
            scheduler=self.scheduler.name,
            num_nodes=self.num_nodes,
            requests=len(requests),
            groups=num_groups,
            output_tokens=output_tokens,
            makespan_s=makespan,
            steals=self.steals,
            replications=self.replications,
            events_run=self.sim.events_run,
            rejected=len(self.rejected),
            rejected_tokens=sum(r.output_tokens for r in self.rejected),
            crashes=len(crashed),
            promotions=self.promotions,
            redispatched_groups=self.redispatches,
            availability=(alive_time / total_time if total_time > 0 else 1.0),
            recovery_s=recovery_s,
            p50_s=latency_summary.p50_s,
            p99_s=latency_summary.p99_s,
            fault_specs=tuple(self.faults.specs()),
            deadline_s=self.deadline_s,
            nodes=tuple(summaries),
            timeline=self.timeline,
        )

    def completed_requests(self) -> List[CompletedRequest]:
        """All completions across nodes, in finish order."""
        out: List[CompletedRequest] = []
        for node in self.nodes:
            out.extend(node.engine.completed)
        out.sort(key=lambda c: (c.finish_s, c.request_id))
        return out


# ----------------------------------------------------------------------
# Convenience drivers
# ----------------------------------------------------------------------
def run_cluster(
    platform_factory: Callable[[], object],
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
    num_nodes: int,
    policy: Union[str, ClusterPolicy] = "steal",
    node_policy: Union[str, NodePolicy] = "overlap",
    max_batch: int = 8,
    window: int = 16,
    online_replication: bool = True,
    faults: Optional[FaultsLike] = None,
    heartbeat_s: float = 0.05,
    deadline_s: Optional[float] = None,
    cache_policy: CachePolicyLike = None,
    record_timeline: bool = True,
    drain_mode: Union[str, DrainMode] = DrainMode.COLUMNAR,
    scheduler: SchedulerLike = None,
    tier_capacities: Optional[Dict[str, int]] = None,
    pipeline_promotions: bool = False,
) -> ClusterReport:
    """One cluster run over a fresh engine (fresh timeline, fresh clock)."""
    engine = ClusterEngine(
        platform_factory,
        library,
        num_nodes,
        policy=policy,
        node_policy=node_policy,
        max_batch=max_batch,
        window=window,
        online_replication=online_replication,
        faults=faults,
        heartbeat_s=heartbeat_s,
        deadline_s=deadline_s,
        cache_policy=cache_policy,
        record_timeline=record_timeline,
        drain_mode=drain_mode,
        scheduler=scheduler,
        tier_capacities=tier_capacities,
        pipeline_promotions=pipeline_promotions,
    )
    return engine.serve(requests)


def scaling_sweep(
    platform_factory: Callable[[], object],
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
    node_counts: Sequence[int] = (1, 2, 4, 8),
    policy: Union[str, ClusterPolicy] = "steal",
    node_policy: Union[str, NodePolicy] = "overlap",
    max_batch: int = 8,
    online_replication: bool = True,
) -> Dict[int, ClusterReport]:
    """The scaling curve: the same backlog at each node count."""
    reports: Dict[int, ClusterReport] = {}
    for n in node_counts:
        reports[n] = run_cluster(
            platform_factory,
            library,
            requests,
            num_nodes=n,
            policy=policy,
            node_policy=node_policy,
            max_batch=max_batch,
            online_replication=online_replication,
        )
    return reports


__all__ = [
    "CLUSTER_POLICIES",
    "NODE_LANES",
    "ClusterEngine",
    "ClusterReport",
    "NodeSummary",
    "cluster_lanes",
    "run_cluster",
    "scaling_sweep",
    "zipf_request_stream",
]
