"""The benchmark's four CoE serving workloads.

Each workload builds its inputs from the seed alone, runs one repeat of
the serving pipeline per :meth:`repeat` call, and keeps an oracle for
the correctness gate in :meth:`check_oracle`. Why each workload exists
is written down in ``perfbench/README.md``.

One repeat is timed in two parts. ``setup_s`` covers the library
build, platform and engine construction. ``host_s`` covers the rest of
the pipeline: request generation, then the engine's serve call, then
the report. Conservation checks run after ``host_s`` stops.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.coe.api import ServeConfig
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.columnar import token_total
from repro.coe.crosscheck import cross_check
from repro.coe.engine import zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.coe.metrics import percentile
from repro.load import ArrivalSpec, generate_trace
from repro.systems.cluster import partition_experts
from repro.systems.platforms import clear_cost_caches, sn40l_platform

#: Samba-CoE scale: 150 experts (the paper's composition) on 8 nodes.
NUM_EXPERTS = 150
NUM_NODES = 8
ZIPF_ALPHA = 1.1
PROMPT_TOKENS = 256
OUTPUT_TOKENS = 20
#: Requests replayed through the reference drain by the oracle check.
ORACLE_PREFIX = 2_000


class CheckFailed(AssertionError):
    """A repeat's outputs broke an invariant the benchmark checks."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _null_span(name: str):
    return contextlib.nullcontext()


@dataclasses.dataclass
class Repeat:
    """Timings, model metrics and handles of one pipeline repeat."""

    setup_s: float
    host_s: float
    requests: int
    completed: int
    #: Model metrics, identical on every repeat of a sim workload.
    model: Dict[str, float]
    digest: str
    #: Kept only for per-layer metrics of traced repeats.
    engine: object = None
    report: object = None


def _digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def node_busy_imbalance(node_completions: List[list]) -> float:
    """Busiest over mean per-node busy time, from completion records.

    Requests of one group share its (start, finish) pair and a node runs
    one group at a time, so the distinct pairs are the node's groups.
    """
    busy = []
    for records in node_completions:
        groups = {(c.start_s, c.finish_s) for c in records}
        busy.append(sum(end - start for start, end in groups))
    mean = sum(busy) / len(busy)
    return max(busy) / mean if mean > 0 else 0.0


# ----------------------------------------------------------------------
# Simulated cluster workloads
# ----------------------------------------------------------------------
class SimWorkload:
    """An 8-node ClusterEngine run over a backlog queued at t=0."""

    kind = "sim"
    min_repeats = 3

    def __init__(self, name: str, requests: int, cluster: dict,
                 varied_lengths: bool = False,
                 capacity_fracs: Optional[Dict[str, float]] = None) -> None:
        self.name = name
        self.num_requests = requests
        self.cluster = cluster
        self.varied_lengths = varied_lengths
        self.capacity_fracs = capacity_fracs

    def _capacities(self, library) -> Optional[Dict[str, int]]:
        """Tier budgets as fractions of the mean per-node working set.

        DDR is floored at the HBM budget because the hierarchy is
        inclusive, and HBM at the largest expert so every expert fits.
        """
        if self.capacity_fracs is None:
            return None
        shards = [s for s in partition_experts(library, NUM_NODES) if s]
        working_set = sum(
            e.weight_bytes for s in shards for e in s) / len(shards)
        biggest = max(e.weight_bytes for e in library.experts)
        hbm = max(int(self.capacity_fracs["hbm"] * working_set), biggest)
        ddr = max(int(self.capacity_fracs["ddr"] * working_set), hbm)
        return {"hbm": hbm, "ddr": ddr}

    def setup(self, **overrides):
        library = build_samba_coe_library(NUM_EXPERTS)
        kwargs = dict(self.cluster, record_timeline=False)
        kwargs["tier_capacities"] = self._capacities(library)
        kwargs.update(overrides)
        return library, ClusterEngine(sn40l_platform, library, NUM_NODES,
                                      **kwargs)

    def generate(self, library, seed: int, count: Optional[int] = None):
        requests = zipf_request_stream(
            library, count or self.num_requests, alpha=ZIPF_ALPHA,
            seed=seed, prompt_tokens=PROMPT_TOKENS,
            output_tokens=OUTPUT_TOKENS,
        )
        if self.varied_lengths:
            # Per-request shapes, so groups rarely share a phase-memo key.
            rng = random.Random(seed ^ 0x5EED)
            requests = [
                dataclasses.replace(
                    r, prompt_tokens=rng.randint(64, 512),
                    output_tokens=rng.randint(8, 40),
                )
                for r in requests
            ]
        return requests

    def repeat(self, seed: int, span: Callable = _null_span,
               keep: bool = False) -> Repeat:
        clear_cost_caches()
        t0 = perf_counter()
        with span("setup"):
            library, engine = self.setup()
        t1 = perf_counter()
        with span("pipeline"):
            with span("generate"):
                requests = self.generate(library, seed)
            report = engine.serve(requests)
            with span("metrics.report"):
                summary = report.to_dict()
        t2 = perf_counter()
        completed = self._conserve(engine, report, requests)
        model = {
            "model_goodput_tokens_per_s": report.goodput_tokens_per_second,
            "model_latency_p50_s": report.p50_s,
            "model_latency_p99_s": report.p99_s,
            "served_frac": completed / len(requests),
        }
        return Repeat(
            setup_s=t1 - t0, host_s=t2 - t1, requests=len(requests),
            completed=completed, model=model, digest=_digest(summary),
            engine=engine if keep else None, report=report if keep else None,
        )

    @staticmethod
    def _conserve(engine, report, requests):
        """Every request completes or is shed, once; tokens are kept.

        Returns the number of completed requests.
        """
        done_ids = [c.request_id for n in engine.nodes
                    for c in n.engine.completed]
        shed_ids = [r.request_id for r in engine.rejected]
        completed = len(done_ids)
        lost = len(requests) - completed - len(shed_ids)
        _require(lost == 0, f"{lost} requests neither completed nor shed")
        _require(
            sorted(done_ids + shed_ids) == [r.request_id for r in requests],
            "a request completed or was shed more than once",
        )
        tokens = sum(token_total(n.engine.completed) for n in engine.nodes)
        _require(
            tokens + report.rejected_tokens
            == sum(r.output_tokens for r in requests),
            "output tokens are not conserved",
        )
        _require(report.requests == len(requests) and report.rejected
                 == len(shed_ids), "report counts disagree with records")
        return completed

    def check_oracle(self, seed: int) -> str:
        """Replay a seeded prefix through the reference drain.

        The default configuration and ``drain_mode="reference"`` must
        produce the same report and the same completion records.
        Returns a line describing what was checked.
        """
        clear_cost_caches()
        library, fast = self.setup()
        prefix = self.generate(library, seed, ORACLE_PREFIX)
        fast_report = fast.serve(prefix)
        clear_cost_caches()
        library, ref = self.setup(drain_mode="reference")
        ref_report = ref.serve(self.generate(library, seed, ORACLE_PREFIX))
        _require(fast_report.to_dict() == ref_report.to_dict(),
                 "report differs from the reference drain")
        _require(fast.completed_requests() == ref.completed_requests(),
                 "completion records differ from the reference drain")
        return f"reference drain matches on {len(prefix)} requests"

    def layer_counts(self, rep: Repeat) -> Dict[str, float]:
        """Per-layer figures the program reports itself."""
        engine, report = rep.engine, rep.report
        stats = [n.engine.server.runtime.stats for n in engine.nodes]
        return {
            **_runtime_counts(stats),
            "cluster_engine.steals": report.steals,
            "cluster_engine.replications": report.replications,
            "cluster_engine.redispatched_groups": report.redispatched_groups,
            "cluster_engine.shed": report.rejected,
            "cluster_engine.load_imbalance": node_busy_imbalance(
                [n.engine.completed for n in engine.nodes]),
            "cluster_engine.report_load_imbalance": report.load_imbalance,
            "sim.events_run": report.events_run,
            "engine.speculative_prefetches": sum(
                n.engine.speculative_prefetches for n in engine.nodes),
            "faults.availability": report.availability,
            "faults.recovery_s": report.recovery_s,
        }


def _runtime_counts(stats) -> Dict[str, float]:
    requests = sum(s.requests for s in stats)
    hits = sum(s.hits for s in stats)
    return {
        "runtime.demand_hit_rate": hits / requests if requests else 0.0,
        "runtime.misses": requests - hits,
        "runtime.evictions": sum(s.evictions for s in stats),
        "runtime.switch_time_s": sum(s.switch_time_s for s in stats),
        "runtime.copy_failures": sum(s.failures for s in stats),
        "hierarchy.tier_promotions": sum(s.tier_promotions for s in stats),
        "hierarchy.tier_demotions": sum(s.tier_demotions for s in stats),
        "hierarchy.nvme_bytes_read": sum(s.nvme_bytes_read for s in stats),
        "hierarchy.nvme_bytes_written": sum(
            s.nvme_bytes_written for s in stats),
        "hierarchy.pipelined_promotions": sum(
            s.pipelined_promotions for s in stats),
        "hierarchy.tier_overruns": sum(s.tier_overruns for s in stats),
    }


# ----------------------------------------------------------------------
# Live wall-clock workload
# ----------------------------------------------------------------------
LIVE_EXPERTS = 24
LIVE_NODES = 4
LIVE_TIME_SCALE = 0.1
LIVE_CROSSCHECK_PREFIX = 400


class LiveWorkload:
    """LiveEngine serving an open-loop bursty trace on the wall clock."""

    kind = "live"
    #: One trace fills a run: sampling noise in a bursty open loop
    #: shrinks only with trace length, not with replays of one trace.
    min_repeats = 1

    def __init__(self, name: str, rate_rps: float, duration_s: float,
                 deadline_s: float) -> None:
        self.name = name
        self.rate_rps = rate_rps
        self.duration_s = duration_s
        self.config = ServeConfig(
            policy="affinity", cluster_policy="least_loaded",
            num_nodes=LIVE_NODES, mode="live", time_scale=LIVE_TIME_SCALE,
            deadline_s=deadline_s,
        )

    def generate(self, library, seed: int):
        spec = ArrivalSpec(
            process="bursty", rate_rps=self.rate_rps,
            duration_s=self.duration_s, seed=seed, zipf_alpha=ZIPF_ALPHA,
            prompt_tokens=PROMPT_TOKENS, output_tokens=OUTPUT_TOKENS,
            # Short calm/burst holding times give many bursts per trace,
            # so the tail is not set by one lucky or unlucky burst.
            burst_rate_ratio=3.0, burst_len_s=0.05, calm_len_s=0.25,
        )
        return generate_trace(spec, library).to_requests(library)

    def setup(self):
        """Library and engine, plus the first-token time of each request."""
        first_token: Dict[int, float] = {}

        def on_token(event) -> None:
            if event.index == 0:
                first_token[event.request_id] = event.time_s

        library = build_samba_coe_library(LIVE_EXPERTS)
        engine = LiveEngine(sn40l_platform, library, self.config,
                            token_callback=on_token)
        return library, engine, first_token

    def repeat(self, seed: int, span: Callable = _null_span,
               keep: bool = False) -> Repeat:
        clear_cost_caches()
        t0 = perf_counter()
        with span("setup"):
            library, engine, first_token = self.setup()
        t1 = perf_counter()
        with span("pipeline"):
            with span("generate"):
                requests = self.generate(library, seed)
            with span("live_engine.serve"):
                report = engine.serve(requests)
            with span("metrics.report"):
                summary = report.to_dict()
        t2 = perf_counter()
        _require(report.drained, "live engine hit its drain timeout")
        lost = len(requests) - report.completed_requests - report.shed_requests
        _require(lost == 0, f"{lost} requests neither completed nor shed")
        _require(report.tokens_streamed == report.output_tokens,
                 "streamed tokens differ from completed output tokens")
        _require(len(first_token) == report.completed_requests,
                 "a completed request streamed no first token")
        arrivals = {r.request_id: r.arrival_s for r in requests}
        ttft = sorted(t - arrivals[i] for i, t in first_token.items())
        model = {
            "model_goodput_tokens_per_s": report.goodput_tokens_per_second,
            "model_latency_p50_s": report.p50_s,
            "model_latency_p99_s": report.p99_s,
            "served_frac": report.completed_requests / len(requests),
            "live_engine.ttft_p50_s": percentile(ttft, 50),
            "live_engine.ttft_p99_s": percentile(ttft, 99),
        }
        return Repeat(
            setup_s=t1 - t0, host_s=t2 - t1, requests=len(requests),
            completed=report.completed_requests, model=model,
            digest="", engine=engine if keep else None,
            report=report if keep else None,
        )

    def check_oracle(self, seed: int) -> str:
        """Sim and live must decide identically on a trace prefix.

        Returns a line naming the decisions compared and the digest of
        the sim report, which repeats exactly for a seed.
        """
        clear_cost_caches()
        library = build_samba_coe_library(LIVE_EXPERTS)
        prefix = self.generate(library, seed)[:LIVE_CROSSCHECK_PREFIX]
        result = cross_check(sn40l_platform, library, prefix, self.config)
        _require(result.match, f"sim/live decisions differ: {result.mismatch}")
        return (f"sim/live cross-check matches on {result.decisions} "
                f"decisions; sim report digest "
                f"{_digest(result.sim_report.to_dict())}")

    def layer_counts(self, rep: Repeat) -> Dict[str, float]:
        engine, report = rep.engine, rep.report
        stats = [n.server.runtime.stats for n in engine.nodes]
        groups = sum(n.groups_done for n in engine.nodes)
        return {
            **_runtime_counts(stats),
            "scheduling.groups": groups,
            "scheduling.mean_batch": report.completed_requests / groups,
            "cluster_engine.shed": report.shed_requests,
            "cluster_engine.load_imbalance": node_busy_imbalance(
                [n.completed for n in engine.nodes]),
            "live_engine.shed_deadline": report.shed_deadline,
            "live_engine.shed_backpressure": report.shed_backpressure,
            "live_engine.drained": int(report.drained),
            "live_engine.demand_hit_rate": report.demand_hit_rate,
            "live_engine.ttft_p50_s": rep.model["live_engine.ttft_p50_s"],
            "live_engine.ttft_p99_s": rep.model["live_engine.ttft_p99_s"],
        }


WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            "offline_zipf_cluster", 100_000,
            dict(policy="affinity", node_policy="affinity"),
        ),
        SimWorkload(
            "memwall_tiered", 60_000,
            dict(policy="affinity", node_policy="affinity",
                 cache_policy="lookahead", scheduler="expert_reorder",
                 pipeline_promotions=True),
            capacity_fracs={"hbm": 0.5, "ddr": 0.35},
        ),
        SimWorkload(
            "steal_faults_deadline", 10_000,
            dict(policy="steal", node_policy="overlap",
                 faults=["crash:1:5.0", "crash:5:12.0"], deadline_s=27.0),
            varied_lengths=True,
        ),
        LiveWorkload("live_bursty", rate_rps=70.0, duration_s=250.0,
                     deadline_s=1e3),
    )
}
