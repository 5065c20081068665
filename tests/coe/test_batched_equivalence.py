"""Property test: the columnar drain IS the event-by-event reference.

``drain_mode="columnar"`` (the default) drains a node's whole queue in
one simulator event with a local clock; ``drain_mode="reference"`` is
the seed-equivalent oracle — one begin/finish event pair per group, the
heap popped one event at a time. The two must be indistinguishable in
every observable: report stats (including the logical ``events_run``
count), completed-request records, the byte-level timeline and the
cache DecisionLog — across scheduling policies, cache policies, the
memory hierarchy, and randomized workloads.

Timelines are compared per lane over sorted lane names: a whole-queue
drain may *create* lanes in a different order (spans for a whole drain
are recorded together), which is an artifact of dict insertion order,
not of the simulation.
"""

import dataclasses
import random

import pytest

from repro.coe.cluster_engine import ClusterEngine, run_cluster
from repro.coe.decisions import DecisionLog
from repro.coe.engine import ServingEngine, zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.systems.cluster import partition_experts
from repro.systems.platforms import sn40l_platform

DRAIN_MODES = ("reference", "columnar")


def _timeline_lanes(timeline):
    """Per-lane span tuples keyed by lane name, order-insensitive
    across lanes, order-preserving within a lane."""
    if timeline is None:
        return None
    lanes = {}
    for span in timeline.spans():
        lanes.setdefault(span.lane, []).append(
            (span.name, span.category, span.start_s, span.end_s,
             repr(sorted(span.args.items())))
        )
    return {lane: lanes[lane] for lane in sorted(lanes)}


def _random_workload(rng):
    library = build_samba_coe_library(rng.randrange(24, 64))
    requests = zipf_request_stream(
        library,
        rng.randrange(150, 400),
        alpha=rng.uniform(1.05, 1.4),
        seed=rng.randrange(1 << 30),
        output_tokens=rng.randrange(4, 32),
    )
    return library, requests


@pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
def test_engine_batched_equals_reference(policy, cache_policy):
    rng = random.Random(f"engine:{policy}:{cache_policy}")
    library, requests = _random_workload(rng)

    def run(mode):
        engine = ServingEngine(
            sn40l_platform(), library, policy=policy,
            max_batch=rng_max_batch, window=rng_window,
            cache_policy=cache_policy, drain_mode=mode,
        )
        return engine.run(requests)

    rng_max_batch = rng.randrange(1, 12)
    rng_window = rng.randrange(1, 32)
    fast, reference = run("columnar"), run("reference")

    assert fast.to_dict() == reference.to_dict()
    assert fast.events_run == reference.events_run
    assert fast.completed == reference.completed
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
@pytest.mark.parametrize("num_nodes", [2, 4])
def test_cluster_batched_equals_reference(policy, num_nodes):
    # ``steal`` forces the reference drain internally (its hooks
    # interleave with the queues), so that axis pins the gate itself:
    # asking for columnar under steal must still reproduce the
    # reference exactly.
    rng = random.Random(f"cluster:{policy}:{num_nodes}")
    library, requests = _random_workload(rng)

    def run(mode):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=num_nodes,
            policy=policy, online_replication=policy == "steal",
            drain_mode=mode,
        )

    fast, reference = run("columnar"), run("reference")

    assert fast.to_dict() == reference.to_dict()
    assert fast.events_run == reference.events_run
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


def test_cluster_deadline_shedding_batched_equals_reference():
    rng = random.Random("deadline")
    library, requests = _random_workload(rng)
    makespan = run_cluster(
        sn40l_platform, library, requests, num_nodes=2,
        policy="least_loaded",
    ).makespan_s

    def run(mode):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=2,
            policy="least_loaded", deadline_s=0.5 * makespan,
            drain_mode=mode,
        )

    fast, reference = run("columnar"), run("reference")
    assert fast.rejected > 0
    assert fast.to_dict() == reference.to_dict()
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


def test_cluster_untraced_batched_matches_traced_reference_metrics():
    """``record_timeline=False`` (the sweep fast path) must leave every
    simulated metric identical — only timeline-derived per-node fields
    (busy/switch seconds) and the trace itself go dark."""
    rng = random.Random("untraced")
    library, requests = _random_workload(rng)

    def run(mode, record):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=4,
            policy="affinity", drain_mode=mode,
            record_timeline=record,
        )

    fast, reference = run("columnar", False), run("reference", True)
    assert fast.timeline is None
    assert fast.events_run == reference.events_run
    assert fast.makespan_s == reference.makespan_s
    assert fast.tokens_per_second == reference.tokens_per_second
    # load_imbalance derives from per-node busy seconds, which are
    # timeline-derived — dark in the untraced run along with the trace.
    skip = {"nodes", "timeline", "load_imbalance"}
    fast_d = {k: v for k, v in fast.to_dict().items() if k not in skip}
    ref_d = {k: v for k, v in reference.to_dict().items() if k not in skip}
    assert fast_d == ref_d


@pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_engine_three_way_equivalence(policy, cache_policy, record):
    """reference == columnar, byte for byte.

    Reports, completion records, event counts, timelines, and the cache
    DecisionLog must all agree. ``traced`` and ``overlap`` make every
    group a decision point (spans, prefetches); ``untraced`` with a
    non-overlap policy exercises the cumsum runs.
    """
    rng = random.Random(f"threeway:{policy}:{cache_policy}:{record}")
    library, requests = _random_workload(rng)
    max_batch = rng.randrange(1, 12)
    window = rng.randrange(1, 32)

    def run(mode):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy=policy,
            max_batch=max_batch, window=window,
            cache_policy=cache_policy, drain_mode=mode,
            record_timeline=record, decision_log=log,
        ).run(requests)
        return report, log

    reference, reference_log = run("reference")
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.completed == reference.completed
    assert report.events_run == reference.events_run
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_cluster_three_way_equivalence(policy, record):
    """Cluster-level reference == columnar identity, decision log included.

    ``steal`` forces the reference drain internally, so that axis pins
    the gate; the others exercise columnar drains per node.
    """
    rng = random.Random(f"cluster3:{policy}:{record}")
    library, requests = _random_workload(rng)

    def run(mode):
        log = DecisionLog()
        report = ClusterEngine(
            sn40l_platform, library, num_nodes=3, policy=policy,
            online_replication=policy == "steal", drain_mode=mode,
            record_timeline=record, decision_log=log,
        ).serve(requests)
        return report, log

    reference, reference_log = run("reference")
    skip = {"nodes", "timeline", "load_imbalance"}
    report, log = run("columnar")
    if record:
        assert report.to_dict() == reference.to_dict()
        assert _timeline_lanes(report.timeline) == _timeline_lanes(
            reference.timeline
        )
    else:
        got = {k: v for k, v in report.to_dict().items() if k not in skip}
        want = {k: v for k, v in reference.to_dict().items()
                if k not in skip}
        assert got == want
    assert report.events_run == reference.events_run
    assert log == reference_log, log.diff(reference_log)


def test_randomized_drain_mode_fuzz():
    """Seeded fuzz over the drain-mode config space beyond the fixed grid."""
    rng = random.Random(20260809)
    for trial in range(6):
        policy = rng.choice(["fifo", "affinity", "overlap"])
        cache = rng.choice(["lru", "lfu", "gdsf", "predictive"])
        record = rng.random() < 0.5
        library, requests = _random_workload(rng)
        reports = {}
        for mode in DRAIN_MODES:
            reports[mode] = ServingEngine(
                sn40l_platform(), library, policy=policy, cache_policy=cache,
                drain_mode=mode, record_timeline=record,
            ).run(requests)
        key = (trial, policy, cache, record)
        fast, reference = reports["columnar"], reports["reference"]
        assert fast.to_dict() == reference.to_dict(), key
        assert fast.completed == reference.completed, key
        assert _timeline_lanes(fast.timeline) == _timeline_lanes(
            reference.timeline
        ), key


def _tier_caps(library, hbm_frac=0.5, ddr_frac=0.75):
    """Constrained-memory capacities as fractions of the working set."""
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(hbm_frac * working_set), biggest)
    return {"hbm": hbm, "ddr": max(int(ddr_frac * working_set), hbm)}


def _assert_engine_equivalent(run, record):
    """``run(mode, record)`` under columnar equals it under reference:
    report, completions, events, per-lane timeline and DecisionLog."""
    reference, reference_log = run("reference", record)
    report, log = run("columnar", record)
    assert report.to_dict() == reference.to_dict(), record
    assert report.completed == reference.completed, record
    assert report.events_run == reference.events_run, record
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    ), record
    assert log == reference_log, (record, log.diff(reference_log))
    return reference


@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf", "lookahead"])
def test_engine_three_way_equivalence_tiered(cache_policy):
    """The identity holds with the full memory hierarchy on: a 3-tier
    capacity ladder (NVMe promotions in play) and the expert-reorder
    admission scheduler, traced (every group a decision point) and
    untraced (cumsum hit runs between tier misses)."""
    rng = random.Random(f"tiered:{cache_policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library)

    def run(mode, record):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy="affinity",
            cache_policy=cache_policy, drain_mode=mode,
            scheduler="expert_reorder", tier_capacities=caps,
            record_timeline=record, decision_log=log,
        ).run(requests)
        return report, log

    for record in (True, False):
        reference = _assert_engine_equivalent(run, record)
        assert reference.scheduler == "expert_reorder"


@pytest.mark.parametrize("cache_policy", ["gdsf", "lookahead"])
def test_engine_three_way_equivalence_pipelined(cache_policy):
    """The identity holds with pipelined NVMe->DDR promotions on (every
    group a decision point: the next group's tier is peeked at each),
    traced and untraced, with the lookahead policy reading the lowered
    backlog inside the drain."""
    rng = random.Random(f"pipelined:{cache_policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library, hbm_frac=0.4, ddr_frac=0.55)

    def run(mode, record):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy="affinity",
            cache_policy=cache_policy, drain_mode=mode,
            scheduler="expert_reorder", tier_capacities=caps,
            record_timeline=record, decision_log=log,
            pipeline_promotions=True,
        ).run(requests)
        return report, log

    for record in (True, False):
        reference = _assert_engine_equivalent(run, record)
        assert reference.pipelined_promotions > 0


@pytest.mark.parametrize("policy", ["least_loaded", "affinity"])
def test_cluster_three_way_equivalence_tiered(policy):
    rng = random.Random(f"cluster-tiered:{policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library)

    def run(mode):
        log = DecisionLog()
        report = ClusterEngine(
            sn40l_platform, library, num_nodes=3, policy=policy,
            drain_mode=mode, scheduler="expert_reorder",
            tier_capacities=caps, decision_log=log,
        ).serve(requests)
        return report, log

    reference, reference_log = run("reference")
    assert reference.scheduler == "expert_reorder"
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.events_run == reference.events_run
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


def test_cluster_lookahead_pipelined_equivalence():
    """memwall_tiered's shape, scaled down: a 4-node affinity cluster
    with lookahead eviction, expert reordering and pipelined promotions,
    HBM and DDR at 0.5 and 0.35 of the mean per-node working set. The
    columnar drain answers lookahead from its next-use index, the
    reference oracle from a scan of the queue; both must decide alike."""
    library = build_samba_coe_library(48)
    requests = zipf_request_stream(
        library, 1500, alpha=1.1, seed=16, output_tokens=16,
    )
    shards = [s for s in partition_experts(library, 4) if s]
    working_set = sum(e.weight_bytes for s in shards for e in s) / len(shards)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(0.5 * working_set), biggest)
    caps = {"hbm": hbm, "ddr": max(int(0.35 * working_set), hbm)}

    def run(mode):
        log = DecisionLog()
        engine = ClusterEngine(
            sn40l_platform, library, num_nodes=4, policy="affinity",
            node_policy="affinity", cache_policy="lookahead",
            scheduler="expert_reorder", pipeline_promotions=True,
            tier_capacities=caps, record_timeline=False, drain_mode=mode,
            decision_log=log,
        )
        return engine, engine.serve(requests), log

    ref_engine, reference, reference_log = run("reference")
    engine, report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert engine.completed_requests() == ref_engine.completed_requests()
    assert log == reference_log, log.diff(reference_log)
    stats = [n.engine.server.runtime.stats for n in engine.nodes]
    assert sum(s.pipelined_promotions for s in stats) > 0
    assert sum(s.tier_demotions for s in stats) > 0


def test_randomized_tiered_drain_fuzz():
    """Seeded fuzz with the hierarchy and scheduler axes in the mix."""
    rng = random.Random(20260810)
    for trial in range(4):
        cache = rng.choice(["lru", "lfu", "gdsf"])
        scheduler = rng.choice(["fifo", "expert_reorder"])
        library, requests = _random_workload(rng)
        caps = _tier_caps(library, hbm_frac=rng.uniform(0.2, 0.8),
                          ddr_frac=rng.uniform(0.8, 1.2))
        reports = {}
        for mode in DRAIN_MODES:
            reports[mode] = ServingEngine(
                sn40l_platform(), library, policy="affinity",
                cache_policy=cache, drain_mode=mode, scheduler=scheduler,
                tier_capacities=caps,
            ).run(requests)
        key = (trial, cache, scheduler)
        fast, reference = reports["columnar"], reports["reference"]
        assert fast.to_dict() == reference.to_dict(), key
        assert fast.completed == reference.completed, key


def test_sim_live_cross_check_with_hierarchy_and_scheduler():
    """The sim/live decision cross-check holds with the whole PR on:
    3-tier capacities, NVMe promotions, and expert reordering."""
    from repro.coe.api import ServeConfig
    from repro.coe.crosscheck import cross_check
    from repro.load import ArrivalSpec, generate_trace

    library = build_samba_coe_library(16)
    spec = ArrivalSpec(rate_rps=40.0, duration_s=2.0, zipf_alpha=1.1, seed=11)
    requests = generate_trace(spec, library).to_requests(library)
    config = ServeConfig(
        policy="affinity", cluster_policy="least_loaded", mode="live",
        num_nodes=2, scheduler="expert_reorder",
        tier_capacities=_tier_caps(library),
    )
    result = cross_check(sn40l_platform, library, requests, config)
    assert result.match, result.mismatch
    assert result.decisions > 0


def test_randomized_seeds_sweep():
    """A seeded fuzz over the config space beyond the fixed grid."""
    rng = random.Random(20260808)
    for trial in range(6):
        policy = rng.choice(["fifo", "affinity", "overlap"])
        cache = rng.choice(["lru", "lfu", "gdsf", "predictive"])
        library, requests = _random_workload(rng)
        fast = ServingEngine(
            sn40l_platform(), library, policy=policy, cache_policy=cache,
            drain_mode="columnar",
        ).run(requests)
        reference = ServingEngine(
            sn40l_platform(), library, policy=policy, cache_policy=cache,
            drain_mode="reference",
        ).run(requests)
        assert fast.to_dict() == reference.to_dict(), (trial, policy, cache)
        assert fast.completed == reference.completed, (trial, policy, cache)
        assert _timeline_lanes(fast.timeline) == _timeline_lanes(
            reference.timeline
        ), (trial, policy, cache)


# ---------------------------------------------------------------------------
# The columnar request plane vs the object front end (drain_mode="reference")

PLANE_CACHES = ("lru", "lfu", "gdsf", "lookahead", "predictive")


def _plane_workload(rng, varied):
    library, requests = _random_workload(rng)
    if varied:
        # Per-request shapes and priorities: groups rarely share a
        # phase-memo key, and deadline shedding has an order to keep.
        requests = [
            dataclasses.replace(
                r, prompt_tokens=rng.randint(16, 512),
                output_tokens=rng.randint(2, 40), priority=rng.randrange(3),
            )
            for r in requests
        ]
    return library, requests


def _assert_plain_python(records, log):
    """No NumPy scalar may leak into completions or decisions: their
    reprs are compared across clocks (``repr(eta)``)."""
    for record in records:
        for value in record:
            assert type(value) in (int, float, str), (record, type(value))
    for _, decision in log:
        for value in decision.detail:
            assert type(value) in (int, float, str), (decision, type(value))


def _plane_configs(rng, node_policy, count):
    for _ in range(count):
        tiered = rng.random() < 0.5
        yield dict(
            cache_policy=rng.choice(PLANE_CACHES),
            scheduler=rng.choice(["fifo", "expert_reorder"]),
            deadline=rng.random() < 0.5,
            varied=rng.random() < 0.5,
            tiered=tiered,
            pipeline=tiered and node_policy != "overlap" and rng.random() < 0.5,
            max_batch=rng.randrange(1, 10),
            window=rng.randrange(1, 40),
            # Unlogged cluster runs take the plane's vectorized routing.
            logged=rng.random() < 0.5,
        )


@pytest.mark.parametrize("node_policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
def test_cluster_request_plane_equals_reference(policy, node_policy):
    """Cluster policy x node policy x cache x scheduler x deadline x
    per-request lengths x tier capacities: the plane (any non-reference
    requested mode) reproduces the object front end's report,
    completion records and decision log exactly."""
    rng = random.Random(f"plane:{policy}:{node_policy}")
    for config in _plane_configs(rng, node_policy, 2):
        library, requests = _plane_workload(rng, config["varied"])
        caps = _tier_caps(library, 0.4, 0.6) if config["tiered"] else None

        def run(mode, deadline_s=None):
            log = DecisionLog() if config["logged"] else None
            engine = ClusterEngine(
                sn40l_platform, library, num_nodes=3, policy=policy,
                node_policy=node_policy, max_batch=config["max_batch"],
                window=config["window"],
                online_replication=policy == "steal",
                cache_policy=config["cache_policy"],
                scheduler=config["scheduler"], tier_capacities=caps,
                pipeline_promotions=config["pipeline"],
                deadline_s=deadline_s, record_timeline=False,
                drain_mode=mode, decision_log=log,
            )
            return engine.serve(requests), engine, log

        deadline_s = None
        if config["deadline"]:
            deadline_s = 0.5 * run("reference")[0].makespan_s
        reference, ref_engine, ref_log = run("reference", deadline_s)
        plane, engine, log = run("columnar", deadline_s)
        key = (policy, node_policy, config)
        assert plane.to_dict() == reference.to_dict(), key
        assert engine.completed_requests() == ref_engine.completed_requests()
        assert engine.rejected == ref_engine.rejected, key
        if log is not None:
            assert log == ref_log, (key, log.diff(ref_log))
        _assert_plain_python(engine.completed_requests(), log or ())


@pytest.mark.parametrize("node_policy", ["fifo", "affinity", "overlap"])
def test_engine_request_plane_equals_reference(node_policy):
    rng = random.Random(f"plane-engine:{node_policy}")
    for config in _plane_configs(rng, node_policy, 3):
        library, requests = _plane_workload(rng, config["varied"])
        caps = _tier_caps(library, 0.4, 0.6) if config["tiered"] else None

        def run(mode):
            log = DecisionLog()
            report = ServingEngine(
                sn40l_platform(), library, policy=node_policy,
                max_batch=config["max_batch"], window=config["window"],
                cache_policy=config["cache_policy"],
                scheduler=config["scheduler"], tier_capacities=caps,
                pipeline_promotions=config["pipeline"],
                record_timeline=False, drain_mode=mode, decision_log=log,
            ).run(requests)
            return report, log

        reference, ref_log = run("reference")
        plane, log = run("columnar")
        key = (node_policy, config)
        assert plane.to_dict() == reference.to_dict(), key
        assert plane.completed == reference.completed, key
        assert log == ref_log, (key, log.diff(ref_log))
        _assert_plain_python(plane.completed, log)


@pytest.mark.parametrize("deadline", [False, True])
def test_cluster_request_plane_multi_owner_routing(deadline):
    """Experts replicated before admission take the plane's scalar
    ``choose_node`` path (least backlog, affinity tails); it must pick
    the nodes the object front end picks."""
    rng = random.Random(f"plane-replicas:{deadline}")
    library, requests = _plane_workload(rng, varied=True)
    hot = [r.expert for r in requests[:40]]

    def run(mode, deadline_s=None):
        log = DecisionLog()
        engine = ClusterEngine(
            sn40l_platform, library, num_nodes=3, policy="affinity",
            node_policy="affinity", deadline_s=deadline_s,
            record_timeline=False, drain_mode=mode, decision_log=log,
        )
        for expert in {e.name: e for e in hot}.values():
            for node in engine.nodes:
                if expert.name not in node.hosted:
                    node.engine.host(expert)
                    node.hosted.add(expert.name)
                    engine._owners[expert.name].append(node.index)
        return engine.serve(requests), engine, log

    deadline_s = (0.5 * run("reference")[0].makespan_s if deadline
                  else None)
    reference, ref_engine, ref_log = run("reference", deadline_s)
    plane, engine, log = run("columnar", deadline_s)
    assert plane.to_dict() == reference.to_dict()
    assert engine.completed_requests() == ref_engine.completed_requests()
    assert log == ref_log, log.diff(ref_log)
    assert len({d.choice for _, d in log if d.kind == "dispatch"}) == 3


@pytest.mark.parametrize("node_policy", ["overlap", "fifo"])
def test_cluster_crash_recovery_equals_reference(node_policy):
    """Two node crashes on a steal cluster with deadline admission and
    per-request lengths: crash recovery's re-dispatch (orphan promotion,
    deadline re-admission against survivors' backlogs, steals and
    replication) decides identically under ``drain_mode="columnar"``
    (the default) and ``drain_mode="reference"`` — report, completion
    records and the decision log, the admission stream's ``repr(eta)``
    included."""
    rng = random.Random(f"crash-recovery:{node_policy}")
    library = build_samba_coe_library(48)
    requests = [
        dataclasses.replace(
            r, prompt_tokens=rng.randint(64, 512),
            output_tokens=rng.randint(8, 40), priority=rng.randrange(3),
        )
        for r in zipf_request_stream(library, 1200, alpha=1.1,
                                     seed=rng.randrange(1 << 30))
    ]

    def run(mode, faults=(), deadline_s=None):
        log = DecisionLog()
        engine = ClusterEngine(
            sn40l_platform, library, num_nodes=4, policy="steal",
            node_policy=node_policy, online_replication=True,
            faults=list(faults), deadline_s=deadline_s,
            record_timeline=False, drain_mode=mode, decision_log=log,
        )
        return engine.serve(requests), engine, log

    makespan = run("columnar")[0].makespan_s
    faults = [f"crash:1:{0.2 * makespan!r}", f"crash:2:{0.45 * makespan!r}"]
    deadline_s = 1.5 * makespan
    default, engine, log = run("columnar", faults, deadline_s)
    reference, ref_engine, ref_log = run("reference", faults, deadline_s)
    assert default.redispatched_groups > 0 and default.rejected > 0
    assert default.to_dict() == reference.to_dict()
    assert engine.completed_requests() == ref_engine.completed_requests()
    assert engine.rejected == ref_engine.rejected
    assert log == ref_log, log.diff(ref_log)
