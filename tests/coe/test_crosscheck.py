"""The correctness artifact: sim and live decide byte-identically."""

import pytest

from repro.coe.api import ServeConfig
from repro.coe.crosscheck import CrossCheckResult, cross_check
from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest
from repro.coe.expert import build_samba_coe_library
from repro.load import ArrivalSpec, generate_trace
from repro.systems.cluster import partition_experts
from repro.systems.platforms import sn40l_platform


def shard_tiers(library, num_nodes, *, hbm, ddr):
    """HBM and DDR capacities as fractions of the largest shard's
    working set (the HBM tier holds at least the biggest expert)."""
    working_set = max(
        sum(e.weight_bytes for e in shard)
        for shard in partition_experts(library, num_nodes, balanced=True)
    )
    hbm_bytes = max(int(hbm * working_set),
                    max(e.weight_bytes for e in library.experts))
    return {"hbm": hbm_bytes,
            "ddr": max(int(ddr * working_set), hbm_bytes)}


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(12)


@pytest.fixture(scope="module")
def requests(library):
    # A realistic open-loop trace: Zipf-skewed Poisson arrivals.
    spec = ArrivalSpec(rate_rps=40.0, duration_s=4.0, zipf_alpha=1.1, seed=7)
    return generate_trace(spec, library).to_requests(library)


class TestDecisionParity:
    @pytest.mark.parametrize("config_kwargs", [
        # Single node, each cache policy the live engine supports.
        dict(policy="affinity", num_nodes=1, cache_policy="lru"),
        dict(policy="affinity", num_nodes=1, cache_policy="gdsf"),
        dict(policy="fifo", num_nodes=1, cache_policy="predictive"),
        # Cluster dispatch, both live-legal cluster policies.
        dict(policy="affinity", num_nodes=4, cluster_policy="least_loaded"),
        dict(policy="affinity", num_nodes=4, cluster_policy="affinity",
             cache_policy="gdsf"),
        # Deadline admission in the loop (admit/shed ETA records).
        dict(policy="affinity", num_nodes=2, cluster_policy="least_loaded",
             cache_policy="predictive", deadline_s=0.5),
        # The shared node core in a cluster: lookahead eviction over
        # each node's queue, pipelined promotions, deadline admission.
        lambda library: dict(
            policy="fifo", num_nodes=2, cluster_policy="affinity",
            cache_policy="lookahead", scheduler="expert_reorder",
            tier_capacities=shard_tiers(library, 2, hbm=0.5, ddr=0.35),
            pipeline_promotions=True, deadline_s=0.5,
        ),
    ], ids=["lru", "gdsf", "fifo-predictive", "least-loaded-4",
            "affinity-4", "deadline-2", "tiered-lookahead-affinity-2"])
    def test_identical_decisions(self, library, requests, config_kwargs):
        if callable(config_kwargs):
            config_kwargs = config_kwargs(library)
        config = ServeConfig(mode="live", **config_kwargs)
        result = cross_check(sn40l_platform, library, requests, config)
        assert result.match, result.mismatch
        assert result.mismatch is None
        assert result.decisions > 0
        assert result.sim_log == result.live_log
        # Cache streams exist per node; admission only for clusters.
        nodes = config_kwargs.get("num_nodes", 1)
        expected = {f"node{i}" for i in range(nodes)}
        if nodes > 1:
            expected.add("admission")
        assert set(result.streams) <= expected
        assert any(s.startswith("node") for s in result.streams)
        if config_kwargs.get("pipeline_promotions"):
            assert result.live_report.pipelined_promotions > 0

    def test_lookahead_pipelined_tiered_parity(self, library, requests):
        # The CoServe scenario end to end: constrained HBM/DDR budgets,
        # reordered backlog, lookahead eviction and pipelined NVMe->DDR
        # promotions — both backends must still decide byte-identically
        # (promotions are prefetcher traffic, never decision records).
        working_set = sum(e.weight_bytes for e in library.experts)
        biggest = max(e.weight_bytes for e in library.experts)
        hbm = max(int(0.5 * working_set), biggest)
        config = ServeConfig(
            policy="fifo", num_nodes=1,
            cache_policy="lookahead", scheduler="expert_reorder",
            tier_capacities={
                "hbm": hbm, "ddr": max(int(0.35 * working_set), hbm),
            },
            pipeline_promotions=True,
        )
        result = cross_check(sn40l_platform, library, requests, config)
        assert result.match, result.mismatch
        assert result.decisions > 0
        # Both backends actually ran the pipelined path, identically.
        assert result.sim_report.pipelined_promotions > 0
        assert (result.live_report.pipelined_promotions
                == result.sim_report.pipelined_promotions)

    def test_default_config_is_live_valid(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:40])
        assert result.match, result.mismatch

    def test_sim_config_derives_its_live_twin(self, library, requests):
        # The caller may hand over a sim-mode config; the check derives
        # the live twin itself — one config, two clocks.
        config = ServeConfig(policy="affinity", cluster_policy="affinity",
                             num_nodes=3)
        result = cross_check(sn40l_platform, library, requests[:60], config)
        assert result.match, result.mismatch
        assert "admission" in result.streams

    def test_reports_come_back_from_both_backends(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:30])
        assert isinstance(result, CrossCheckResult)
        assert result.live_report.completed_requests > 0
        assert result.sim_report is not None
        # The check pins max_queue above the backlog: nothing sheds.
        assert result.live_report.shed_backpressure == 0

    def test_to_dict_is_compact(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:20])
        payload = result.to_dict()
        assert payload["match"] is True
        assert payload["decisions"] == result.decisions
        assert "sim_log" not in payload  # logs stay out of JSON summaries


class TestPreconditions:
    def test_mixed_priorities_rejected(self, library):
        expert = library.experts[0]
        reqs = [
            EngineRequest(0, expert, priority=0),
            EngineRequest(1, expert, priority=1),
        ]
        with pytest.raises(ValueError, match="uniform request priorities"):
            cross_check(sn40l_platform, library, reqs)


class TestTamperDetection:
    def test_a_single_flipped_record_is_caught(self, library, requests):
        # Corrupt one record of the live log and re-diff: the harness
        # must localize the divergence, not just report a boolean.
        result = cross_check(sn40l_platform, library, requests[:40])
        assert result.match
        data = result.live_log.to_jsonable()
        stream = next(iter(data))
        kind, subject, choice, detail = data[stream][0]
        data[stream][0] = [kind, subject, "tampered", detail]
        tampered = DecisionLog.from_jsonable(data)
        diff = result.sim_log.diff(tampered)
        assert diff is not None
        assert stream in diff
        assert "tampered" in diff

    def test_a_missing_record_is_caught(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:40])
        data = result.live_log.to_jsonable()
        stream = next(iter(data))
        data[stream].pop()
        assert result.sim_log.diff(DecisionLog.from_jsonable(data)) is not None
