"""Wall-clock serving: drain, backpressure, streaming, task hygiene."""

import asyncio
from collections import defaultdict

import pytest

from repro.coe.api import ServeConfig, ServeModeError, build_server
from repro.coe.engine import EngineReentryError, EngineRequest
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import (
    DEFAULT_MAX_QUEUE,
    LiveEngine,
    LiveReport,
    ShedRequest,
    TokenEvent,
)
from repro.systems.platforms import sn40l_platform

#: Fast-forward: one model second in a millisecond of wall time.
FAST = 0.001


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(8)


@pytest.fixture(scope="module")
def platform():
    return sn40l_platform()


def live_config(**kwargs):
    kwargs.setdefault("policy", "fifo")
    kwargs.setdefault("cluster_policy", "least_loaded")
    kwargs.setdefault("time_scale", FAST)
    return ServeConfig(mode="live", **kwargs)


def backlog(library, n, *, output_tokens=20, spread_s=0.0):
    experts = library.experts
    return [
        EngineRequest(
            i,
            experts[i % len(experts)],
            output_tokens=output_tokens,
            arrival_s=(spread_s * i / n) if spread_s else 0.0,
        )
        for i in range(n)
    ]


class TestLiveServe:
    def test_serves_a_backlog_to_completion(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 12))
        assert isinstance(report, LiveReport)
        assert report.completed_requests == 12
        assert report.shed_requests == 0
        assert report.drained
        assert report.requests == 12
        assert report.makespan_s > 0
        assert report.wall_s > 0
        assert report.p50_s <= report.p95_s <= report.p99_s
        assert {c.request_id for c in report.completed} == set(range(12))

    def test_open_loop_arrivals_are_respected(self, platform, library):
        # Later arrivals cannot finish before they arrive.
        engine = LiveEngine(platform, library, live_config(time_scale=0.01))
        report = engine.serve(backlog(library, 6, spread_s=3.0))
        for c in report.completed:
            assert c.finish_s >= c.arrival_s

    def test_empty_backlog_rejected(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        with pytest.raises(ValueError, match="empty"):
            engine.serve([])

    def test_build_server_returns_live_engine(self, platform, library):
        server = build_server(platform, library, live_config())
        assert isinstance(server, LiveEngine)
        assert server.max_queue == DEFAULT_MAX_QUEUE

    def test_rejects_sim_config(self, platform, library):
        with pytest.raises(ServeModeError, match="live"):
            LiveEngine(platform, library, ServeConfig(policy="fifo"))

    def test_report_dict_is_json_ready(self, platform, library):
        import json

        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed_requests"] == 4
        assert payload["drained"] is True


class TestSingleUse:
    def test_second_serve_raises(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        engine.serve(backlog(library, 12))
        with pytest.raises(EngineReentryError):
            engine.serve(backlog(library, 12))

    def test_second_aserve_raises_after_drain_timeout(self, platform, library):
        engine = LiveEngine(
            platform, library,
            live_config(time_scale=1.0, drain_timeout_s=0.05, max_batch=1),
        )
        reqs = [EngineRequest(0, library.experts[0], output_tokens=2000)]
        assert not engine.serve(reqs).drained
        with pytest.raises(EngineReentryError):
            asyncio.run(engine.aserve(reqs))

    def test_rejected_backlogs_leave_the_engine_usable(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        with pytest.raises(ValueError, match="empty"):
            engine.serve([])
        expert = library.experts[0]
        with pytest.raises(ValueError):
            engine.serve([EngineRequest(0, expert), EngineRequest(0, expert)])
        report = engine.serve(backlog(library, 12))
        assert report.completed_requests == 12
        assert report.drained


def assert_timeline_ends_at_makespan(report):
    for span in report.timeline.spans():
        assert span.start_s < report.makespan_s
        assert span.end_s <= report.makespan_s


def cut_off_in_first_copy(platform, library):
    # The first demand copy takes about 13 model milliseconds: at a
    # hundred wall seconds per model second it outlasts the 50 ms drain
    # budget many times over.
    engine = LiveEngine(
        platform, library,
        live_config(time_scale=100.0, drain_timeout_s=0.05),
    )
    report = engine.serve([EngineRequest(0, library.experts[0])])
    assert not report.drained
    return report


class TestTimelineClip:
    """A live report's timeline ends at the makespan."""

    def test_cut_off_during_first_demand_copy(self, platform, library):
        assert_timeline_ends_at_makespan(cut_off_in_first_copy(platform, library))

    def test_cut_off_copy_shows_as_clipped_switch_span(self, platform, library):
        report = cut_off_in_first_copy(platform, library)
        (copy,) = report.timeline.spans(category="switch")
        assert copy.start_s < copy.end_s == report.makespan_s

    def test_cut_off_during_pipelined_promotion(self, platform, library):
        # A DDR-resident expert first, an NVMe-resident one next: once
        # the first copy lands, the second's NVMe->DDR promotion runs
        # behind the first group, and it takes model seconds — far past
        # the drain budget.
        working_set = sum(e.weight_bytes for e in library.experts)
        hbm = max(int(0.5 * working_set),
                  max(e.weight_bytes for e in library.experts))
        engine = LiveEngine(
            platform, library,
            live_config(
                time_scale=1.0, drain_timeout_s=0.2, max_batch=1,
                tier_capacities={
                    "hbm": hbm, "ddr": max(int(0.35 * working_set), hbm),
                },
                pipeline_promotions=True,
            ),
        )
        runtime = engine.nodes[0].server.runtime
        first = next(e for e in library.experts
                     if runtime.tier_of(e.name) == "ddr")
        second = next(e for e in library.experts
                      if runtime.tier_of(e.name) == "nvme")
        report = engine.serve([EngineRequest(0, first),
                               EngineRequest(1, second)])
        assert not report.drained
        assert report.pipelined_promotions == 1
        assert_timeline_ends_at_makespan(report)
        (promote,) = report.timeline.spans(category="promote")
        assert promote.end_s == report.makespan_s


class TestBackpressure:
    def test_full_queue_sheds_with_typed_result(self, platform, library):
        # All arrivals at t=0 and a single-slot queue: the dispatcher
        # admits without yielding, so exactly one group fits and the
        # rest shed deterministically.
        engine = LiveEngine(
            platform, library,
            live_config(max_batch=1, max_queue=1, num_nodes=1),
        )
        experts = library.experts
        reqs = [EngineRequest(i, experts[0]) for i in range(8)]
        report = engine.serve(reqs)
        assert report.shed_backpressure == 7
        assert report.completed_requests == 1
        assert report.drained
        for shed in report.shed:
            assert isinstance(shed, ShedRequest)
            assert shed.reason == "backpressure"
            assert shed.expert == experts[0].name
        # Conservation: nothing silently dropped.
        assert report.completed_requests + report.shed_requests == 8

    def test_deadline_sheds_before_queueing(self, platform, library):
        experts = library.experts
        engine = LiveEngine(
            platform, library,
            live_config(max_batch=1, deadline_s=0.03),
        )
        reqs = [EngineRequest(i, experts[0]) for i in range(8)]
        report = engine.serve(reqs)
        assert report.shed_deadline >= 1
        assert report.shed_backpressure == 0
        assert all(s.reason == "deadline" for s in report.shed)
        assert report.completed_requests + report.shed_deadline == 8


class TestGracefulShutdown:
    def test_drain_completes_in_flight_work(self, platform, library):
        # Long decodes still finish inside a generous drain budget.
        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 6, output_tokens=200))
        assert report.drained
        assert report.completed_requests == 6

    def test_drain_timeout_cancels_and_reports(self, platform, library):
        # Real time with a ~2.2 wall-second decode against a 50 ms drain
        # budget: shutdown must cancel, report drained=False, and not
        # hang the test.
        engine = LiveEngine(
            platform, library,
            live_config(time_scale=1.0, drain_timeout_s=0.05, max_batch=1),
        )
        report = engine.serve(
            [EngineRequest(0, library.experts[0], output_tokens=2000)]
        )
        assert not report.drained
        assert report.completed_requests == 0
        # The in-flight request is shed with its own reason, not lost.
        assert report.shed_drain_timeout == 1
        assert report.shed_requests == 1
        assert report.to_dict()["shed_drain_timeout"] == 1
        (shed,) = report.shed
        assert shed == ShedRequest(0, library.experts[0].name,
                                   "drain_timeout", 2000)

    @pytest.mark.parametrize("count,num_nodes,time_scale", [
        (3, 1, 10.0), (12, 2, 1.0),
    ], ids=["3-requests-1-node", "12-requests-2-nodes"])
    def test_drain_timeout_conserves_requests(
        self, platform, library, count, num_nodes, time_scale
    ):
        # Cut off mid-run: whatever is queued or in flight at the
        # timeout is shed as drain_timeout, exactly once per request.
        engine = LiveEngine(
            platform, library,
            live_config(policy="affinity", cluster_policy="affinity",
                        num_nodes=num_nodes, time_scale=time_scale,
                        drain_timeout_s=0.05, max_batch=1),
        )
        report = engine.serve(backlog(library, count))
        assert not report.drained
        assert report.requests == count
        assert report.shed_drain_timeout >= 1
        assert report.completed_requests + report.shed_requests == count
        ids = ([c.request_id for c in report.completed]
               + [s.request_id for s in report.shed])
        assert sorted(ids) == list(range(count))
        assert all(s.reason == "drain_timeout" for s in report.shed)

    def test_no_task_leaks_after_aserve(self, platform, library):
        async def run():
            engine = LiveEngine(platform, library, live_config())
            await engine.aserve(backlog(library, 6))
            return asyncio.all_tasks()

        tasks = asyncio.run(run())
        assert len(tasks) == 1  # only the caller itself

    def test_no_task_leaks_after_drain_timeout(self, platform, library):
        async def run():
            engine = LiveEngine(
                platform, library,
                live_config(
                    time_scale=1.0, drain_timeout_s=0.05, max_batch=1
                ),
            )
            report = await engine.aserve(
                [EngineRequest(0, library.experts[0], output_tokens=2000)]
            )
            return report, asyncio.all_tasks()

        report, tasks = asyncio.run(run())
        assert not report.drained
        assert len(tasks) == 1


class TestTokenStreaming:
    def test_every_output_token_is_streamed(self, platform, library):
        events = []
        config = live_config()
        engine = LiveEngine(
            platform, library, config, token_callback=events.append
        )
        reqs = backlog(library, 6, output_tokens=16)
        report = engine.serve(reqs)
        assert report.tokens_streamed == 6 * 16
        assert len(events) == report.tokens_streamed
        assert report.output_tokens == 6 * 16

    def test_events_are_typed_ordered_and_timestamped(self, platform, library):
        events = []
        engine = LiveEngine(
            platform, library, live_config(), token_callback=events.append
        )
        engine.serve(backlog(library, 4, output_tokens=8))
        per_request = defaultdict(list)
        for event in events:
            assert isinstance(event, TokenEvent)
            assert event.time_s >= 0.0
            per_request[event.request_id].append(event)
        assert set(per_request) == set(range(4))
        names = {e.name for e in library.experts}
        for stream in per_request.values():
            # Indices arrive in order, one per decode step, and never
            # run backwards in model time.
            assert [e.index for e in stream] == list(range(8))
            times = [e.time_s for e in stream]
            assert times == sorted(times)
            assert stream[0].expert in names
            assert stream[0].node.startswith("node")

    def test_sim_mode_rejects_token_callback(self, platform, library):
        with pytest.raises(ServeModeError, match="token_callback"):
            build_server(
                platform, library, ServeConfig(policy="fifo"),
                token_callback=lambda event: None,
            )


class TestClusterLive:
    @pytest.mark.parametrize("cluster_policy", ["least_loaded", "affinity"])
    def test_multi_node_serves_and_shards(
        self, platform, library, cluster_policy
    ):
        engine = LiveEngine(
            sn40l_platform, library,
            live_config(num_nodes=4, cluster_policy=cluster_policy),
        )
        assert engine.num_nodes == 4
        hosted = [node.hosted for node in engine.nodes]
        assert set().union(*hosted) == {e.name for e in library.experts}
        report = engine.serve(backlog(library, 16))
        assert report.completed_requests == 16
        assert report.num_nodes == 4
        # Work actually lands on more than one node.
        assert sum(1 for node in engine.nodes if node.completed) > 1

    def test_timeline_spans_use_node_lanes(self, platform, library):
        engine = LiveEngine(
            sn40l_platform, library, live_config(num_nodes=2)
        )
        report = engine.serve(backlog(library, 8))
        lanes = {span.lane for span in report.timeline.spans()}
        assert any(lane.startswith("node0/") for lane in lanes)
        assert any(lane.startswith("node1/") for lane in lanes)
