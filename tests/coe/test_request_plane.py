"""The columnar request plane against its object oracles.

Each array stage of :func:`repro.coe.scheduling.plan_requests` has an
object form it must reproduce exactly: the windowed argsort is
:func:`affinity_schedule`, run-length encoding is
:func:`coalesce_groups`, the priority argsort is
``ClusterEngine._priority_order`` and the packed shape keys are
:attr:`RequestGroup.phase_key`. The properties below drive each pair
with hypothesis; whole-engine identity lives in
``test_batched_equivalence.py``.

Also pinned here: the :class:`RequestBatch` sequence contract, and the
typed errors of the request plane's inputs (repeated request ids, an
empty library, an expert no node hosts).
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.api import ServeConfig
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.engine import EngineRequest, ServingEngine, zipf_request_stream
from repro.coe.expert import ExpertLibrary, build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.coe.scheduling import (
    ExpertReorderScheduler,
    FifoScheduler,
    RequestBatch,
    affinity_schedule,
    coalesce_groups,
    plan_requests,
    run_starts,
    window_order,
)
from repro.systems.platforms import sn40l_platform

LIBRARY = build_samba_coe_library(12)

#: Backlogs as (expert index, prompt, output, priority) rows; few
#: experts so runs and windows collide often.
rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(1, 64), st.integers(1, 16),
        st.integers(0, 3),
    ),
    min_size=1, max_size=120,
)


def _requests(rows):
    return [
        EngineRequest(i, LIBRARY.experts[e], prompt_tokens=p,
                      output_tokens=o, priority=q)
        for i, (e, p, o, q) in enumerate(rows)
    ]


def _plan_groups(plan):
    return [(g.expert.name, g.requests) for g in plan.groups()]


def _object_groups(groups):
    return [(g.expert.name, g.requests) for g in groups]


# ---------------------------------------------------------------------------
# Each array stage == its object oracle


@settings(max_examples=150, deadline=None)
@given(rows=rows_strategy, window=st.one_of(
    st.integers(1, 300), st.sampled_from([16, 256])))
def test_window_argsort_is_affinity_schedule(rows, window):
    requests = _requests(rows)
    batch = RequestBatch.from_requests(requests)
    order = window_order(batch.codes, window).tolist()
    assert [requests[i] for i in order] == affinity_schedule(
        requests, window=window)


@settings(max_examples=150, deadline=None)
@given(rows=rows_strategy, max_batch=st.integers(1, 16))
def test_run_length_groups_are_coalesce_groups(rows, max_batch):
    requests = _requests(rows)
    batch = RequestBatch.from_requests(requests)
    starts = run_starts(batch.codes, max_batch).tolist()
    got = [tuple(requests[starts[g]:starts[g + 1]])
           for g in range(len(starts) - 1)]
    want = [g.requests for g in coalesce_groups(requests, max_batch)]
    assert got == want


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy, window=st.integers(1, 40),
       max_batch=st.integers(1, 16))
def test_priority_order_is_cluster_priority_order(rows, window, max_batch):
    requests = _requests(rows)
    plan = plan_requests(requests, FifoScheduler(), "affinity", window,
                         max_batch)
    groups = plan.groups()
    got = [groups[g] for g in plan.priority_order().tolist()]
    assert got == ClusterEngine._priority_order(groups)


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy, window=st.integers(1, 40),
       max_batch=st.integers(1, 16), reorder=st.booleans(),
       policy=st.sampled_from(["fifo", "affinity"]))
def test_plan_is_the_object_front_end(rows, window, max_batch, reorder,
                                      policy):
    """The whole plan — groups, order and phase keys — is the object
    pipeline, and each group's shape is its ``phase_key``."""
    requests = _requests(rows)
    scheduler = (ExpertReorderScheduler(horizon=window + 3) if reorder
                 else FifoScheduler())
    plan = plan_requests(requests, scheduler, policy, window, max_batch)
    ordered = scheduler.order(requests)
    if policy != "fifo":
        ordered = affinity_schedule(ordered, window=window)
    groups = coalesce_groups(ordered, max_batch)
    assert _plan_groups(plan) == _object_groups(groups)
    keys = [plan.shapes[s].phase_key for s in plan.shape_of.tolist()]
    assert keys == [g.phase_key for g in groups]
    # Fresh objects (no pre-seeded key) compute the same key.
    assert [dataclasses.replace(g).phase_key for g in plan.groups()] == keys


def test_shape_keys_fall_back_when_packing_would_overflow():
    requests = _requests([(0, 2 ** 40, 3, 0), (1, 5, 2 ** 40, 0),
                          (0, 2 ** 40, 3, 0)])
    plan = plan_requests(requests, FifoScheduler(), "fifo", 1, 8)
    keys = [plan.shapes[s].phase_key for s in plan.shape_of.tolist()]
    assert keys == [g.phase_key for g in coalesce_groups(requests, 8)]


# ---------------------------------------------------------------------------
# RequestBatch: a Sequence[EngineRequest]


def _list_stream(library, n, alpha=1.1, seed=1234, prompt=256, output=20):
    """The object stream zipf_request_stream returned before it built
    columns: one EngineRequest per draw of rng.choices."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(library))]
    experts = rng.choices(library.experts, weights=weights, k=n)
    return [EngineRequest(i, e, prompt_tokens=prompt, output_tokens=output)
            for i, e in enumerate(experts)]


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_zipf_batch_equals_the_object_stream(seed):
    library = build_samba_coe_library(40)
    batch = zipf_request_stream(library, 500, seed=seed, prompt_tokens=128,
                                output_tokens=9)
    assert isinstance(batch, RequestBatch)
    assert list(batch) == _list_stream(library, 500, seed=seed, prompt=128,
                                       output=9)


def test_request_batch_sequence_contract():
    library = build_samba_coe_library(10)
    batch = zipf_request_stream(library, 30, seed=5)
    expected = _list_stream(library, 30, seed=5)
    assert len(batch) == 30
    assert batch[-1] == expected[-1] and batch[-30] == expected[0]
    assert batch[3] is batch[3]  # built once, then cached
    with pytest.raises(IndexError):
        batch[30]
    with pytest.raises(IndexError):
        batch[-31]
    part = batch[4:20:3]
    assert isinstance(part, RequestBatch)
    assert list(part) == expected[4:20:3]
    assert part.ids.tolist() == [r.request_id for r in expected[4:20:3]]
    assert [r.request_id for r in batch] == list(range(30))
    assert batch == expected and expected == batch
    assert batch[0] in batch and batch.index(batch[2]) == 2
    changed = dataclasses.replace(batch[0], prompt_tokens=64)
    assert changed.prompt_tokens == 64 and batch[0].prompt_tokens == 256
    for request in batch:
        assert type(request.request_id) is int
        assert type(request.prompt_tokens) is int
        assert type(request.arrival_s) is float
        assert request.expert is library[request.expert.name]


def test_batch_of_a_list_hands_back_the_list_objects():
    requests = _requests([(1, 4, 2, 0), (2, 4, 2, 1), (1, 4, 2, 0)])
    batch = RequestBatch.from_requests(requests)
    assert all(a is b for a, b in zip(batch, requests))
    assert batch.experts == [LIBRARY.experts[1], LIBRARY.experts[2]]
    assert batch.codes.tolist() == [0, 1, 0]
    assert RequestBatch.from_requests(batch) is batch


# ---------------------------------------------------------------------------
# Typed errors


def _with_duplicates(library, n=20, dupes=(3, 11, 3)):
    requests = list(zipf_request_stream(library, n, seed=2))
    extra = [dataclasses.replace(requests[i]) for i in dupes]
    return requests[:8] + extra + requests[8:]


@pytest.mark.parametrize("mode", ["reference", "columnar"])
def test_serving_engine_rejects_duplicate_ids(mode):
    library = build_samba_coe_library(8)
    engine = ServingEngine(sn40l_platform(), library, policy="affinity",
                           drain_mode=mode)
    with pytest.raises(ValueError, match="duplicate request_id 3"):
        engine.run(_with_duplicates(library))


@pytest.mark.parametrize("mode", ["reference", "columnar"])
def test_cluster_engine_rejects_duplicate_ids(mode):
    library = build_samba_coe_library(8)
    engine = ClusterEngine(sn40l_platform, library, 2, policy="affinity",
                           node_policy="affinity", drain_mode=mode)
    with pytest.raises(ValueError, match="duplicate request_id 3"):
        engine.serve(_with_duplicates(library))


def test_live_engine_rejects_duplicate_ids():
    library = build_samba_coe_library(8)
    config = ServeConfig(policy="affinity", cluster_policy="least_loaded",
                         num_nodes=2, mode="live", time_scale=1e-4)
    engine = LiveEngine(sn40l_platform, library, config)
    with pytest.raises(ValueError, match="duplicate request_id 3"):
        engine.serve(_with_duplicates(library))


def test_first_duplicate_is_the_earliest_repeat():
    experts = [LIBRARY.experts[0]]
    batch = RequestBatch.uniform(experts, [0] * 6, 8, 2)
    batch.ids[:] = [5, 9, 2, 9, 5, 2]
    assert batch.first_duplicate_id() == 9
    batch.ids[:] = [1, 2, 3, 4, 5, 6]
    assert batch.first_duplicate_id() is None


def test_zipf_over_an_empty_library_is_a_value_error():
    with pytest.raises(ValueError, match="empty expert library"):
        zipf_request_stream(ExpertLibrary(experts=[]), 10)


@pytest.mark.parametrize("mode", ["reference", "columnar"])
def test_unhosted_expert_is_still_a_key_error(mode):
    library = build_samba_coe_library(8)
    stranger = build_samba_coe_library(9).experts[8]
    requests = list(zipf_request_stream(library, 12, seed=4))
    requests.insert(5, EngineRequest(99, stranger))
    engine = ClusterEngine(sn40l_platform, library, 2, policy="affinity",
                           node_policy="affinity", drain_mode=mode)
    with pytest.raises(KeyError, match="no node hosts expert"):
        engine.serve(requests)


def test_plan_arrays_are_plain_int64():
    plan = plan_requests(zipf_request_stream(LIBRARY, 50, seed=3),
                         FifoScheduler(), "affinity", 16, 8)
    for column in (plan.rows, plan.starts, plan.sizes, plan.codes,
                   plan.shape_of):
        assert column.dtype == np.int64
    for shape in plan.shapes:
        assert all(type(v) in (str, int) for v in shape.phase_key)


# ---------------------------------------------------------------------------
# Paths around the plane


class _NewestFirst(FifoScheduler):
    """A scheduler with no array form: the plane orders its elements."""

    name = "newest_first"

    def order(self, requests):
        return list(reversed(list(requests)))

    def order_rows(self, batch):
        return None


@pytest.mark.parametrize("policy", ["fifo", "affinity"])
def test_scheduler_without_array_form_orders_elements(policy):
    library = build_samba_coe_library(10)
    requests = zipf_request_stream(library, 120, seed=8)

    def run(mode):
        return ServingEngine(
            sn40l_platform(), library, policy=policy, drain_mode=mode,
            scheduler=_NewestFirst(), record_timeline=False,
        ).run(requests)

    plane, reference = run("columnar"), run("reference")
    assert plane.to_dict() == reference.to_dict()
    assert plane.completed == reference.completed
    assert plane.completed[0].request_id == 119


def test_groups_submitted_one_by_one_drain_like_the_reference():
    """A queue built by ``submit`` becomes a plan at drain time
    (``GroupPlan.of_groups``) and drains through the columnar core,
    with identical results."""
    from repro.coe.engine import DRAIN_EVENT_KIND, _run_drain_batch
    from repro.sim.engine import Simulator

    library = build_samba_coe_library(10)
    requests = list(zipf_request_stream(library, 80, seed=9))
    groups = coalesce_groups(affinity_schedule(requests, window=8), 4)
    completed = {}
    for mode in ("columnar", "reference"):
        sim = Simulator(timeline=None)
        engine = ServingEngine(sn40l_platform(), library, policy="affinity",
                               drain_mode=mode, simulator=sim)
        sim.set_batch_handler(DRAIN_EVENT_KIND, _run_drain_batch)
        for group in groups:
            engine.submit(group)
        sim.run()
        completed[mode] = list(engine.completed)
    assert completed["columnar"] == completed["reference"]
    assert len(completed["columnar"]) == 80
