"""The memoized node backlog is the fresh left-to-right sum, bit for bit.

:meth:`ServingEngine.estimated_backlog_s` keeps its queued-work sum as a
memo that :meth:`~ServingEngine.submit` extends and every other queue
change resets. These tests hold it to the definition: the in-flight
part plus ``0.0 + e1 + e2 + ...`` over the queue, added strictly left to
right — which is also what admission's running sums compute. Python's
``sum()`` of floats is compensated from 3.12 on, so it is *not* that
sum; the regression cases below differ from it there.
"""

import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.engine import ServingEngine
from repro.coe.expert import build_samba_coe_library
from repro.coe.scheduling import (
    EngineRequest,
    RequestGroup,
    make_scheduler,
    plan_requests,
)
from repro.sim.engine import Simulator
from repro.systems.platforms import sn40l_platform

LIBRARY = build_samba_coe_library(6)
EXPERTS = LIBRARY.experts
SLOW_FACTORS = (1.0, 1.5, 2.0, 3.7)


def _left_to_right(values):
    return functools.reduce(operator.add, values, 0.0)


def _fresh_backlog(engine, sim):
    """The definition: in-flight remainder + a fresh left-to-right sum."""
    inflight = (max(0.0, engine._busy_until_s - sim.now)
                if engine.busy else 0.0)
    queued = _left_to_right(engine._group_exec_time(g) for g in engine._queue)
    return inflight + queued


@pytest.mark.parametrize("exec_times", [
    [0.1] * 10,
    [1.0] + [1e-16] * 10,
    [0.3, 0.1, 0.7, 0.2, 0.9, 0.6],
], ids=["tenths", "tiny-tail", "mixed"])
def test_backlog_adds_left_to_right(exec_times):
    """Not ``sum()``: on Python 3.12+ ``sum([0.1] * 10) == 1.0``, while
    the running sum admission keeps is ``0.9999999999999999``."""
    sim = Simulator()
    engine = ServingEngine(sn40l_platform(), LIBRARY, drain_mode="reference",
                           simulator=sim)
    expert = EXPERTS[0]
    for i, exec_s in enumerate(exec_times):
        request = EngineRequest(i, expert, prompt_tokens=100 + i)
        group = RequestGroup(expert, (request,))
        engine._phase_cache[group.phase_key] = (exec_s, 0.0, 0.0)
        engine.submit(group)
        # Read after each submit too, so the memo's extension path is
        # the one producing the final value.
        engine.estimated_backlog_s()
    assert not engine.busy
    assert engine.estimated_backlog_s() == _left_to_right(exec_times)


def _requests(draw, next_id, count, expert=None):
    out = []
    for _ in range(count):
        out.append(EngineRequest(
            next_id[0], expert or draw(st.sampled_from(EXPERTS)),
            prompt_tokens=draw(st.sampled_from((64, 256, 512))),
            output_tokens=draw(st.integers(1, 24)),
        ))
        next_id[0] += 1
    return out


OPS = ("submit", "submit_plan", "steal", "step", "slow", "halt_drain")


@pytest.mark.parametrize("mode", ["reference", "columnar"])
@settings(max_examples=15, deadline=None)
@given(policy=st.sampled_from(("fifo", "affinity", "overlap")),
       data=st.data())
def test_memo_matches_fresh_sum_over_random_ops(mode, policy, data):
    """After any op sequence the memoized backlog is the fresh sum.

    Reads are interleaved at random, so the memo is both extended from
    a fresh state and left stale across several queue changes.
    """
    sim = Simulator()
    engine = ServingEngine(sn40l_platform(), LIBRARY, policy=policy,
                           max_batch=4, drain_mode=mode, simulator=sim)
    scheduler = make_scheduler(None)
    next_id = [0]
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from((True, True, False))),
        min_size=4, max_size=30,
    ))
    for op, read in ops:
        if op == "submit" and not engine.halted:
            expert = data.draw(st.sampled_from(EXPERTS))
            requests = _requests(data.draw, next_id,
                                 data.draw(st.integers(1, 3)), expert)
            engine.submit(RequestGroup(expert, tuple(requests)))
        elif op == "submit_plan" and not engine.halted:
            requests = _requests(data.draw, next_id,
                                 data.draw(st.integers(1, 12)))
            plan = plan_requests(requests, scheduler, engine.policy,
                                 engine.window, engine.max_batch)
            engine.precompute_phases(plan.shapes)
            engine.submit_plan(plan)
        elif op == "steal" and engine.queue_depth:
            # Target a queued expert, so most steals take a group.
            queued = [g.expert.name for g in engine._queue]
            wanted = data.draw(st.sampled_from(queued))
            engine.steal(lambda e: e.name == wanted)
        elif op == "step" and sim.pending_events:
            sim.run(until=sim.peek_next_time())
        elif op == "slow":
            engine.slow_factor = data.draw(st.sampled_from(SLOW_FACTORS))
        elif op == "halt_drain":
            engine.halt()
            engine.drain()
            if data.draw(st.booleans()):
                # Rebinding starts a fresh run (and a fresh memo).
                sim = Simulator()
                engine.bind(sim)
        if read:
            assert engine.estimated_backlog_s() == _fresh_backlog(engine, sim)
    assert engine.estimated_backlog_s() == _fresh_backlog(engine, sim)
