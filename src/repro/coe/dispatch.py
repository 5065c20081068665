"""The pure cluster-dispatch core, shared by the sim and live backends.

:class:`repro.coe.cluster_engine.ClusterEngine` (discrete-event) and
:class:`repro.coe.live_engine.LiveEngine` (asyncio wall clock) must make
**byte-identical** dispatch and admission decisions for the same group
sequence — that is the contract the sim/live cross-check enforces. The
only way to guarantee that is to make the decision math a pure function
of explicitly-passed policy state, with no clock in sight; both engines
call these functions with state they maintain by identical rules:

- ``backlog_of(i)`` — the admission-logical backlog of node ``i``: the
  running float sum of every previously admitted group's execution
  time, accumulated in admission order (the cluster engine's
  ``_admit_scalar`` running sums; the object front end's
  ``ServingEngine.estimated_backlog_s``, whose memo ``submit`` extends
  by the same ``+=``; the live dispatcher's mirror of them). Never a
  measured quantity. Every one of them adds left to right from 0.0 —
  never ``sum()``, which is compensated from Python 3.12 on and so
  not bitwise a running ``+=``.
- ``tail_of(i)`` — the expert name of the last group admitted to node
  ``i`` (the queue tail at admission time), or None.

Floats flow through unchanged — same additions in the same order on
both backends — so even the tie-breaks agree bit for bit.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


def choose_node(
    owner_indices: Sequence[int],
    expert_name: str,
    backlog_of: Callable[[int], float],
    tail_of: Callable[[int], Optional[str]],
    affinity: bool,
) -> int:
    """Pick the owner node for a group of ``expert_name`` requests.

    Least-loaded over ``owner_indices`` with index as the tie-break;
    with ``affinity``, owners whose admission tail already ends in this
    expert form the candidate pool first (extending a same-expert run
    avoids a future switch on that node).
    """
    if not owner_indices:
        raise ValueError(f"no node hosts expert {expert_name!r}")
    pool = owner_indices
    if affinity:
        tail_match = [
            i for i in owner_indices if tail_of(i) == expert_name
        ]
        if tail_match:
            pool = tail_match
    return min(pool, key=lambda i: (backlog_of(i), i))


def admission_eta(now: float, backlog_s: float, exec_s: float) -> float:
    """Estimated completion of a group admitted now behind ``backlog_s``.

    The one expression both backends use — a single float sum, so the
    deadline comparison below sees the identical value on either clock.
    """
    return now + backlog_s + exec_s


def deadline_admits(eta: float, deadline_s: Optional[float]) -> bool:
    """Whether an ETA meets the SLO deadline (no deadline admits all)."""
    return deadline_s is None or eta <= deadline_s


__all__ = ["admission_eta", "choose_node", "deadline_admits"]
