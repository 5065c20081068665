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
  time, accumulated in admission order. :class:`AdmissionLedger` keeps
  these sums for the cluster engine's column admission and the live
  dispatcher alike; the object front end reads
  ``ServingEngine.estimated_backlog_s``, whose memo ``submit`` extends
  by the same ``+=``. Never a measured quantity, and always added left
  to right from 0.0 — never ``sum()``, which is compensated from
  Python 3.12 on and so not bitwise a running ``+=``.
- ``tail_of(i)`` — the expert name of the last group admitted to node
  ``i`` (the queue tail at admission time), or None.

Floats flow through unchanged — same additions in the same order on
both backends — so even the tie-breaks agree bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.coe.decisions import DecisionLog


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


class AdmissionLedger:
    """The admission-logical state of a cluster, and its only recorder.

    Holds each node's backlog running sum and queue-tail expert as
    admission sees them, routes through :func:`choose_node` (a single
    owner is taken without a scan), and writes every ``admission``
    stream record (``admit`` verdicts with the ETA at full ``repr``
    precision, ``dispatch`` targets). The cluster engine's column
    admission and the live dispatcher both admit through one ledger,
    so their decision streams agree by construction. The cluster's
    group-by-group path (``ClusterEngine._dispatch``, also used to
    re-dispatch after a crash) routes on its real queues' backlogs and
    tails instead, passed to :meth:`route`, and records through
    :meth:`verdict` and :meth:`dispatched`.
    """

    __slots__ = ("names", "owners", "affinity", "deadline_s", "decisions",
                 "backlog", "tails")

    def __init__(
        self,
        names: Sequence[str],
        owners: Dict[str, List[int]],
        *,
        affinity: bool,
        deadline_s: Optional[float] = None,
        decisions: Optional[DecisionLog] = None,
    ) -> None:
        #: Node names, by index (the records' node field).
        self.names = list(names)
        #: Expert name -> indices of the nodes hosting it, read live.
        self.owners = owners
        self.affinity = affinity
        self.deadline_s = deadline_s
        self.decisions = decisions
        self.backlog = [0.0] * len(self.names)
        self.tails: List[Optional[str]] = [None] * len(self.names)

    def route(
        self,
        expert_name: str,
        backlog_of: Optional[Callable[[int], float]] = None,
        tail_of: Optional[Callable[[int], Optional[str]]] = None,
    ) -> int:
        """The node index for a group of ``expert_name`` requests.

        Routes on the ledger's own sums and tails unless the caller
        passes other ones (the cluster's real queues).
        """
        owners = self.owners.get(expert_name)
        if not owners:
            raise KeyError(f"no node hosts expert {expert_name!r}")
        if len(owners) == 1:
            # One replica, no choice: choose_node would return it too.
            return owners[0]
        return choose_node(
            owners, expert_name,
            backlog_of=backlog_of or self.backlog.__getitem__,
            tail_of=tail_of or self.tails.__getitem__,
            affinity=self.affinity,
        )

    def verdict(self, node: int, label: str, eta: float) -> bool:
        """Deadline verdict on a group routed to ``node``; records it."""
        admitted = deadline_admits(eta, self.deadline_s)
        if self.decisions is not None:
            self.decisions.record(
                "admission", "admit", label,
                "admit" if admitted else "shed",
                detail=(self.names[node], repr(eta)),
            )
        return admitted

    def dispatched(self, node: int, label: str) -> None:
        """Record that a group was dispatched to ``node``."""
        if self.decisions is not None:
            self.decisions.record("admission", "dispatch", label,
                                  self.names[node])

    def admit(self, node: int, expert_name: str, batch: int,
              exec_s: float) -> bool:
        """Admit a routed group at logical ``now = 0.0``.

        Returns False when the deadline sheds it. An admitted group is
        dispatched and extends ``node``'s backlog sum and tail.
        """
        label = (f"{expert_name}x{batch}" if self.decisions is not None
                 else "")
        if self.deadline_s is not None and not self.verdict(
            node, label, admission_eta(0.0, self.backlog[node], exec_s)
        ):
            return False
        self.dispatched(node, label)
        self.backlog[node] += exec_s
        self.tails[node] = expert_name
        return True


__all__ = ["AdmissionLedger", "admission_eta", "choose_node",
           "deadline_admits"]
