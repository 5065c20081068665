"""Request scheduling and speculative prefetch for CoE serving.

Two serving-layer optimisations that build on the paper's runtime design
(the paper's Section V-B runtime is FIFO; these are the natural
extensions its architecture enables):

- **Expert-affinity batching** — within a bounded reordering window,
  group requests that need the same expert so one DDR->HBM copy serves
  several generations. The three-tier design makes switches cheap, but a
  hit is still free; affinity turns random arrival streams into runs of
  hits.
- **Speculative prefetch** — the router takes a full model forward pass
  to pick the expert, during which the DMA engines are idle. A Markov
  transition predictor over past routing decisions starts copying its
  best non-resident guess *during* routing; a correct guess hides the
  switch behind the router pass, a wrong guess costs nothing over the
  baseline (the mispredicted copy is abandoned; the bandwidth was
  otherwise idle).

The serving engines' front end runs on the **request plane**: the
backlog as NumPy columns (:class:`RequestBatch`) and its coalesced
schedule as one row per group (:class:`GroupPlan`, built by
:func:`plan_requests`). The object functions here —
:func:`affinity_schedule`, :func:`coalesce_groups` — are the plane's
oracles, and still serve ``drain_mode="reference"`` and the live
engine's streaming :class:`GroupAssembler`.
"""

from __future__ import annotations

import operator
from collections import Counter, OrderedDict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.coe.expert import ExpertProfile
from repro.coe.policies import SchedulerName
from repro.coe.serving import ExpertServer


@dataclass(frozen=True)
class Request:
    """One serving request with a pre-routed expert."""

    request_id: int
    expert: ExpertProfile


@dataclass(frozen=True)
class EngineRequest:
    """One pre-routed request in the serving engines' backlog."""

    request_id: int
    expert: ExpertProfile
    prompt_tokens: int = 256
    output_tokens: int = 20
    #: All requests are queued at t=0 (saturated-server regime); a later
    #: arrival only shrinks the reported queueing latency.
    arrival_s: float = 0.0
    #: Admission-control rank: under deadline pressure (node loss, SLO
    #: shedding) lower-priority requests are shed first.
    priority: int = 0


def fifo_schedule(requests: Sequence[Request]) -> List[Request]:
    """The baseline: serve in arrival order."""
    return list(requests)


def affinity_schedule(requests: Sequence[Request], window: int = 16) -> List[Request]:
    """Group same-expert requests within a bounded reordering window.

    Requests are taken ``window`` at a time; inside a window they are
    stably grouped by expert (groups ordered by first arrival), so no
    request is delayed by more than ``window - 1`` positions — a bounded
    fairness guarantee.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    scheduled: List[Request] = []
    for start in range(0, len(requests), window):
        chunk = requests[start : start + window]
        groups: "OrderedDict[str, List[Request]]" = OrderedDict()
        for request in chunk:
            groups.setdefault(request.expert.name, []).append(request)
        for group in groups.values():
            scheduled.extend(group)
    return scheduled


# ----------------------------------------------------------------------
# Admission-time schedulers (registry mirrors repro.coe.cache's
# CACHE_POLICIES / make_policy pattern)
# ----------------------------------------------------------------------


class Scheduler:
    """Admission-time request reordering, applied to the whole backlog.

    Runs *before* node scheduling: the engines hand the queued requests
    to :meth:`order` once per run (or, live, once per admitted backlog)
    and feed the result through the usual windowed node policy and group
    coalescing. Schedulers are stateless — :meth:`order` is a pure
    function of its input — which is what makes one instance safely
    shareable across cluster nodes and across the sim and live engines
    of a cross-check pair.
    """

    #: Registry key; subclasses set it to a :class:`SchedulerName` value.
    name = "scheduler"

    def order(self, requests: Sequence["Request"]) -> List["Request"]:
        raise NotImplementedError

    def order_rows(self, batch: "RequestBatch") -> Optional[np.ndarray]:
        """:meth:`order` as a permutation of ``batch``'s rows, or None.

        The request plane's array form of this scheduler. None (the
        default) makes the plane call :meth:`order` on the elements, so
        a subclass that overrides :meth:`order` must override this too.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FifoScheduler(Scheduler):
    """Arrival order — the historical admission behaviour, untouched."""

    name = "fifo"

    def order(self, requests: Sequence["Request"]) -> List["Request"]:
        return list(requests)

    def order_rows(self, batch: "RequestBatch") -> np.ndarray:
        return np.arange(len(batch))


class ExpertReorderScheduler(Scheduler):
    """Batch the backlog by expert to amortize tier switches (CoServe).

    :func:`affinity_schedule` with a long horizon: where the node
    policy's ``window`` bounds per-request delay (fairness), the
    admission horizon trades that fairness for switch amortization —
    under a constrained HBM (or DDR) budget, a run of same-expert
    requests turns k misses into one promotion plus k-1 hits, which is
    the whole point of serving a CoE from less memory than its working
    set.
    """

    name = "expert_reorder"

    def __init__(self, horizon: int = 256) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon

    def order(self, requests: Sequence["Request"]) -> List["Request"]:
        return affinity_schedule(requests, window=self.horizon)

    def order_rows(self, batch: "RequestBatch") -> np.ndarray:
        return window_order(batch.codes, self.horizon)

    def __repr__(self) -> str:
        return f"ExpertReorderScheduler(horizon={self.horizon})"


#: What the engines accept wherever a scheduler is expected: a name, an
#: enum member, an instance, a zero-arg factory, or None (FIFO).
SchedulerLike = Optional[object]

#: Every scheduler configurable by name.
SCHEDULERS = SchedulerName.values()

_SCHEDULER_FACTORIES = {
    SchedulerName.FIFO: FifoScheduler,
    SchedulerName.EXPERT_REORDER: ExpertReorderScheduler,
}


def make_scheduler(spec: SchedulerLike = None) -> Scheduler:
    """Coerce a scheduler spec into a :class:`Scheduler` instance.

    Accepts ``None`` (FIFO, the historical behaviour), a name or
    :class:`SchedulerName` member, an existing instance (returned
    as-is), or a zero-arg factory returning one.
    """
    if spec is None:
        return FifoScheduler()
    if isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, (str, SchedulerName)):
        return _SCHEDULER_FACTORIES[SchedulerName.coerce(spec)]()
    if callable(spec):
        scheduler = spec()
        if not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"scheduler factory returned {type(scheduler).__name__}, "
                "expected a Scheduler"
            )
        return scheduler
    raise TypeError(
        f"cannot make a scheduler from {spec!r}; expected a name "
        f"({', '.join(map(repr, SCHEDULERS))}), a Scheduler, or a factory"
    )


@dataclass(frozen=True)
class RequestGroup:
    """A run of same-expert requests served as one batched generation."""

    expert: ExpertProfile
    requests: tuple

    @property
    def batch(self) -> int:
        return len(self.requests)

    @property
    def phase_key(self) -> tuple:
        """Everything the group's phase times depend on, cached.

        Requests in a group may differ in lengths; the batch pads to the
        longest prompt and generation (standard static-batching cost).
        Computed once per group — the serving engine keys its phase memo
        on this from several hot paths (routing, admission, the drain
        loop), and the max() scans over the requests dominate when
        recomputed each time. The cache slot lives in ``__dict__`` only,
        so the generated ``__eq__``/``__hash__``/``repr`` (fields only)
        are unaffected.
        """
        key = self.__dict__.get("_phase_key")
        if key is None:
            key = (
                self.expert.name,
                len(self.requests),
                max(r.prompt_tokens for r in self.requests),
                max(r.output_tokens for r in self.requests),
            )
            object.__setattr__(self, "_phase_key", key)
        return key


def coalesce_groups(
    schedule: Sequence[Request], max_batch: int = 8
) -> List[RequestGroup]:
    """Merge *consecutive* same-expert requests into batched groups.

    One group pays one expert switch and one batched prefill/decode
    instead of ``batch`` batch-of-one generations. Only adjacent requests
    merge (reordering is the scheduler's job — see
    :func:`affinity_schedule`), and groups are capped at ``max_batch`` so
    the batched roofline stays within the platform's calibrated regime.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: List[RequestGroup] = []
    run: List[Request] = []
    for request in schedule:
        if run and (request.expert.name != run[0].expert.name
                    or len(run) >= max_batch):
            groups.append(RequestGroup(expert=run[0].expert, requests=tuple(run)))
            run = []
        run.append(request)
    if run:
        groups.append(RequestGroup(expert=run[0].expert, requests=tuple(run)))
    return groups


# ----------------------------------------------------------------------
# The request plane: the backlog and its schedule as columns
# ----------------------------------------------------------------------


class RequestBatch(SequenceABC):
    """A request backlog as columns, and a ``Sequence[EngineRequest]``.

    One row per request. ``experts`` is the code table — each distinct
    expert once, keyed by name, in first-seen order — and ``codes``
    indexes it; ``ids``, ``prompt_tokens``, ``output_tokens``,
    ``arrivals`` and ``priorities`` are the matching
    :class:`EngineRequest` fields as NumPy columns. The serving engines'
    front end (:func:`plan_requests`) reads only the columns.

    The first index or iteration builds the :class:`EngineRequest`
    elements and caches them, so code that walks the requests one by
    one sees what a plain list would hold. A batch made from a list
    (:meth:`from_requests`) hands back the list's own objects. Slicing
    returns a batch over views of the columns.
    """

    __slots__ = (
        "experts", "codes", "ids", "prompt_tokens", "output_tokens",
        "arrivals", "priorities", "_items",
    )

    def __init__(self, experts, codes, ids, prompt_tokens, output_tokens,
                 arrivals, priorities, items=None) -> None:
        self.experts = experts
        self.codes = codes
        self.ids = ids
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.arrivals = arrivals
        self.priorities = priorities
        #: The elements, once built (see :meth:`elements`).
        self._items: Optional[List[EngineRequest]] = items

    @classmethod
    def uniform(cls, experts: Sequence[ExpertProfile], codes,
                prompt_tokens: int, output_tokens: int) -> "RequestBatch":
        """Requests ``0..n-1`` of one shape, all queued at t=0.

        The constant columns are read-only broadcast views: they cost
        no memory however long the batch.
        """
        codes = np.asarray(codes, dtype=np.int64)
        n = len(codes)

        def constant(value, dtype):
            return np.broadcast_to(np.asarray(value, dtype=dtype), (n,))

        return cls(
            list(experts), codes, np.arange(n, dtype=np.int64),
            constant(prompt_tokens, np.int64),
            constant(output_tokens, np.int64),
            constant(0.0, np.float64), constant(0, np.int64),
        )

    @classmethod
    def from_requests(cls, requests: Sequence[EngineRequest]) -> "RequestBatch":
        """Columns of ``requests`` in one pass (a batch is returned as is)."""
        if isinstance(requests, RequestBatch):
            return requests
        items = list(requests)
        code_of: Dict[str, int] = {}
        experts: List[ExpertProfile] = []
        codes = []
        for request in items:
            code = code_of.get(request.expert.name)
            if code is None:
                code = code_of[request.expert.name] = len(experts)
                experts.append(request.expert)
            codes.append(code)
        n = len(items)

        def column(attr, dtype):
            return np.fromiter(map(operator.attrgetter(attr), items), dtype, n)

        return cls(
            experts, np.asarray(codes, dtype=np.int64),
            column("request_id", np.int64), column("prompt_tokens", np.int64),
            column("output_tokens", np.int64), column("arrival_s", np.float64),
            column("priority", np.int64), items=items,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RequestBatch(
                self.experts, self.codes[index], self.ids[index],
                self.prompt_tokens[index], self.output_tokens[index],
                self.arrivals[index], self.priorities[index],
                items=None if self._items is None else self._items[index],
            )
        return self.elements()[index]

    def elements(self) -> List[EngineRequest]:
        """Every element, in row order (built once, then cached)."""
        if self._items is None:
            experts = self.experts
            columns = (self.ids, self.codes, self.prompt_tokens,
                       self.output_tokens, self.arrivals, self.priorities)
            built: List[EngineRequest] = []
            # Converted a slice at a time, so the Python-scalar copies of
            # the columns never all exist at once.
            for lo in range(0, len(self), _ELEMENT_CHUNK):
                built.extend(
                    EngineRequest(i, experts[c], p, o, a, q)
                    for i, c, p, o, a, q in zip(*(
                        _python_values(col[lo:lo + _ELEMENT_CHUNK])
                        for col in columns
                    ))
                )
            self._items = built
        return self._items

    def __iter__(self) -> Iterator[EngineRequest]:
        return iter(self.elements())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RequestBatch, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"RequestBatch({len(self)} requests over "
                f"{len(self.experts)} experts)")

    # ------------------------------------------------------------------
    def output_total(self) -> int:
        """Sum of ``output_tokens`` over the batch, as a Python int."""
        return int(self.output_tokens.sum())

    def first_duplicate_id(self) -> Optional[int]:
        """The first ``request_id`` (in row order) seen twice, or None."""
        ids = self.ids
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        repeat = ranked[1:] == ranked[:-1]
        if not repeat.any():
            return None
        # Stable order puts each id's first row first, so the repeats
        # are exactly the later rows; the earliest of those names it.
        return int(ids[order[1:][repeat].min()])


#: Rows converted per step when a batch builds all its elements.
_ELEMENT_CHUNK = 4096


def _python_values(column: np.ndarray) -> list:
    """``column.tolist()``, sharing one object when all values are equal
    (a t=0 backlog's arrivals), as a list of literal requests would."""
    if len(column) and (column == column[0]).all():
        return [column[0].item()] * len(column)
    return column.tolist()


def reject_duplicate_ids(requests: Sequence[EngineRequest]) -> None:
    """Raise ``ValueError`` naming the first repeated ``request_id``.

    Every request must be counted exactly once, as completed or shed;
    a repeated id makes that unverifiable.
    """
    if isinstance(requests, RequestBatch):
        dup = requests.first_duplicate_id()
    else:
        seen = set()
        dup = None
        for request in requests:
            if request.request_id in seen:
                dup = request.request_id
                break
            seen.add(request.request_id)
    if dup is not None:
        raise ValueError(f"duplicate request_id {dup!r} in the backlog")


def window_order(codes: np.ndarray, window: int) -> np.ndarray:
    """:func:`affinity_schedule` as a row permutation of ``codes``.

    Each row is keyed by the first row of its (chunk, expert) pair; a
    stable argsort of that key orders the pairs by first arrival and
    keeps rows in arrival order within each — the object schedule,
    row for row.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(codes)
    rows = np.arange(n)
    if window == 1 or n < 2:
        return rows
    key = (rows // window) * (int(codes.max()) + 1) + codes
    by_key = np.argsort(key, kind="stable")
    ranked = key[by_key]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    first = np.empty(n, dtype=np.int64)
    first[by_key] = by_key[head][np.cumsum(head) - 1]
    return np.argsort(first, kind="stable")


def run_starts(codes: np.ndarray, max_batch: int) -> np.ndarray:
    """:func:`coalesce_groups` as group boundaries over ``codes``.

    Run-length encoding of consecutive equal codes, each run split into
    ``max_batch``-sized groups from its start. Returns the ``G + 1``
    group offsets (the last is ``len(codes)``).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    n = len(codes)
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    lengths = np.diff(np.append(starts, n))
    if len(lengths) and lengths.max() > max_batch:
        pieces = (lengths + max_batch - 1) // max_batch
        step = np.arange(pieces.sum()) - np.repeat(
            np.cumsum(pieces) - pieces, pieces)
        starts = np.repeat(starts, pieces) + step * max_batch
    return np.append(starts, n)


class GroupShape(NamedTuple):
    """What a group's phase times depend on: its phase-memo key (expert
    name, batch, longest prompt, longest generation) and the expert.
    Quacks like a :class:`RequestGroup` for
    :meth:`repro.coe.engine.ServingEngine.precompute_phases`."""

    phase_key: tuple
    expert: ExpertProfile


class GroupPlan:
    """A coalesced schedule as columns: the request plane's output.

    ``rows`` lists the batch's rows in serving order, and group ``g``
    owns ``rows[starts[g]:starts[g + 1]]``. Per group: ``codes`` (the
    expert code), ``sizes``, and ``shape_of``, an index into
    ``shapes`` — the plan's distinct :class:`GroupShape`\\ s, which is
    all the phase memo needs.
    """

    __slots__ = ("batch", "rows", "starts", "sizes", "codes", "shape_of",
                 "shapes")

    def __init__(self, batch: RequestBatch, rows: np.ndarray,
                 starts: np.ndarray, codes: np.ndarray) -> None:
        self.batch = batch
        self.rows = rows
        self.starts = starts
        self.codes = codes
        self.sizes = np.diff(starts)
        heads = starts[:-1]
        columns = (
            codes, self.sizes,
            np.maximum.reduceat(batch.prompt_tokens[rows], heads),
            np.maximum.reduceat(batch.output_tokens[rows], heads),
        )
        # One int64 per group packs its shape, when the ranges fit, so
        # finding the distinct shapes is a 1-D unique.
        key = np.zeros(len(codes), dtype=np.int64)
        capacity = 1
        for column in columns:
            span = int(column.max()) + 1 if len(column) else 1
            capacity *= span
            key = key * span + column
        if capacity < 2 ** 63 and all(
                len(c) == 0 or c.min() >= 0 for c in columns):
            _, first, shape_of = np.unique(
                key, return_index=True, return_inverse=True)
            distinct = np.stack([c[first] for c in columns], axis=1)
        else:
            distinct, shape_of = np.unique(
                np.stack(columns, axis=1), axis=0, return_inverse=True)
        self.shape_of = shape_of.reshape(-1)
        experts = batch.experts
        self.shapes = [
            GroupShape((experts[c].name, b, p, o), experts[c])
            for c, b, p, o in distinct.tolist()
        ]

    @classmethod
    def of_groups(cls, groups: Sequence["RequestGroup"]) -> "GroupPlan":
        """The plan of already-coalesced ``groups``, served in order (a
        queue of :meth:`ServingEngine.submit`-ted groups, at drain time)."""
        batch = RequestBatch.from_requests(
            [r for group in groups for r in group.requests])
        starts = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum([len(group.requests) for group in groups], out=starts[1:])
        return cls(batch, np.arange(len(batch)), starts,
                   batch.codes[starts[:-1]])

    def __len__(self) -> int:
        return len(self.codes)

    def expert_of(self, group: int) -> ExpertProfile:
        return self.batch.experts[self.codes[group]]

    def requests_of(self, group: int) -> List[EngineRequest]:
        lo, hi = self.starts[group], self.starts[group + 1]
        batch = self.batch
        return [batch[r] for r in self.rows[lo:hi].tolist()]

    def groups(self, index: Optional[np.ndarray] = None) -> List["RequestGroup"]:
        """:class:`RequestGroup` objects of groups ``index`` (all if None),
        for the drains that walk objects; phase keys come pre-computed."""
        items = self.batch.elements()
        experts = self.batch.experts
        shapes = self.shapes
        rows = self.rows.tolist()
        starts = self.starts.tolist()
        codes = self.codes.tolist()
        shape_of = self.shape_of.tolist()
        out = []
        for g in (range(len(codes)) if index is None else index.tolist()):
            group = RequestGroup(
                expert=experts[codes[g]],
                requests=tuple([items[r] for r in rows[starts[g]:starts[g + 1]]]),
            )
            object.__setattr__(group, "_phase_key", shapes[shape_of[g]].phase_key)
            out.append(group)
        return out

    def priority_order(self) -> np.ndarray:
        """:meth:`ClusterEngine._priority_order` as group indices:
        highest priority first, plan order within a priority."""
        top = np.maximum.reduceat(
            self.batch.priorities[self.rows], self.starts[:-1])
        return np.argsort(-top, kind="stable")


def plan_requests(
    requests: Sequence[EngineRequest],
    scheduler: Scheduler,
    policy: str,
    window: int,
    max_batch: int,
) -> GroupPlan:
    """The serving engines' front end, as arrays.

    Group for group, the plan is
    ``coalesce_groups(node_order(scheduler.order(requests)), max_batch)``
    where ``node_order`` is :func:`affinity_schedule` over ``window``
    (nothing for the ``fifo`` node policy): the scheduler's order and
    the window reorder are stable argsorts (:func:`window_order`), and
    coalescing is run-length encoding (:func:`run_starts`). A scheduler
    with no array form (:meth:`Scheduler.order_rows` is None) orders
    the elements instead.
    """
    batch = RequestBatch.from_requests(requests)
    rows = scheduler.order_rows(batch)
    if rows is None:
        batch = RequestBatch.from_requests(scheduler.order(batch))
        rows = np.arange(len(batch))
    if policy != "fifo":
        rows = rows[window_order(batch.codes[rows], window)]
    codes = batch.codes[rows]
    starts = run_starts(codes, max_batch)
    return GroupPlan(batch, rows, starts, codes[starts[:-1]])


class GroupAssembler:
    """Streaming equivalent of ``coalesce_groups(affinity_schedule(...))``.

    The batch pipeline needs the whole backlog up front; an open-loop
    front end (the live serving engine, or the sim fed by an arrival
    trace) sees requests one at a time. This assembler ingests requests
    incrementally and emits exactly the groups the batch pipeline would
    have built — provably, because both halves of that pipeline are
    already streaming-shaped: :func:`affinity_schedule` is chunk-local
    (it only ever reorders within one ``window``-sized chunk), and
    :func:`coalesce_groups` is a single left-to-right scan whose only
    state is the open run. So buffering one window, reordering it, and
    feeding it through a persistent run-coalescer reproduces the batch
    output group for group — the equivalence property the scheduling
    tests assert, and the reason sim and live backends see the same
    group sequence for the same arrivals.

    ``policy`` is a :class:`repro.coe.policies.NodePolicy` value;
    ``fifo`` skips the window reorder entirely (matching
    ``ServingEngine._order``).
    """

    def __init__(
        self, policy: str = "affinity", window: int = 16, max_batch: int = 8
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.policy = policy
        self.window = window
        self.max_batch = max_batch
        #: The partially-filled reordering window (non-fifo only).
        self._pending: List[Request] = []
        #: The open same-expert run, possibly spanning window boundaries.
        self._run: List[Request] = []

    def _close_run(self) -> RequestGroup:
        group = RequestGroup(expert=self._run[0].expert,
                             requests=tuple(self._run))
        self._run = []
        return group

    def _feed(self, request: Request, out: List[RequestGroup]) -> None:
        """One step of the streaming coalescer (coalesce_groups' loop)."""
        if self._run and (
            request.expert.name != self._run[0].expert.name
            or len(self._run) >= self.max_batch
        ):
            out.append(self._close_run())
        self._run.append(request)

    def _drain_window(self, out: List[RequestGroup]) -> None:
        chunk = self._pending
        self._pending = []
        groups: "OrderedDict[str, List[Request]]" = OrderedDict()
        for request in chunk:
            groups.setdefault(request.expert.name, []).append(request)
        for run in groups.values():
            for request in run:
                self._feed(request, out)

    def push(self, request: Request) -> List[RequestGroup]:
        """Ingest one request; returns the groups this arrival closed."""
        out: List[RequestGroup] = []
        if self.policy == "fifo":
            self._feed(request, out)
            return out
        self._pending.append(request)
        if len(self._pending) >= self.window:
            self._drain_window(out)
        return out

    def flush(self) -> List[RequestGroup]:
        """End of stream: close the partial window and the open run."""
        out: List[RequestGroup] = []
        if self._pending:
            self._drain_window(out)
        if self._run:
            out.append(self._close_run())
        return out


@dataclass
class ScheduleOutcome:
    """Timing and cache behaviour of one served schedule."""

    policy: str
    total_s: float
    switch_s: float
    switches: int
    hits: int

    @property
    def requests(self) -> int:
        return self.switches + self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


def serve_schedule(
    server: ExpertServer,
    schedule: Sequence[Request],
    policy_name: str,
    output_tokens: int = 20,
    prompt_tokens: int = 256,
) -> ScheduleOutcome:
    """Serve a schedule through a server, collecting timing totals."""
    if not schedule:
        raise ValueError("empty schedule")
    result = server.serve_experts(
        [r.expert for r in schedule],
        output_tokens=output_tokens,
        prompt_tokens=prompt_tokens,
    )
    switches = sum(1 for r in result.requests if r.switch_s > 0)
    return ScheduleOutcome(
        policy=policy_name,
        total_s=result.total_s,
        switch_s=result.switch_s,
        switches=switches,
        hits=len(result.requests) - switches,
    )


# ----------------------------------------------------------------------
# Speculative prefetch
# ----------------------------------------------------------------------


class ExpertPredictor:
    """First-order Markov predictor over expert transitions.

    The paper's CoE pipeline is explicitly sequential: "Outputs from one
    expert determine which expert(s) to execute next" (Section I), so the
    strongest signal for the *next* expert is the identity of the current
    one. The predictor learns transition counts (prev -> next) with a
    global-frequency fallback, and can rank all known experts so callers
    can pick the best candidate that is *not* already HBM-resident — the
    only kind of guess whose prefetch hides a switch.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._transitions: Dict[str, Counter] = {}
        self._last_seen: Dict[str, int] = {}
        self._clock = 0
        self._prev: Optional[str] = None
        self._experts: Dict[str, ExpertProfile] = {}
        self.predictions = 0
        self.correct = 0

    def observe(self, expert: ExpertProfile) -> None:
        """Record one routing decision (and the transition into it)."""
        self._clock += 1
        self._counts[expert.name] += 1
        self._last_seen[expert.name] = self._clock
        self._experts[expert.name] = expert
        if self._prev is not None:
            transitions = self._transitions.get(self._prev)
            if transitions is None:
                transitions = self._transitions[self._prev] = Counter()
            transitions[expert.name] += 1
        self._prev = expert.name

    def observe_run(self, experts: Sequence[ExpertProfile]) -> None:
        """Bulk :meth:`observe` of a run of consecutive routing decisions.

        The columnar drain's batch path: leaves the predictor in exactly
        the state n scalar ``observe`` calls would (counts summed per
        name, ``last_seen`` at each name's final clock tick, transition
        pairs — including the edge from the previous run's tail —
        counted in bulk). Nothing reads predictor state mid-run by
        construction (rankings are only consulted at prefetch/eviction
        decision points, which end a run), so the intermediate states a
        scalar sequence would pass through are unobservable.
        """
        if not experts:
            return
        names = [e.name for e in experts]
        clock = self._clock
        self._last_seen.update(
            zip(names, range(clock + 1, clock + len(names) + 1))
        )
        self._clock = clock + len(names)
        self._counts.update(names)
        self._experts.update(zip(names, experts))
        chain = names if self._prev is None else [self._prev] + names
        if len(chain) > 1:
            transitions = self._transitions
            for (prev, nxt), count in Counter(
                zip(chain, chain[1:])
            ).items():
                bucket = transitions.get(prev)
                if bucket is None:
                    bucket = transitions[prev] = Counter()
                bucket[nxt] += count
        self._prev = names[-1]

    def _iter_ranked_names(self) -> Iterator[str]:
        """Yield expert names most-likely-next first, lazily.

        The global-frequency fallback ranking (a sort over *every* known
        expert) is only computed if a consumer exhausts the
        transition-ranked head — the overlap prefetcher usually accepts
        one of the first few candidates, so the common case pays one
        small sort instead of two full ones.
        """
        def global_key(name: str):
            return (self._counts[name], self._last_seen[name])

        head: List[str] = []
        if self._prev is not None and self._prev in self._transitions:
            transitions = self._transitions[self._prev]
            head = sorted(
                transitions,
                key=lambda n: (transitions[n], global_key(n)),
                reverse=True,
            )
            yield from head
        seen = set(head)
        for name in sorted(self._counts, key=global_key, reverse=True):
            if name not in seen:
                yield name

    def _ranked_names(self) -> List[str]:
        return list(self._iter_ranked_names())

    def predict(self) -> Optional[ExpertProfile]:
        """Single best guess for the next expert (None without history)."""
        return next(
            (self._experts[n] for n in self._iter_ranked_names()), None
        )

    def candidates(self) -> List[ExpertProfile]:
        """All known experts, most-likely-next first."""
        return [self._experts[name] for name in self._ranked_names()]

    def iter_candidates(self) -> Iterator[ExpertProfile]:
        """Lazy :meth:`candidates`: same order, ranking computed on
        demand — the cheap path for consumers that stop at the first
        acceptable candidate."""
        return (self._experts[name] for name in self._iter_ranked_names())

    def score(self, actual: ExpertProfile, predicted: Optional[ExpertProfile]) -> bool:
        """Record prediction accuracy; returns whether it was correct.

        A ``None`` prediction (no history yet) is still a prediction the
        caller acted on — it counts as a miss, so ``accuracy`` is hits
        over *all* scored predictions, not just the confident ones.
        """
        self.predictions += 1
        hit = predicted is not None and predicted.name == actual.name
        if hit:
            self.correct += 1
        return hit

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0


@dataclass
class PrefetchOutcome:
    """Timing of a speculatively-prefetched request stream."""

    total_s: float
    baseline_s: float
    hidden_switch_s: float
    predictor_accuracy: float

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.total_s if self.total_s > 0 else 1.0


def serve_with_prefetch(
    server: ExpertServer,
    experts: Sequence[ExpertProfile],
    output_tokens: int = 20,
    prompt_tokens: int = 256,
    predictor: Optional[ExpertPredictor] = None,
) -> PrefetchOutcome:
    """Serve a request stream with speculative prefetch during routing.

    For each request: the predictor guesses an expert and the copy starts
    concurrently with the router's forward pass. If the guess matches the
    router's decision, the switch overlaps the router time (only the
    excess beyond router time remains visible). A wrong guess falls back
    to the sequential baseline; an abandoned speculative copy consumes
    otherwise-idle DMA bandwidth and is not charged.
    """
    if not experts:
        raise ValueError("empty request stream")
    predictor = predictor or ExpertPredictor()
    router_s = server.router_time(batch=1, prompt_tokens=prompt_tokens)
    total = 0.0
    baseline = 0.0
    hidden = 0.0
    for expert in experts:
        # Prefetch the most likely *non-resident* expert: a resident guess
        # would have nothing to copy, so it can never hide a switch.
        guess = next(
            (c for c in predictor.iter_candidates()
             if not server.runtime.is_resident(c)),
            None,
        )
        correct = predictor.score(expert, guess)
        switch = server.runtime.activate(expert)
        prefill, decode = server.expert_time(expert, output_tokens, prompt_tokens)
        sequential = router_s + switch.time_s + prefill + decode
        baseline += sequential
        if correct and switch.time_s > 0:
            overlapped = max(router_s, switch.time_s) + prefill + decode
            hidden += sequential - overlapped
            total += overlapped
        else:
            total += sequential
        predictor.observe(expert)
    return PrefetchOutcome(
        total_s=total,
        baseline_s=baseline,
        hidden_switch_s=hidden,
        predictor_accuracy=predictor.accuracy,
    )
