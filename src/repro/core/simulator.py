"""Event-driven simulator for online data replication.

The simulator owns all system state (which servers hold copies, the cost
ledger, the event log) and drives a :class:`~repro.core.policy.
ReplicationPolicy` over a :class:`~repro.core.trace.Trace`:

* requests are delivered in time order;
* policy-scheduled expirations fire between requests (an expiry at
  exactly a request's time fires *after* the request, matching the
  paper's ``t_i <= E_j`` local-serve condition);
* the at-least-one-copy invariant is enforced on every drop;
* storage cost is integrated continuously and **clipped to the final
  request time** ``t_m`` (the paper's accounting convention for measured
  costs, cf. Section 11's counterexample; :mod:`repro.offline.dp` clips
  the optimum the same way, so online/optimal ratios compare like with
  like).

Copy lifecycles (creation, expiry, special switch, drop) are recorded in
:class:`CopyRecord` objects so the analysis layer can reproduce the
paper's Section 4.1 cost allocation exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .costs import CostLedger, CostModel
from .events import Event, EventKind, EventLog
from .policy import PolicyError, ReplicationPolicy
from .trace import Request, Trace

__all__ = [
    "SimContext",
    "ServeRecord",
    "CopyRecord",
    "SimulationResult",
    "simulate",
    "InteractiveSimulation",
]


@dataclass
class ServeRecord:
    """How one request was served.

    Attributes
    ----------
    request:
        The request served.
    local:
        True when served by a copy already at the request's server.
    source:
        Source server of the transfer (``-1`` for local serves).
    source_special:
        True when the serving copy (local or remote) was *special*,
        i.e. held beyond its intended duration as the system's last copy.
    special_since:
        Time the serving copy switched regular -> special (``nan`` when
        the serving copy was regular).
    """

    request: Request
    local: bool
    source: int
    source_special: bool = False
    special_since: float = float("nan")


@dataclass
class CopyRecord:
    """Lifecycle of one data copy at one server.

    A copy is *opened* when created (or renewed after a local serve: each
    renewal closes the previous record and opens a new one, so each record
    corresponds to exactly one intended-duration period plus its possible
    special extension — the unit of the paper's cost allocation).
    """

    server: int
    start: float
    opening_request: int          # global index of the request that set this period (0 = dummy)
    intended_duration: float = float("inf")
    special_at: float = float("nan")   # time of regular -> special switch
    end: float = float("nan")          # drop or renewal time (nan = still alive at end)
    closed_by: str = "alive"           # "renewed" | "dropped" | "alive"

    @property
    def is_special_at_end(self) -> bool:
        return self.special_at == self.special_at  # not NaN

    def overlaps(self, t: float) -> bool:
        """True if the copy exists at time ``t`` (start-exclusive)."""
        end = self.end if self.end == self.end else float("inf")
        return self.start < t <= end


class SimContext:
    """Action surface handed to policies by the simulator.

    All mutating methods validate legality and record events + costs.
    """

    def __init__(self, model: CostModel, n: int, final_time: float):
        self.model = model
        self.n = n
        self.time = 0.0
        self._final_time = final_time
        self._holding: dict[int, CopyRecord] = {}
        self._closed_records: list[CopyRecord] = []
        self._expiry_heap: list[tuple[float, int, int]] = []
        self._expiry_token: dict[int, int] = {}
        self._token_counter = itertools.count()
        self.ledger = CostLedger(model)
        self.log = EventLog()
        self._current_request: Request | None = None
        self._request_served = False
        self.serves: list[ServeRecord] = []

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------
    def holders(self) -> frozenset[int]:
        """Servers currently holding a copy."""
        return frozenset(self._holding)

    def has_copy(self, server: int) -> bool:
        """True when ``server`` currently holds a copy."""
        return server in self._holding

    @property
    def copy_count(self) -> int:
        """Number of copies currently in the system (``c`` in the paper)."""
        return len(self._holding)

    def copy_record(self, server: int) -> CopyRecord:
        """The live :class:`CopyRecord` at ``server`` (KeyError if none)."""
        return self._holding[server]

    def is_special(self, server: int) -> bool:
        """True when the copy at ``server`` is in its special phase."""
        rec = self._holding.get(server)
        return rec is not None and rec.is_special_at_end

    # ------------------------------------------------------------------
    # serving the current request
    # ------------------------------------------------------------------
    def serve_local(self) -> None:
        """Serve the pending request with the local copy (free)."""
        req = self._require_request()
        if not self.has_copy(req.server):
            raise PolicyError(
                f"serve_local at t={req.time}: server {req.server} has no copy"
            )
        rec = self._holding[req.server]
        self.serves.append(
            ServeRecord(
                req,
                local=True,
                source=-1,
                source_special=rec.is_special_at_end,
                special_since=rec.special_at,
            )
        )
        self._request_served = True
        self.log.append(
            Event(req.time, EventKind.SERVE_LOCAL, req.server, -1, req.index)
        )

    def serve_via_transfer(self, source: int) -> None:
        """Serve the pending request by a transfer from ``source``.

        Charges ``lambda``.  The transfer itself does not create a copy at
        the destination; call :meth:`create_copy` to retain one.
        """
        req = self._require_request()
        if self.has_copy(req.server):
            raise PolicyError(
                f"serve_via_transfer at t={req.time}: server {req.server} "
                "already holds a copy; must serve locally"
            )
        if not self.has_copy(source):
            raise PolicyError(
                f"serve_via_transfer at t={req.time}: source {source} has no copy"
            )
        if source == req.server:
            raise PolicyError("transfer source must differ from destination")
        rec = self._holding[source]
        self.ledger.add_transfer(req.server)
        self.serves.append(
            ServeRecord(
                req,
                local=False,
                source=source,
                source_special=rec.is_special_at_end,
                special_since=rec.special_at,
            )
        )
        self._request_served = True
        self.log.append(
            Event(req.time, EventKind.SERVE_TRANSFER, req.server, source, req.index)
        )

    # ------------------------------------------------------------------
    # copy management
    # ------------------------------------------------------------------
    def create_copy(
        self,
        server: int,
        intended_duration: float = float("inf"),
        opening_request: int = -1,
    ) -> CopyRecord:
        """Create a copy at ``server`` (must not already hold one)."""
        if self.has_copy(server):
            raise PolicyError(f"create_copy: server {server} already holds a copy")
        rec = CopyRecord(server, self.time, opening_request, intended_duration)
        self._holding[server] = rec
        self.log.append(Event(self.time, EventKind.CREATE, server))
        return rec

    def renew_copy(
        self,
        server: int,
        intended_duration: float,
        opening_request: int,
    ) -> CopyRecord:
        """Close the current copy period at ``server`` and open a new one.

        Used after a local serve: the paper treats the post-request copy
        as a fresh regular copy with a new intended duration.  Storage is
        continuous (no drop/create events are emitted); only the lifecycle
        records are split.
        """
        if not self.has_copy(server):
            raise PolicyError(f"renew_copy: server {server} has no copy")
        old = self._holding[server]
        old.end = self.time
        old.closed_by = "renewed"
        self._closed_records.append(old)
        self._charge_storage(old)
        rec = CopyRecord(server, self.time, opening_request, intended_duration)
        self._holding[server] = rec
        self.log.append(Event(self.time, EventKind.RENEW, server))
        return rec

    def drop_copy(self, server: int) -> None:
        """Drop the copy at ``server``; forbidden if it is the last copy."""
        if not self.has_copy(server):
            raise PolicyError(f"drop_copy: server {server} has no copy")
        if self.copy_count == 1:
            raise PolicyError(
                f"drop_copy at t={self.time}: server {server} holds the only "
                "copy (at-least-one-copy invariant)"
            )
        rec = self._holding.pop(server)
        rec.end = self.time
        rec.closed_by = "dropped"
        self._closed_records.append(rec)
        self._charge_storage(rec)
        self.cancel_expiry(server)
        self.log.append(Event(self.time, EventKind.DROP, server))

    def mark_special(self, server: int) -> None:
        """Mark the copy at ``server`` as special (kept as the last copy)."""
        if not self.has_copy(server):
            raise PolicyError(f"mark_special: server {server} has no copy")
        rec = self._holding[server]
        rec.special_at = self.time
        self.log.append(Event(self.time, EventKind.SPECIAL, server))

    def transfer_copy(self, source: int, dest: int) -> CopyRecord:
        """Standalone transfer (outside request service), cost ``lambda``.

        Needed by the Wang et al. baseline, which ships the object back to
        the cheapest server when a renewal expires unused.
        """
        if not self.has_copy(source):
            raise PolicyError(f"transfer_copy: source {source} has no copy")
        if self.has_copy(dest):
            raise PolicyError(f"transfer_copy: dest {dest} already holds a copy")
        self.ledger.add_transfer(dest)
        self.log.append(Event(self.time, EventKind.SERVE_TRANSFER, dest, source, -1))
        return self.create_copy(dest)

    # ------------------------------------------------------------------
    # expiry scheduling
    # ------------------------------------------------------------------
    def schedule_expiry(self, server: int, when: float) -> None:
        """(Re)schedule the expiry callback for ``server`` at ``when``.

        Replaces any previously scheduled expiry for the same server.
        """
        if when < self.time:
            raise PolicyError(
                f"schedule_expiry: {when} is in the past (now {self.time})"
            )
        token = next(self._token_counter)
        self._expiry_token[server] = token
        heapq.heappush(self._expiry_heap, (when, server, token))

    def cancel_expiry(self, server: int) -> None:
        """Invalidate any pending expiry for ``server`` (lazy deletion)."""
        self._expiry_token.pop(server, None)

    # ------------------------------------------------------------------
    # internals used by simulate()
    # ------------------------------------------------------------------
    def _require_request(self) -> Request:
        if self._current_request is None:
            raise PolicyError("no request is pending")
        if self._request_served:
            raise PolicyError("request already served")
        return self._current_request

    def _charge_storage(self, rec: CopyRecord) -> None:
        """Charge the ledger for a closed record, clipped to ``t_m``."""
        end = rec.end if rec.end == rec.end else self._final_time
        start = min(rec.start, self._final_time)
        end = min(end, self._final_time)
        if end > start:
            self.ledger.add_storage(rec.server, end - start)

    def _pop_due_expiry(self, until: float, inclusive: bool) -> tuple[float, int] | None:
        """Next valid expiry with time < until (or <= until)."""
        while self._expiry_heap:
            when, server, token = self._expiry_heap[0]
            if self._expiry_token.get(server) != token:
                heapq.heappop(self._expiry_heap)  # stale entry
                continue
            if when < until or (inclusive and when <= until):
                heapq.heappop(self._expiry_heap)
                self._expiry_token.pop(server, None)
                return when, server
            return None
        return None

    def _finalize(self) -> list[CopyRecord]:
        """Close out live copies (charging storage up to ``t_m``)."""
        records = list(self._closed_records)
        for rec in self._holding.values():
            self._charge_storage(rec)
            records.append(rec)
        records.sort(key=lambda r: (r.start, r.server))
        return records


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    trace: Trace
    model: CostModel
    policy_name: str
    ledger: CostLedger
    log: EventLog
    serves: list[ServeRecord]
    copy_records: list[CopyRecord] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        """Total measured cost (storage clipped to ``t_m`` + transfers)."""
        return self.ledger.total

    @property
    def storage_cost(self) -> float:
        return self.ledger.storage

    @property
    def transfer_cost(self) -> float:
        return self.ledger.transfer

    def serve_of(self, request_index: int) -> ServeRecord:
        """Serve record of request ``r_i`` (1-based index)."""
        return self.serves[request_index - 1]


class InteractiveSimulation:
    """Incremental simulation for adaptive adversaries.

    Unlike :func:`simulate`, requests are submitted one at a time and the
    caller may inspect state between them — exactly what the Section 9
    lower-bound adversary needs ("the adversary generates subsequent
    requests according to the behaviour of the online algorithm").

    Storage accounting is finalised by :meth:`finish`, which clips costs
    to the time of the last submitted request (the standard convention).
    """

    def __init__(self, n: int, model: CostModel, policy: ReplicationPolicy):
        if model.n != n:
            raise ValueError(f"model.n={model.n} != n={n}")
        self.model = model
        self.policy = policy
        self.ctx = SimContext(model, n, float("inf"))
        self._next_index = 1
        self._last_request_time = 0.0
        self._requests: list[Request] = []
        policy.reset(model)
        self.ctx.create_copy(0, opening_request=0)
        policy.on_init(self.ctx)

    # ------------------------------------------------------------------
    def advance_to(self, t: float, inclusive: bool = False) -> list[Event]:
        """Deliver scheduled expirations up to ``t`` and return the
        expiry events fired (strictly before ``t`` unless ``inclusive``)."""
        fired: list[Event] = []
        while True:
            due = self.ctx._pop_due_expiry(t, inclusive=inclusive)
            if due is None:
                break
            when, server = due
            self.ctx.time = when
            if self.ctx.has_copy(server):
                ev = Event(when, EventKind.EXPIRE, server)
                self.ctx.log.append(ev)
                self.policy.on_expiry(self.ctx, server, when)
                fired.append(ev)
        self.ctx.time = max(self.ctx.time, t if inclusive else self.ctx.time)
        return fired

    def holds_copy_at(self, server: int, t: float) -> bool:
        """Whether ``server`` would hold a copy when a request arrives at
        ``t`` (expirations strictly before ``t`` are delivered first)."""
        self.advance_to(t, inclusive=False)
        return self.ctx.has_copy(server)

    def watch_for_drop(
        self, server: int, t_limit: float
    ) -> float | None:
        """Deliver expirations strictly before ``t_limit``; return the time
        ``server`` lost its copy, or None if it survived the window."""
        while True:
            due = self.ctx._pop_due_expiry(t_limit, inclusive=False)
            if due is None:
                return None
            when, srv = due
            self.ctx.time = when
            if self.ctx.has_copy(srv):
                self.ctx.log.append(Event(when, EventKind.EXPIRE, srv))
                self.policy.on_expiry(self.ctx, srv, when)
            if not self.ctx.has_copy(server):
                return when

    def submit(self, t: float, server: int) -> Request:
        """Deliver a new request at ``(t, server)`` to the policy."""
        if t <= self._last_request_time:
            raise ValueError(
                f"request times must be strictly increasing: {t} <= "
                f"{self._last_request_time}"
            )
        self.advance_to(t, inclusive=False)
        req = Request(t, server, self._next_index)
        self._next_index += 1
        self._last_request_time = t
        self._requests.append(req)
        self.ctx.time = t
        self.ctx._current_request = req
        self.ctx._request_served = False
        self.ctx.log.append(Event(t, EventKind.REQUEST, server, -1, req.index))
        self.policy.on_request(self.ctx, req)
        if not self.ctx._request_served:
            raise PolicyError(
                f"{self.policy.name} failed to serve request {req.index}"
            )
        self.ctx._current_request = None
        return req

    def finish(self) -> SimulationResult:
        """Finalise accounting and return the run's result + trace."""
        self.ctx._final_time = self._last_request_time
        records = self.ctx._finalize()
        trace = Trace(
            self.model.n, [(r.time, r.server) for r in self._requests]
        )
        self.ctx.ledger.check_consistency()
        return SimulationResult(
            trace=trace,
            model=self.model,
            policy_name=self.policy.name,
            ledger=self.ctx.ledger,
            log=self.ctx.log,
            serves=self.ctx.serves,
            copy_records=records,
        )


def simulate(
    trace: Trace,
    model: CostModel,
    policy: ReplicationPolicy,
    drain: bool = True,
    drain_event_cap: int | None = None,
) -> SimulationResult:
    """Run ``policy`` over ``trace`` and return the measured outcome.

    Parameters
    ----------
    trace:
        The request sequence.
    model:
        Cost model; ``model.n`` must equal ``trace.n``.
    policy:
        The online strategy to drive.
    drain:
        When True (default), pending expirations after the final request
        are still delivered (without charging post-``t_m`` storage) so
        copy lifecycle records are complete — required by the Section 4.1
        cost-allocation analysis.  Draining stops after ``drain_event_cap``
        events to terminate policies that renew forever.
    """
    if model.n != trace.n:
        raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
    ctx = SimContext(model, trace.n, trace.span)
    policy.reset(model)

    # initial copy at server 0 (dummy request r_0 at time 0)
    ctx.create_copy(0, opening_request=0)
    policy.on_init(ctx)

    for req in trace:
        # deliver expirations strictly before the request, then the request,
        # then expirations at exactly the request time (t_i <= E_j rule).
        while True:
            due = ctx._pop_due_expiry(req.time, inclusive=False)
            if due is None:
                break
            when, server = due
            ctx.time = when
            if ctx.has_copy(server):
                ctx.log.append(Event(when, EventKind.EXPIRE, server))
                policy.on_expiry(ctx, server, when)
        ctx.time = req.time
        ctx._current_request = req
        ctx._request_served = False
        ctx.log.append(Event(req.time, EventKind.REQUEST, req.server, -1, req.index))
        policy.on_request(ctx, req)
        if not ctx._request_served:
            raise PolicyError(
                f"{policy.name} failed to serve request {req.index} at "
                f"t={req.time}"
            )
        ctx._current_request = None

    if drain:
        cap = drain_event_cap if drain_event_cap is not None else 4 * trace.n + 16
        fired = 0
        while fired < cap:
            due = ctx._pop_due_expiry(float("inf"), inclusive=True)
            if due is None:
                break
            when, server = due
            if when == float("inf"):
                continue
            ctx.time = when
            if ctx.has_copy(server):
                ctx.log.append(Event(when, EventKind.EXPIRE, server))
                policy.on_expiry(ctx, server, when)
            fired += 1

    records = ctx._finalize()
    ctx.ledger.check_consistency()
    return SimulationResult(
        trace=trace,
        model=model,
        policy_name=policy.name,
        ledger=ctx.ledger,
        log=ctx.log,
        serves=ctx.serves,
        copy_records=records,
    )
