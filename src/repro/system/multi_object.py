"""Multi-object replication management.

The paper analyses a single data object and notes (Section 2, footnote)
that "different objects can be handled separately" because there are no
capacity limits.  A real deployment hosts many objects, each with its own
request stream, transfer cost (object size), and predictor state.  This
module provides that deployment-facing layer:

* :class:`ObjectSpec` — one object's trace, cost model, and policy
  factory;
* :class:`MultiObjectSystem` — runs every object's simulation, aggregates
  costs, and reports per-object and fleet-level competitive ratios;
* :class:`FleetReport` / :class:`FleetStats` — materialized or streaming
  aggregation of per-object outcomes;
* :func:`split_trace_by_object` — turns a combined ``(time, server,
  object)`` access log into per-object traces.

DESIGN — why sharded and slabbed fleet runs are exact
-----------------------------------------------------
Everything reduces to independent single-object runs (exactly the
paper's decomposition): with no storage capacity limits, the optimal
strategy for the combined instance is the union of per-object optima,
and any per-object guarantee carries to the fleet total.  That
independence is what makes a fleet run at any worker count
*bit-identical* to simulating each object alone, not merely
statistically equivalent:

1. **Per-object costs.**  Each object is one ``(trace, model, policy)``
   cell — the unit a scenario grid cell is, so fleets and grids share
   one runner dispatch (chunks of ``(trace, lambda)`` sub-slabs, see
   :mod:`repro.experiments.runner`) and one slab dispatcher
   (:func:`repro.core.engine.run_policy_slab`).  A slab shares the
   per-trace work — segment chains, and one multi-row pass per
   ``(lambda, alpha)`` group on the kernel — but each cell's arithmetic
   is the kernel replay already proven bit-identical to the reference
   simulator.  Grouping objects by ``(trace digest, lambda)`` only
   changes *which* engine evaluates a cell, never the floats it
   produces.
2. **Offline optima.**  ``optimal_cost(trace, model)`` is a
   deterministic function of ``(trace, lambda, n)``; computing it once
   per distinct ``(trace digest, lambda)`` group and sharing the float
   across the group's objects reproduces the per-object values exactly.
3. **Aggregation order.**  Report totals are left-to-right Python sums
   in spec order.  Chunks complete in nondeterministic order, so the
   runner folds outcomes through an index-ordered reorder buffer: every
   accumulator (:class:`FleetStats`) sees objects in spec order, making
   streaming totals bitwise equal to ``sum()`` over materialized
   outcomes.
4. **Worker state.**  Workers rebuild ``CostModel(lam, n)`` from the
   same scalars and resolve traces by content digest (fork-inherited
   object or mmap of the spooled columns — the exact bytes the parent
   hashed), so policies and predictor RNG streams are bit-identical to
   the ones an in-process run builds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.costs import CostModel
from ..core.engine import CostResult, Engine
from ..core.policy import ReplicationPolicy
from ..core.simulator import SimulationResult
from ..core.trace import Trace, TraceError

__all__ = [
    "ObjectSpec",
    "ObjectOutcome",
    "FleetStats",
    "FleetReport",
    "MultiObjectSystem",
    "split_trace_by_object",
]

PolicyFactory = Callable[[Trace, CostModel], ReplicationPolicy]


@dataclass(frozen=True)
class ObjectSpec:
    """One object's workload and configuration.

    ``lam`` scales with object size (a bigger object costs more to
    transfer); ``policy_factory`` builds a fresh policy per run so that
    predictor state never leaks across objects.
    """

    object_id: str
    trace: Trace
    lam: float
    policy_factory: PolicyFactory

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(
                f"object {self.object_id}: lambda must be > 0, got {self.lam}"
            )


@dataclass(frozen=True)
class ObjectOutcome:
    """Result of one object's simulation plus its offline optimum.

    ``result`` is a full :class:`SimulationResult` under the reference
    engine, or a cost-only :class:`CostResult` under the kernel.
    ``n_requests`` is recorded at fold time so report tables never need
    to reach through ``result.trace`` (cost-only results assembled from
    compact worker rows still carry the parent's trace, but streaming
    consumers must not depend on it).
    """

    object_id: str
    result: SimulationResult | CostResult
    optimal: float
    n_requests: int = -1

    @property
    def online(self) -> float:
        return self.result.total_cost

    @property
    def ratio(self) -> float:
        if self.optimal == 0:
            return 1.0 if self.online == 0 else float("inf")
        return self.online / self.optimal

    @property
    def requests(self) -> int:
        """Request count, from the recorded field or the result trace."""
        if self.n_requests >= 0:
            return self.n_requests
        return len(self.result.trace)


#: log-spaced ratio buckets: 16 per decade over [1, 10^4)
_SKETCH_PER_DECADE = 16
_SKETCH_DECADES = 4
_SKETCH_BUCKETS = _SKETCH_PER_DECADE * _SKETCH_DECADES


class _RatioSketch:
    """Deterministic log-bucket histogram of per-object ratios.

    Fixed bucket edges (no data-dependent rebalancing), so observing the
    same ratios in any order yields the same counts — quantiles are
    reproducible across serial, sharded, and streaming runs.  Quantile
    answers are bucket upper edges: exact to a factor of
    ``10^(1/16) ~ 1.15``, which is ample for fleet dashboards.
    """

    __slots__ = ("underflow", "overflow", "counts")

    def __init__(self) -> None:
        self.underflow = 0          # ratio < 1 (fp slack below optimal)
        self.overflow = 0           # ratio >= 10^4, or infinite
        self.counts = [0] * _SKETCH_BUCKETS

    def observe(self, ratio: float) -> None:
        if not math.isfinite(ratio) or ratio >= 10.0**_SKETCH_DECADES:
            self.overflow += 1
            return
        if ratio < 1.0:
            self.underflow += 1
            return
        idx = int(math.log10(ratio) * _SKETCH_PER_DECADE)
        # guard the fp edge where log10 rounds up to the next bucket
        self.counts[min(idx, _SKETCH_BUCKETS - 1)] += 1

    @property
    def total(self) -> int:
        return self.underflow + self.overflow + sum(self.counts)

    def quantile(self, q: float) -> float:
        """Upper bucket edge of the ``q``-quantile ratio (nan if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            return float("nan")
        rank = min(total - 1, int(q * total))
        cum = self.underflow
        if rank < cum:
            return 1.0
        for i, c in enumerate(self.counts):
            cum += c
            if rank < cum:
                return 10.0 ** ((i + 1) / _SKETCH_PER_DECADE)
        return float("inf")


class FleetStats:
    """Streaming per-object accumulator behind :class:`FleetReport`.

    Holds O(top_k + sketch) state regardless of fleet size: running
    totals, the worst object, a fixed log-bucket ratio sketch, and a
    top-k offender heap.  Objects must be observed in spec order for
    totals to stay bitwise equal to a left-to-right ``sum()`` (the runner's
    reorder buffer guarantees that; see the module DESIGN docstring).
    """

    def __init__(self, top_k: int = 16):
        self.top_k = max(0, int(top_k))
        self.n_objects = 0
        self.online_total = 0.0
        self.optimal_total = 0.0
        self.n_requests_total = 0
        self.worst_object_id: str | None = None
        self._worst_ratio: float | None = None
        self.sketch = _RatioSketch()
        # min-heap of (ratio, -order, object_id, online, optimal,
        # n_requests): ties prefer the earliest-observed object
        self._top: list[tuple] = []

    def observe(
        self,
        object_id: str,
        online: float,
        optimal: float,
        n_requests: int,
    ) -> None:
        if optimal == 0:
            ratio = 1.0 if online == 0 else float("inf")
        else:
            ratio = online / optimal
        order = self.n_objects
        self.n_objects += 1
        self.online_total += online
        self.optimal_total += optimal
        self.n_requests_total += max(0, n_requests)
        if self._worst_ratio is None or ratio > self._worst_ratio:
            self._worst_ratio = ratio
            self.worst_object_id = object_id
        self.sketch.observe(ratio)
        if self.top_k:
            item = (ratio, -order, object_id, online, optimal, n_requests)
            if len(self._top) < self.top_k:
                heapq.heappush(self._top, item)
            elif item > self._top[0]:
                heapq.heapreplace(self._top, item)

    @property
    def worst_ratio(self) -> float:
        """Worst per-object ratio seen (1.0 for an empty fleet, matching
        ``max(ratios, default=1.0)`` on the materialized path)."""
        return 1.0 if self._worst_ratio is None else self._worst_ratio

    def top_offenders(self) -> list[dict]:
        """The ``top_k`` worst objects, ratio-descending (ties: earliest
        observed first)."""
        rows = sorted(self._top, reverse=True)
        return [
            {
                "object_id": object_id,
                "ratio": ratio,
                "online": online,
                "optimal": optimal,
                "n_requests": n_requests,
            }
            for ratio, _neg_order, object_id, online, optimal, n_requests in rows
        ]


class FleetReport:
    """Aggregated outcome across all objects.

    Two modes share one ``add()`` entry point:

    * ``materialize=True`` (default) keeps every :class:`ObjectOutcome`
      in :attr:`outcomes` — the historical behaviour, right for small
      fleets and notebook inspection;
    * ``materialize=False`` streams each object through
      :class:`FleetStats` only, so a million-object run holds O(top_k)
      state: totals, worst object, ratio quantiles, and the top-k
      offender table survive, individual outcomes do not.

    Totals are identical between the modes bit for bit when objects are
    added in the same order (the streaming accumulator performs the
    same left-to-right float additions as ``sum()`` over the list).
    """

    def __init__(
        self,
        outcomes: Iterable[ObjectOutcome] | None = None,
        materialize: bool = True,
        top_k: int = 16,
    ):
        self.materialize = bool(materialize)
        self.outcomes: list[ObjectOutcome] = []
        self.stats = FleetStats(top_k=top_k)
        for o in outcomes or ():
            self.add_outcome(o)

    # ------------------------------------------------------------------
    def add(
        self,
        object_id: str,
        online: float,
        optimal: float,
        n_requests: int,
        result: SimulationResult | CostResult | None = None,
    ) -> None:
        """Fold one object in (spec order for bit-identical totals).

        ``result`` is required when materializing; streaming reports
        accept and ignore it.
        """
        self.stats.observe(object_id, online, optimal, n_requests)
        if self.materialize:
            if result is None:
                raise ValueError(
                    "materialized FleetReport.add() needs the result object; "
                    "pass materialize=False for cost-only streaming"
                )
            self.outcomes.append(
                ObjectOutcome(object_id, result, optimal, n_requests)
            )

    def add_outcome(self, outcome: ObjectOutcome) -> None:
        """Fold a pre-built outcome (spec order, as with :meth:`add`)."""
        self.stats.observe(
            outcome.object_id, outcome.online, outcome.optimal, outcome.requests
        )
        if self.materialize:
            self.outcomes.append(outcome)

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self.outcomes) if self.outcomes else self.stats.n_objects

    @property
    def online_total(self) -> float:
        # the materialized sum tolerates outcomes appended directly to
        # the list (bypassing add); both paths produce identical floats
        # when add() saw every object
        if self.outcomes:
            return sum(o.online for o in self.outcomes)
        return self.stats.online_total

    @property
    def optimal_total(self) -> float:
        if self.outcomes:
            return sum(o.optimal for o in self.outcomes)
        return self.stats.optimal_total

    @property
    def fleet_ratio(self) -> float:
        if self.optimal_total == 0:
            return 1.0 if self.online_total == 0 else float("inf")
        return self.online_total / self.optimal_total

    @property
    def worst_object_ratio(self) -> float:
        if self.outcomes:
            return max((o.ratio for o in self.outcomes), default=1.0)
        return self.stats.worst_ratio

    def ratio_quantile(self, q: float) -> float:
        """Approximate per-object ratio quantile from the log sketch.

        The sketch answers bucket upper edges; capping them at the worst
        ratio keeps every quantile at or below the worst object while
        staying within the sketch's ``10^(1/16)`` factor of the true
        quantile, which lies in the same bucket and never exceeds it.
        """
        return min(self.stats.sketch.quantile(q), self.worst_object_ratio)

    def top_offenders(self) -> list[dict]:
        """Worst objects by ratio (at most ``top_k`` rows, descending)."""
        return self.stats.top_offenders()

    def by_object(self) -> dict[str, ObjectOutcome]:
        if not self.materialize and self.stats.n_objects:
            raise ValueError(
                "streaming FleetReport holds no per-object outcomes; use "
                "top_offenders() / summary_table(), or run with "
                "materialize=True"
            )
        return {o.object_id: o for o in self.outcomes}

    def summary_table(self, top_k: int | None = None) -> str:
        """Human-readable per-object breakdown.

        Materialized reports list every object (sorted by id) unless
        ``top_k`` caps the table at the worst offenders; streaming
        reports always show the accumulator's top-k offender rows.  The
        TOTAL line is fleet-wide in every case.
        """
        header = (
            f"{'object':<24} {'requests':>9} {'online':>12} "
            f"{'optimal':>12} {'ratio':>7}"
        )
        lines = [header]
        n_total = self.n_objects
        if self.outcomes:
            rows = sorted(self.outcomes, key=lambda x: x.object_id)
            if top_k is not None and len(rows) > top_k:
                rows = sorted(
                    self.outcomes, key=lambda x: (-x.ratio, x.object_id)
                )[:top_k]
            for o in rows:
                lines.append(
                    f"{o.object_id:<24} {o.requests:>9} "
                    f"{o.online:>12,.0f} {o.optimal:>12,.0f} {o.ratio:>7.3f}"
                )
            shown = len(rows)
            requests_total = sum(o.requests for o in self.outcomes)
        else:
            offenders = self.top_offenders()
            if top_k is not None:
                offenders = offenders[:top_k]
            for row in offenders:
                lines.append(
                    f"{row['object_id']:<24} {row['n_requests']:>9} "
                    f"{row['online']:>12,.0f} {row['optimal']:>12,.0f} "
                    f"{row['ratio']:>7.3f}"
                )
            shown = len(offenders)
            requests_total = self.stats.n_requests_total
        if shown < n_total:
            lines.append(
                f"{'...':<24} (top {shown} of {n_total} objects by ratio)"
            )
        lines.append(
            f"{'TOTAL':<24} {requests_total:>9} "
            f"{self.online_total:>12,.0f} {self.optimal_total:>12,.0f} "
            f"{self.fleet_ratio:>7.3f}"
        )
        return "\n".join(lines)


class MultiObjectSystem:
    """Simulate a fleet of independently replicated objects.

    The decomposition is exact: with no storage capacity limits, the
    optimal strategy for the combined instance is the union of per-object
    optima, and any per-object competitive guarantee carries to the
    fleet total (a ratio-weighted average of per-object ratios).  See
    the module DESIGN docstring for why a run at any worker count is
    bit-identical to simulating each object alone.
    """

    def __init__(self, n: int, specs: Iterable[ObjectSpec]):
        if n <= 0:
            raise ValueError(f"need at least one server, got n={n}")
        self.n = n
        self.specs = list(specs)
        ids = [s.object_id for s in self.specs]
        if len(set(ids)) != len(ids):
            raise ValueError("object_ids must be unique")
        for s in self.specs:
            if s.trace.n != n:
                raise ValueError(
                    f"object {s.object_id}: trace.n={s.trace.n} != system n={n}"
                )

    def run(
        self,
        compute_optimal: bool = True,
        runner=None,
        engine: str | Engine = "reference",
        materialize: bool = True,
        top_k: int = 16,
    ) -> FleetReport:
        """Simulate every object; optionally skip the offline optima.

        The fleet runs through ``runner``'s
        :meth:`~repro.experiments.ExperimentRunner.run_fleet`: objects
        sharing a ``(trace, lambda)`` evaluate as one cross-object engine
        slab (:func:`~repro.core.engine.run_policy_slab`), and each
        group's offline optimum is computed once.  The default
        (``None``) is ``ExperimentRunner(workers=1)``, in-process; a
        runner with workers shards the objects across processes with
        bit-identical results (objects are independent).

        ``engine`` selects the simulation engine per object.  The default
        ``"reference"`` keeps full per-object telemetry in the report
        (serves, event logs, copy records); ``"auto"``/``"kernel"``
        runs cost-only where the kernel supports the policy — outcomes
        then carry a
        :class:`~repro.core.engine.CostResult` with identical costs but
        no telemetry.

        ``materialize=False`` streams outcomes through the
        :class:`FleetStats` accumulator instead of keeping one
        :class:`ObjectOutcome` per object; ``top_k`` sizes its offender
        table.
        """
        if runner is None:
            from ..experiments.runner import ExperimentRunner

            runner = ExperimentRunner(workers=1)
        return runner.run_fleet(
            self,
            compute_optimal=compute_optimal,
            engine=engine,
            materialize=materialize,
            top_k=top_k,
        )


def split_trace_by_object(
    accesses: Sequence[tuple[float, int, str]],
    n: int,
) -> dict[str, Trace]:
    """Split a combined access log into per-object traces.

    ``accesses`` holds ``(time, server, object_id)`` records in any
    order.  Per-object request times must be distinct (the paper's
    assumption); a collision raises :class:`TraceError`.

    The per-row Python loop is replaced by array columns and one global
    lexsort ordering rows by ``(object, time)``: the object ids become a
    fixed-width unicode column (sorted directly — cheaper than
    object-dtype uniquing), group boundaries fall out of one adjacent
    inequality over the sorted ids, and all trace invariants are checked
    in one vectorized pass over the whole sorted log (resetting the
    previous-time column at group starts) instead of once per group — so
    each per-object trace adopts a zero-copy slice of the sorted columns
    with no further validation.  Error messages match the scalar path
    exactly, including the first-violating object and its local request
    index (the server sort key only matters for rows tying on time —
    a collision that is about to raise — and keeps the reported
    violation identical to a per-object ``(time, server)`` sort).
    Object ids are returned in sorted order.
    """
    records = accesses if isinstance(accesses, list) else list(accesses)
    if not records:
        return {}
    times = np.asarray([r[0] for r in records], dtype=np.float64)
    servers = np.asarray([r[1] for r in records], dtype=np.int64)
    objects = np.asarray([r[2] for r in records])
    order = np.lexsort((servers, times, objects))
    obj_sorted = objects[order]
    times = times[order]
    servers = servers[order]
    boundary = np.nonzero(obj_sorted[1:] != obj_sorted[:-1])[0] + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [len(obj_sorted)]))
    # One global invariant pass: per-group "previous time" is the sorted
    # times column shifted by one, reset to 0.0 at every group start.
    prevs = np.empty_like(times)
    prevs[0] = 0.0
    prevs[1:] = times[:-1]
    prevs[boundary] = 0.0
    finite = np.isfinite(times)
    bad = ~finite | (times <= prevs) | (servers < 0) | (servers >= n)
    if bad.any():
        k = int(np.argmax(bad))
        key = obj_sorted[k].item()
        i = k - int(starts[np.searchsorted(starts, k, side="right") - 1])
        if not finite[k]:
            raise TraceError(
                f"object {key}: request times must be finite "
                f"(violation at index {i + 1}: {times[k]})"
            )
        if times[k] <= prevs[k]:
            raise TraceError(
                f"object {key}: request times must be strictly increasing "
                f"and > 0 (violation at index {i + 1}: "
                f"{times[k]} <= {prevs[k]})"
            )
        if servers[k] < 0:
            raise TraceError(
                f"object {key}: server index must be >= 0, got {servers[k]}"
            )
        raise TraceError(
            f"object {key}: request {i + 1} at server {servers[k]} but n={n}"
        )
    out: dict[str, Trace] = {}
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        key = obj_sorted[lo].item()
        try:
            out[key] = Trace.from_arrays(
                times[lo:hi], servers[lo:hi], n=n, validate=False
            )
        except TraceError as exc:
            raise TraceError(f"object {key}: {exc}") from exc
    return out
