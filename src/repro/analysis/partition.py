"""The Section 5 division (partition) machinery.

The paper's competitive analysis divides a request sequence into
partitions based on the *optimal offline strategy*: a request ``r_i`` is
a partition boundary when no server other than ``s[r_i]`` holds a copy
crossing ``t_i``.  Within each partition ``<r_d, ..., r_e>`` the analysis
bounds ``Online(d, e) / OPT(d, e)`` by the robustness/consistency
constants, and the global ratio follows by aggregation.

This module makes that argument *executable*:

1. reconstruct the optimal strategy's storage intervals from the DP
   schedule (kept inter-request intervals plus bridging copies);
2. locate the partition boundaries;
3. charge the online algorithm's Proposition 2 allocations and the
   optimal strategy's storage/transfer costs to partitions;
4. report per-partition ratios.

Tests verify that every per-partition ratio respects the paper's bounds,
which validates the analysis machinery end-to-end on arbitrary traces —
a much sharper check than the aggregate ratio alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat

from ..algorithms.learning_augmented import RequestClassification
from ..core.costs import CostModel
from ..core.simulator import SimulationResult
from ..core.trace import Trace
from ..offline.dp import optimal_schedule
from .competitive import allocate_costs

__all__ = [
    "OptimalHoldings",
    "Partition",
    "reconstruct_optimal_holdings",
    "find_partitions",
    "partition_report",
]


@dataclass(frozen=True)
class OptimalHoldings:
    """Storage intervals of one optimal offline strategy.

    ``intervals`` maps each server to a list of ``(start, end)`` holding
    periods, sorted and disjoint; ``transfers`` lists the times of
    transfer-served requests, in request order; ``total_cost`` is the
    strategy's cost (== the DP optimum).
    """

    intervals: dict[int, list[tuple[float, float]]]
    transfers: tuple[float, ...]
    total_cost: float
    #: per server, the interval starts and ends as sorted lists, for
    #: bisection
    _bounds: dict[int, tuple[list[float], list[float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_bounds", {
            s: ([a for a, _ in ivs], [b for _, b in ivs])
            for s, ivs in self.intervals.items()
        })

    def holder_crossing(self, t: float, exclude: int | None = None) -> int | None:
        """A server (other than ``exclude``) holding a copy crossing time
        ``t`` (strictly containing ``t`` in the interior of a holding
        period), or None."""
        for server, (starts, ends) in self._bounds.items():
            if server == exclude:
                continue
            # the one interval that can contain t: the last starting
            # before it
            k = bisect_left(starts, t) - 1
            if k >= 0 and t < ends[k]:
                return server
        return None


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge touching/overlapping intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [intervals[0]]
    for a, b in intervals[1:]:
        la, lb = out[-1]
        if a <= lb + 1e-12:
            out[-1] = (la, max(lb, b))
        else:
            out.append((a, b))
    return out


def reconstruct_optimal_holdings(
    trace: Trace, model: CostModel
) -> OptimalHoldings:
    """Materialise the DP-optimal strategy as concrete storage intervals.

    * a ``keep`` decision at ``r_i`` holds a copy at ``s[r_i]`` over
      ``(t_i, nextlocal(i))``;
    * an uncovered gap ``(t_{i-1}, t_i)`` is bridged by extending the
      copy at ``s[r_{i-1}]`` (the server of the previous request, which
      always holds the object right after serving it);
    * requests not served locally are transfer-served.
    """
    cost, decisions = optimal_schedule(trace, model)
    seq = trace.with_dummy()
    nxt = trace.next_local_time()

    per_server: dict[int, list[tuple[float, float]]] = {}
    transfers: list[float] = []

    for d in decisions:  # covers r_0 .. r_m
        i = d.request_index
        if d.keep and nxt[i] != float("inf"):
            per_server.setdefault(seq[i].server, []).append(
                (seq[i].time, nxt[i])
            )
        if d.bridged:
            # the at-least-one-copy bridge extends the previous request's
            # server's copy across the uncovered gap
            prev = seq[i - 1]
            per_server.setdefault(prev.server, []).append(
                (prev.time, seq[i].time)
            )

    # a request is served locally iff a reconstructed interval at its own
    # server contains its arrival time (kept intervals end exactly at the
    # request they serve); everything else is transfer-served.  Some
    # interval a < t <= b + 1e-12 exists iff the latest end among the
    # intervals starting before t reaches it, so each server's intervals
    # are sorted by start with running maxima of their ends.
    reach: dict[int, tuple[list[float], list[float]]] = {}
    for server, ivs in per_server.items():
        ivs = sorted(ivs)
        ends = [b for _, b in ivs]
        for k in range(1, len(ends)):
            if ends[k] < ends[k - 1]:
                ends[k] = ends[k - 1]
        reach[server] = ([a for a, _ in ivs], ends)
    for r in trace:
        starts, ends = reach.get(r.server, ((), ()))
        k = bisect_left(starts, r.time) - 1
        if k < 0 or not r.time <= ends[k] + 1e-12:
            transfers.append(r.time)

    merged = {s: _merge(iv) for s, iv in per_server.items()}
    return OptimalHoldings(
        intervals=merged,
        transfers=tuple(transfers),
        total_cost=cost,
    )


@dataclass(frozen=True)
class Partition:
    """One partition ``<r_d, ..., r_e>`` of the division analysis.

    ``d`` and ``e`` are request indices (``d = 0`` denotes the dummy
    request).  ``online`` is the total Proposition 2 allocation of
    requests ``r_{d+1} .. r_e``; ``opt`` is the optimal strategy's cost
    over ``(t_d, t_e]``; ``ratio`` their quotient.
    """

    d: int
    e: int
    online: float
    opt: float

    @property
    def ratio(self) -> float:
        if self.opt <= 0:
            return float("inf") if self.online > 0 else 1.0
        return self.online / self.opt


def find_partitions(trace: Trace, holdings: OptimalHoldings) -> list[tuple[int, int]]:
    """Partition boundaries per Section 5.

    A request ``r_i`` is a boundary when no *other* server holds a copy
    crossing ``t_i`` in the optimal strategy.  The dummy request and the
    final request are always boundaries.
    """
    boundaries = [0]
    m = len(trace)
    for r in trace:
        if r.index == m:
            break
        if holdings.holder_crossing(r.time, exclude=r.server) is None:
            boundaries.append(r.index)
    boundaries.append(m)
    # deduplicate while preserving order
    seen = set()
    uniq = []
    for b in boundaries:
        if b not in seen:
            seen.add(b)
            uniq.append(b)
    return [(uniq[k], uniq[k + 1]) for k in range(len(uniq) - 1)]


def partition_report(
    trace: Trace,
    model: CostModel,
    result: SimulationResult,
    classifications: list[RequestClassification],
) -> list[Partition]:
    """Per-partition online/optimal cost breakdown.

    The online side uses the Proposition 2 allocation (so partition sums
    aggregate to the paper's online total); the optimal side charges each
    partition the optimal strategy's storage within ``(t_d, t_e]`` plus
    the transfers serving requests in that window.
    """
    holdings = reconstruct_optimal_holdings(trace, model)
    alloc = allocate_costs(result, classifications)
    bounds = find_partitions(trace, holdings)
    seq = trace.with_dummy()

    out: list[Partition] = []
    for d, e in bounds:
        t_d, t_e = seq[d].time, seq[e].time
        online = sum(alloc.get(i, 0.0) for i in range(d + 1, e + 1))
        # optimal storage clipped to (t_d, t_e]: each server's sorted,
        # disjoint intervals that end after t_d and start before t_e,
        # added in the order a full scan would add them
        storage = 0.0
        for server, ivs in holdings.intervals.items():
            starts, ends = holdings._bounds[server]
            for a, b in ivs[bisect_right(ends, t_d):bisect_left(starts, t_e)]:
                lo, hi = max(a, t_d), min(b, t_e)
                if hi > lo:
                    storage += (hi - lo) * model.rate(server)
        # the transfer times are sorted: count those in (t_d, t_e]
        n_tx = bisect_right(holdings.transfers, t_e) - bisect_right(
            holdings.transfers, t_d
        )
        transfers = sum(repeat(model.lam, n_tx))
        out.append(Partition(d=d, e=e, online=online, opt=storage + transfers))
    return out
