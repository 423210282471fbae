"""Exact optimal offline replication cost in ``O(m * n)``, and one optimal
schedule.

Derivation (from the paper's structural Propositions 3-6): there exists
an optimal offline strategy in which

1. every request ``r_i`` is either served by a copy held at ``s[r_i]``
   continuously since the preceding local request ``r_{p(i)}`` ("keep",
   storage cost ``t_i - t_p(i)``), or served by a transfer (cost
   ``lambda``);  (Props. 4/5; prefetching earlier than ``t_p(i)`` or
   creating copies not serving local requests is dominated)
2. copies exist only over such kept inter-request intervals, except for
   *bridging*: whenever no kept interval spans the gap between two
   globally consecutive requests, the at-least-one-copy constraint forces
   one copy to survive across the gap, costing exactly the gap length
   (rate-1 storage; Prop. 6 / "Case A" of the paper's Section 5).

The decision for each request is therefore binary and the only coupling
between decisions is gap coverage, which depends only on the *latest
expiry time among currently open kept intervals*.  Scanning requests in
time order with that scalar as the DP state gives an exact algorithm; at
most one open interval per server exists at any time, so the state space
is bounded by ``n`` and the total complexity is ``O(m * n)``.

One walk serves both entry points.  It holds the DP states as a Pareto
front sorted by expiry and prunes exactly: a state with smaller-or-equal
expiry and greater-or-equal cost never beats its dominator on any
suffix.  Per request, *bridge* charges the gap to the states whose open
intervals do not span it, and *decide* branches each state into keep and
skip and merges the branches; each step builds a fresh front and never
mutates it.  :func:`optimal_schedule` keeps a reference to every front
and walks back from the final minimum-cost state, undoing decide(i) with
the first state of the front it read whose keep branch, else skip
branch, yields the target, and bridge(i) by the target's expiry alone.
Those comparisons are exact float equality: the walk computed each
surviving cost with one addition from its predecessor's, and the
backward pass repeats that addition on the same operands.

The implementation is validated in the test suite against an exhaustive
exponential search (``repro.offline.brute_force``) on thousands of random
tiny instances and against the closed-form optima of the paper's tight
examples (Figures 5, 6, 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.costs import CostModel
from ..core.trace import Trace

__all__ = ["optimal_cost", "optimal_schedule", "OfflineDecision"]

_EPS = 1e-9


@dataclass(frozen=True)
class OfflineDecision:
    """Reconstructed optimal decision for one request ``r_i`` (i >= 1).

    ``keep`` means server ``s[r_i]`` keeps its copy from ``t_i`` until its
    next local request (which is then served locally); ``keep=False``
    means the copy is not held and the next local request (if any) is
    served by a transfer.  ``bridged`` marks requests whose preceding
    global gap ``(t_{i-1}, t_i)`` was not covered by any kept interval and
    required a bridging copy.
    """

    request_index: int
    keep: bool
    bridged: bool


def _uniform_rate(trace: Trace, model: CostModel) -> float:
    """The storage rate every server shares; rejects a model the offline
    solvers cannot take."""
    if model.n != trace.n:
        raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
    if not model.uniform_storage:
        raise ValueError(
            "optimal_cost assumes uniform storage rates (the paper's "
            "setting); use brute_force for small non-uniform instances"
        )
    return model.storage_rates[0]


def _walk(
    trace: Trace,
    model: CostModel,
    fronts: list[tuple[list[float], list[float]]] | None = None,
) -> float:
    """The frontier walk behind both entry points; returns the optimum.

    The scan inputs are prepared as numpy columns in one pass and walked
    as plain lists.  Given a list as ``fronts``, the walk appends the
    front ``(Es, cs)`` it holds after each step: ``fronts[2 * i]`` after
    bridge(i) (the initial front at i = 0), ``fronts[2 * i + 1]`` after
    decide(i).
    """
    rate = _uniform_rate(trace, model)
    lam = model.lam
    m = len(trace)
    if m == 0:
        return 0.0
    inf = float("inf")

    # vectorized scan inputs (numpy), consumed as plain lists in the walk
    times_arr = np.concatenate(([0.0], trace.times))
    nxt_arr = trace.next_local_time()  # float64 column, no conversion
    gap_costs = (np.diff(times_arr) * rate).tolist()   # bridging charge per gap
    keep_costs = ((nxt_arr - times_arr) * rate).tolist()  # keep charge per request
    times = times_arr.tolist()
    nxt = nxt_arr.tolist()

    # base cost: the first request at every server other than server 0 is
    # necessarily served by a transfer (no earlier local copy can exist)
    servers = trace.servers
    n_first = len(np.unique(servers[servers != 0]))
    base = 0.0
    for _ in range(n_first):
        base += lam

    # Pareto front over states (E = latest expiry among open kept
    # intervals, -inf when none): Es strictly descending, cs strictly
    # descending (a larger E is only worth carrying at a higher cost).
    Es = [-inf]
    cs = [0.0]

    for i in range(m + 1):
        if i:
            if fronts is not None:
                fronts.append((Es, cs))  # after decide(i - 1)
            # bridging charge for states whose open intervals do not span
            # the gap (E < t_i - eps); they form a suffix of the front
            thresh = times[i] - _EPS
            if Es[-1] < thresh:
                g = gap_costs[i - 1]
                lo, hi = 0, len(Es)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if Es[mid] >= thresh:
                        lo = mid + 1
                    else:
                        hi = mid
                new_E = Es[:lo]
                new_c = cs[:lo]
                best = new_c[-1] if new_c else inf
                for j in range(lo, len(Es)):
                    c = cs[j] + g
                    if c < best:
                        new_E.append(Es[j])
                        new_c.append(c)
                        best = c
                Es, cs = new_E, new_c
        if fronts is not None:
            fronts.append((Es, cs))  # after bridge(i)

        nl = nxt[i]
        if nl == inf:
            continue  # last local request: no keep interval to open
        K = keep_costs[i]

        # keep branch: (max(E, nl), c + K) — entries with E <= nl collapse
        # onto E = nl at the front's minimum (= last) cost; skip branch:
        # (E, c + lam).  Both branches inherit the front's sort order, so
        # one linear merge with exact dominance filtering rebuilds it.
        n_states = len(Es)
        lo, hi = 0, n_states
        while lo < hi:
            mid = (lo + hi) // 2
            if Es[mid] > nl:
                lo = mid + 1
            else:
                hi = mid
        split = lo
        collapse = split < n_states
        k_total = split + 1 if collapse else split
        ck_last = cs[-1] + K if collapse else 0.0

        out_E: list[float] = []
        out_c: list[float] = []
        best = inf
        a = 0
        b = 0
        while True:
            if a < k_total and b < n_states:
                kE = Es[a] if a < split else nl
                sE = Es[b]
                if kE > sE:
                    E = kE
                    c = cs[a] + K if a < split else ck_last
                    a += 1
                elif sE > kE:
                    E = sE
                    c = cs[b] + lam
                    b += 1
                else:
                    c1 = cs[a] + K if a < split else ck_last
                    c2 = cs[b] + lam
                    E = kE
                    c = c1 if c1 < c2 else c2
                    a += 1
                    b += 1
            elif a < k_total:
                E = Es[a] if a < split else nl
                c = cs[a] + K if a < split else ck_last
                a += 1
            elif b < n_states:
                E = Es[b]
                c = cs[b] + lam
                b += 1
            else:
                break
            if c < best:
                out_E.append(E)
                out_c.append(c)
                best = c
        Es, cs = out_E, out_c

    if fronts is not None:
        fronts.append((Es, cs))  # after decide(m)
    return base + cs[-1]


def optimal_cost(trace: Trace, model: CostModel) -> float:
    """Exact minimum offline cost of serving ``trace`` under ``model``.

    Storage is accounted over ``[0, t_m]`` and each transfer costs
    ``lambda`` — the same conventions as the simulator, so online/optimal
    ratios are directly comparable.
    """
    return _walk(trace, model)


def optimal_schedule(trace: Trace, model: CostModel) -> tuple[float, list[OfflineDecision]]:
    """Optimal cost plus the reconstructed per-request decisions.

    Runs :func:`optimal_cost`'s walk, keeping its fronts, so the cost is
    bit-identical to it; the returned decisions are one optimal solution
    (ties broken toward "keep") and cover ``r_0 .. r_m`` (index 0 is the
    dummy request's decision about the initial copy).
    """
    fronts: list[tuple[list[float], list[float]]] = []
    cost = _walk(trace, model, fronts)
    if not fronts:
        return cost, []
    rate = model.storage_rates[0]
    inf = float("inf")
    times = [0.0, *trace.times.tolist()]
    nxt = trace.next_local_time().tolist()

    Es, cs = fronts[-1]
    E, c = Es[-1], cs[-1]  # the minimum-cost final state
    decisions: list[OfflineDecision] = []
    for i in range(len(nxt) - 1, -1, -1):
        # undo decide(i): the first state of the front it read (largest
        # expiry first) whose keep branch (max(E', nl), c' + K) yields the
        # target, else the one whose skip branch (E', c' + lam) does
        Es, cs = fronts[2 * i]
        keep = False
        nl = nxt[i]
        if nl != inf:
            K = (nl - times[i]) * rate  # the walk's keep charge, same bits
            for j in range(len(Es)):
                if max(Es[j], nl) == E and cs[j] + K == c:
                    keep = True
                    break
            else:
                j = Es.index(E)
            E, c = Es[j], cs[j]
        # undo bridge(i): a state keeps its expiry, and it paid the gap
        # exactly when its open intervals did not span it
        bridged = False
        if i:
            Es, cs = fronts[2 * i - 1]
            bridged = E < times[i] - _EPS
            c = cs[Es.index(E)]
        decisions.append(OfflineDecision(request_index=i, keep=keep, bridged=bridged))
    decisions.reverse()
    return cost, decisions
