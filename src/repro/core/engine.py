"""Tiered simulation engines: the full-telemetry reference vs the
cost-only kernel.

DESIGN
======

Why two kinds of engine
-----------------------
The event-driven simulator (:func:`repro.core.simulator.simulate`) is the
semantic ground truth of this repository: it allocates an :class:`Event`
per state change, a :class:`ServeRecord` per request, and a
:class:`CopyRecord` per copy period, because the analysis layer (Section
4.1 cost allocation, validation, plotting) consumes all of that
telemetry.  The paper's evaluation grids, however, consume exactly one
scalar per cell — ``total_cost`` — so grid throughput was bounded by
bookkeeping the numbers never use.

This module splits the two concerns behind one interface:

* :class:`ReferenceEngine` — delegates to :func:`simulate` unchanged.
  Full telemetry, every policy, the only engine whose results carry
  event logs, serve records, copy records, and classifications.
* :class:`KernelCostEngine`, the cost-only tier — replays the *same
  decision process* from a precomputed prediction matrix
  (:meth:`~repro.predictions.stream.PredictionStream.batch_for_cells`),
  with no event log, no per-request dataclasses and no policy
  callbacks.  It returns a :class:`CostResult` carrying only the cost
  ledger totals.

Exact equivalence, not approximate
----------------------------------
The kernel is written to reproduce the reference engine's
*floating-point operation order*, not merely its semantics: storage is
charged with the same ``(end - start) * rate`` expression per copy
period, in the order the reference ledger adds the charges (expiries pop
in the same ``(time, server, token)`` heap order, and finalization walks
live copies in the same dict-insertion order as ``SimContext._holding``),
and transfers are the same repeated additions of ``lambda``.
Noisy-oracle predictions are drawn as one batched ``random(m + 1)``
call, bit-identical to the incremental per-query draws.  Consequently
kernel costs are not just "within 1e-9" of :func:`simulate` — they are
bit-identical on every instance, and the test suite pins it.

Which policies the kernel takes
-------------------------------
A policy qualifies only if its decisions are a pure function of
``(trace, model, streamable predictions)``:

* :class:`LearningAugmentedReplication` (Algorithm 1) — eligible when
  its predictor is streamable (oracle / noisy oracle / adversarial
  built from the same trace, or a constant predictor).  Exact type
  only: subclasses may override behaviour.
* :class:`ConventionalReplication` — always eligible (``alpha = 1``
  makes predictions irrelevant).
* :class:`WangReplication` — always eligible (prediction-free).
* :class:`AdaptiveReplication` (Section 8) — eligible under Algorithm
  1's conditions (uniform storage, a streamable predictor; exact type
  only).  It differs from Algorithm 1 in one place: while its monitor
  forces the fallback, ``_duration_for`` returns ``lambda``, the
  "within" duration.  It never forces at ``r_0``, it queries the
  predictor at every request either way, and serving and expiry are
  Algorithm 1's.  So an adaptive cell *is* Algorithm 1 under the
  effective prediction column ``within | forced``, and its ledger is
  an Algorithm-1 replay of that column, bit-identical by the argument
  below.  The replay finds ``forced`` itself, optimistically.  Its
  pass already builds what the monitor reads — die-outs, renewals
  (Type 3), each die-out's special copy (Type 4 when local, else Type
  2 with ``t'_i`` its expiry) and each predecessor's duration
  (``l_i``) — so it evaluates the monitor over its own replay, with
  ``_note_request``'s float operations in its order
  (:class:`repro.algorithms.adaptive._ArrayMonitor`).  The trip
  decision at request ``i`` depends on the column before ``i`` only,
  so a replay of the raw predictions that never trips is the
  policy's, and one that first trips at ``i`` is the policy's up to
  ``i``.  Only rows that trip reach the sequential machine
  (:func:`repro.algorithms.adaptive.forced_column`), which stops at
  their first release ``r``: a second round of passes replays
  ``within | forced[:r + 1]`` under the same check, and a row that
  trips again after ``r`` gets the machine's whole column and a third,
  final replay.  A rerun row builds its own drop order, never its
  group's held one (below): its "within" set has grown where the
  monitor forced it, so the group's union may lack its drops.

Everything else falls back to the reference engine:

* history-based predictors (sliding window, Markov, EWMA, ensembles)
  learn from ``observe`` callbacks in arrival order;
* anything needing classifications, serve records, event logs, monitor
  histories, or copy records must use the reference engine — the
  kernel never produces telemetry, by construction.

``select_engine(trace, model, policy, "auto")`` returns the kernel iff
``supports()`` holds, else the reference engine.  Grids and fleets share
one runner dispatch (:mod:`repro.experiments.runner`): grid runs
(``sweep_grid``, ``ExperimentRunner.run``/``run_grid``) default to
``"auto"`` because grid cells consume only costs; fleet runs
(``MultiObjectSystem.run``, ``ExperimentRunner.run_fleet``) default to
``"reference"`` because their :class:`FleetReport` exposes full
per-object results.  Slabs — cells sharing one trace — have one
dispatcher, :func:`run_policy_slab`, over pre-built ``(model,
policy)`` cells, which the runner's chunks call directly;
:func:`run_slab` adapts ``(alpha, accuracy, seed)`` grid cells onto it
(it builds each cell's policy once and delegates).  Cells the kernel
does not take fall back to bit-identical per-cell execution.

The kernel: loop-free segment-scan replay
-----------------------------------------
A cell is evaluated by a fixed number of whole-array passes, with no
per-request Python work at all.

The reformulation rests on one observation: under Algorithm 1 every
request is a *service* — both the renewal and the transfer branch
restart the served server's segment at ``t_i`` and schedule its expiry
at ``t_i + duration`` — and the duration depends only on the prediction
consumed at that request, never on simulation state.  Per-request
keep-durations therefore materialise directly from the
:class:`~repro.predictions.stream.PredictionStream` columns
(``np.where(pred, lam, alpha * lam)``), and the expiry of request ``q``
is the state-free array ``E[q] = t[q] + d[q]``.  From it:

* ``reach[q] = searchsorted(times, E[q], 'right') - 1`` is the last
  request index the copy created at ``q`` survives to (the heap's
  strict ``when < t`` pop, as an index comparison);
* ``succ[q]``, the next request at the same server (one shared
  per-server lexsort), caps the segment: ``cover[q] = min(succ[q],
  reach[q])`` is the last request index at which ``q`` is its server's
  live copy.  Slot segments are exactly the runs between *break masks*
  in per-server order — positions where ``times[1:] > expiry[:-1]``,
  i.e. ``reach < succ``;
* a request ``i`` finds the system empty (the paper's special-copy
  regime, lines 15-25) iff no earlier request covers it:
  ``maximum.accumulate(cover)[i-1] < i``.  At such a die-out the special
  copy is the lexicographic ``(E, server)`` maximum among the live
  segments with ``reach == i - 1`` — exactly the expiring segments that
  pop before request ``i``, so it is the last of those in the heap's
  pop order — and it is resolved at request ``i`` itself (renewed if
  local, dropped after the transfer otherwise), so die-outs never
  couple across requests.  Its segment closes at ``t_i``, and nothing is
  charged between its pop and request ``i``'s serve step, so it keeps
  its pop slot and carries the charge that closes it.

Renewals are then ``reach[prev] >= i`` or a special renewal; every
other request is a transfer; and each of the ``m + 1`` segments is
charged exactly once (renewal close, expiry drop, special resolution,
or drain/finalize), so the storage ledger is a permutation of per-
segment charges.

Bit-identity of the reduced ledgers needs one more ingredient: the
reference ledger adds its charges in a specific order, and IEEE
addition is not associative.  The kernel reconstructs that exact order
as a sort key — ``(request event, pop-phase-before-serve-phase, expiry,
server)`` — without ever sorting the full key tuple: expiry-drop
charges are ``(E, server)``-ordered by merging the two per-branch
expiry streams (each a constant shift of the strictly increasing
times, hence already sorted; rare cross-stream ties fall back to a
lexsort), serve-phase charges are emitted in request order by
construction, and the two sequences interleave by counting sums rather
than comparison sorts: a pop's slot is the ``cumsum`` count of serves at
earlier events plus the pops before it, and the serves fill the slots
the pops leave.  Every one of these steps is a linear pass except the
one search that merges the two expiry streams, and a group of passes
shares that merge (below).  The ordered charge
values are then reduced with ``np.add.accumulate`` —
NumPy's *sequential* accumulation, unlike ``np.add.reduce``'s pairwise
tree — so the final sum performs the same doubles additions in the
same order as the ledger's ``storage += charge``.  Transfers are read
from a partial-sum table: the ``n``-th partial sum of
``accumulate(full(N, lam))`` is the ledger's ``n`` repeated ``transfer
+= lam`` steps bit for bit, for any ``N >= n``.  Kernel costs are
therefore bit-identical to the reference simulator for every
``supports()``-eligible policy, and the test suite pins this across
every registered scenario.

Slab mode: a row per cell
-------------------------
Algorithm-1 cells that share ``(lambda, alpha, rate)`` share both
cached keep-duration bundles (:class:`_Shift`), so they replay as *one*
pass over a ``(rows, m + 1)`` prediction matrix, one row per cell, and
a single cell is the one-row case.  Every pass above runs once over the
flattened matrix:

* the die-out scan is one flat ``maximum.accumulate`` with the rows
  kept apart by a per-row offset (so is the rare dict-insertion walk);
* ``np.nonzero`` yields ``(row, request)`` pairs in row-major order, so
  each row's die-outs and serves stay in request order;
* the drops of every row merge once, as the union of all rows' drops
  (:func:`_drop_order`): each row's ``(E, server)`` order is a masked
  subsequence of it (a one-row pass takes the union as it is), and the
  die mask, gathered at the flat ``(row, event)`` pop keys, marks the
  last pop of each die-out event — its special;
* each row holds exactly ``m + 1`` charges: each row's drain and
  finalize charges take its trailing slots, and the pops and serves of
  all rows interleave by counting sums over the flat event keys
  (offset by the earlier rows' trailing charges) straight into the
  other slots;
* the ledgers reduce with ``np.add.accumulate(axis=1)``, sequential
  within each row; a pass returns its transfer counts, and the slab
  reads every count at one lambda from one partial-sum chain, built
  once per lambda after its passes.

A group that spans several passes (row chunks, below) merges its drop
streams once, not once per pass: the order depends on the group, not
on the pass.  Its union is built over all the group's rows without a
``(rows x m)`` temporary — ``drop & any(pred)`` for the within branch,
``drop & ~all(pred)`` for the beyond branch — and merged (or, on a
cross-branch expiry tie, lexsorted) by the first of its passes to run
(:class:`_GroupDrops`).  The group keeps only the 32-bit indices and
pop keys and one branch flag per entry, and releases them after its
last pass.  Each pass then picks its own rows' drops out of the order
by mask — one gather of its prediction rows at the order's indices,
xor the branch flags, and one ``nonzero``, with no search — and
rebuilds their expiries with the same IEEE add, ``t + duration``.  A
one-pass group (a lone cell, a small grid) builds the order from its
own rows in its pass, through the same :func:`_drop_order`.

:func:`_kernel_slab` is the one way into the kernel's replays:
:func:`run_policy_slab` sends it every eligible cell of a slab, one or
many, at any trace length, and :meth:`KernelCostEngine.run` its one
cell as a one-cell slab.  It groups the Algorithm-1 cells by
``(lambda, alpha, rate)`` and runs each group as one pass, split into
row chunks only to bound a pass's memory (:data:`_ROW_CHUNK_ELEMS`) and
to give every thread of the threaded execution path work.  The fig25 grid's 121 cells are 11 groups, one
per alpha.  A group whose two durations coincide (``alpha * lambda ==
lambda``: alpha = 1, as in the conventional baseline) replays one row
for all its cells: the prediction picks between equal durations, and
distinct request times give distinct expiries, so no tie order can
differ between its rows.

Wang's baseline rides the same tier through a *cascade factorisation*
(:class:`_WangReplay`).  Its drop cascade (``renewed_once`` flags,
second-consecutive-expiry shipping to server 0) couples each server's
next expiry to the global alive set, so the pure segmented formulation
above does not apply directly — but the coupling is confined to
die-outs.  With the fixed periods ``lam / rate[s]``, the *baseline*
expiry column ``E[q] = t[q] + period[server[q]]`` is exact for every
copy created by a serve (only die-out extensions and cascade-created
copies deviate from it): renewals are again ``succ <= reach``, and
the renewal prefix-count ``r_cum`` turns "how many other copies are
alive at expiry ``E[q]``" into pure arithmetic over the candidates
sorted by the scalar heap's ``(E, server)`` pop key.  A candidate with
at least one other copy alive is an unconditional drop (its grace flag
was reset by the serve that created it); only the *die-out triggers* —
candidates that expire last — enter the sequential cascade.  They are
not rare: at lambda = 100 about one request in ten on the paper-size
IBM-like trace, one in three on fleet access-log objects.
There, at most **one** injected extension (the grace reschedule of the
only surviving copy) is alive at a time, so a compact episode machine
(:func:`repro.core.backends.wang_cascade`, a loop over Python lists
and ``bisect``) replays
just those episodes: grace extensions, second-expiry shipments to
server 0 (``transfer += lam`` with the dict-append segment on server
0), and *flips* — injected copies served locally, which convert a
predicted miss back into a renewal with an overridden segment start.
Everything downstream (charge values, the pop/serve counting
interleave, drain and finalize order, ``seq_sum`` / ``repeat_add``
reductions) reuses the machinery above, so kernel Wang is bit-identical
to the reference simulator's heap replay — the tests pin this across
every registered scenario, tie-prone hypothesis instances, and both the
serial and the threaded execution path.  Wang ignores predictions and
alpha, so a slab's equal-model Wang cells share one replay, and
``supports()`` carries **no policy exclusions**: heterogeneous
Algorithm-1 + Wang fleets run as single-tier kernel slabs.
"""

from __future__ import annotations

import abc
import functools
import itertools
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..obs import metrics as _obs
from .backends import (
    get_backend,
    merge_interleave,
    repeat_add,
    seq_sum,
    wang_cascade,
)
from .costs import CostModel
from .policy import PolicyError, ReplicationPolicy
from .simulator import SimulationResult, simulate
from .trace import Trace

__all__ = [
    "Engine",
    "EngineError",
    "ReferenceEngine",
    "KernelCostEngine",
    "CostResult",
    "ENGINE_NAMES",
    "get_engine",
    "select_engine",
    "run_slab",
    "run_policy_slab",
]


class EngineError(RuntimeError):
    """Raised when an engine is asked to run a policy it cannot handle."""


@dataclass(frozen=True)
class CostResult:
    """Cost-only outcome of a kernel-tier run, bit-identical in its
    costs to :func:`~repro.core.simulator.simulate`.

    Duck-compatible with :class:`~repro.core.simulator.SimulationResult`
    for every cost consumer (``total_cost`` / ``storage_cost`` /
    ``transfer_cost`` / ``policy_name`` / ``trace`` / ``model``); it
    deliberately has no event log, serves, or copy records.
    """

    trace: Trace
    model: CostModel
    policy_name: str
    storage_cost: float
    transfer_cost: float
    n_transfers: int
    engine: str

    @property
    def total_cost(self) -> float:
        return self.storage_cost + self.transfer_cost


class Engine(abc.ABC):
    """A strategy for executing one policy over one trace."""

    name: str = "engine"

    @abc.abstractmethod
    def supports(
        self, trace: Trace, model: CostModel, policy: ReplicationPolicy
    ) -> bool:
        """Whether :meth:`run` can execute this instance faithfully."""

    @abc.abstractmethod
    def run(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ):
        """Execute ``policy`` over ``trace``; returns an object exposing
        ``total_cost`` / ``storage_cost`` / ``transfer_cost``."""

    def run_observed(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ):
        """:meth:`run`, wrapped in an ``engine.cell`` telemetry span.

        The disabled path is one flag check and a direct call; the slab
        dispatcher's per-cell fallback calls this so per-cell wall time
        is tagged by engine tier without touching the engine
        implementations.  The kernel records its own ``engine.slab``
        span instead (:meth:`KernelCostEngine.run_observed`).
        """
        if not _obs.enabled:
            return self.run(trace, model, policy, drain, drain_event_cap)
        with _obs.span("engine.cell", tier=self.name, m=len(trace)):
            out = self.run(trace, model, policy, drain, drain_event_cap)
        _obs.counter("repro_engine_cells_total", tier=self.name).inc()
        return out


class ReferenceEngine(Engine):
    """The full-telemetry event-driven simulator (semantic ground truth)."""

    name = "reference"

    def supports(
        self, trace: Trace, model: CostModel, policy: ReplicationPolicy
    ) -> bool:
        return True

    def run(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ) -> SimulationResult:
        return simulate(
            trace, model, policy, drain=drain, drain_event_cap=drain_event_cap
        )


@functools.cache
def _late() -> SimpleNamespace:
    """The policy and prediction names the kernel dispatches on, from
    packages that import this one: imported on first use and cached,
    because slab dispatch consults them once per cell."""
    from ..algorithms.adaptive import (
        AdaptiveReplication,
        _ArrayMonitor,
        forced_column,
    )
    from ..algorithms.conventional import ConventionalReplication
    from ..algorithms.learning_augmented import LearningAugmentedReplication
    from ..algorithms.wang import WangReplication
    from ..predictions.oracle import FixedPredictor
    from ..predictions.stream import PredictionStream, _prediction_rows

    return SimpleNamespace(
        Adaptive=AdaptiveReplication,
        Conventional=ConventionalReplication,
        Wang=WangReplication,
        # the exact types Algorithm 1's replay serves
        algorithm1=(
            ConventionalReplication,
            LearningAugmentedReplication,
            AdaptiveReplication,
        ),
        forced_column=forced_column,
        ArrayMonitor=_ArrayMonitor,
        FixedPredictor=FixedPredictor,
        PredictionStream=PredictionStream,
        prediction_rows=_prediction_rows,
    )


def _stream_predictor(policy: ReplicationPolicy):
    """The predictor whose stream drives an Algorithm-1-family policy.

    The conventional baseline pins ``alpha = 1``, so both prediction
    branches pick duration ``lambda`` and its own predictor is never
    consulted: a constant "beyond" stream stands in for it.
    """
    late = _late()
    if type(policy) is late.Conventional:
        return late.FixedPredictor(False)
    return policy.predictor


def _durations_coincide(model: CostModel, policy: ReplicationPolicy) -> bool:
    """Whether an Algorithm-1-family policy's two keep-durations are
    equal (``alpha * lambda == lambda``, as at alpha = 1): its
    prediction column then picks nothing, and every row of its pass
    replays the same ledger."""
    return policy.alpha * model.lam == model.lam


def _cost_result(
    trace: Trace,
    model: CostModel,
    policy: ReplicationPolicy,
    ledger: tuple[float, float, int],
    tier: str,
) -> CostResult:
    storage, transfer, n_tx = ledger
    return CostResult(
        trace=trace,
        model=model,
        policy_name=policy.name,
        storage_cost=storage,
        transfer_cost=transfer,
        n_transfers=n_tx,
        engine=tier,
    )


#: a slab cell: ``(alpha, accuracy, seed)`` — the grid axes that share
#: one ``(trace, lambda)``
SlabCell = tuple[float, float, int]

#: the sweep-layer factory signature: (trace, lam, alpha, accuracy, seed)
SlabFactory = Callable[[Trace, float, float, float, int], ReplicationPolicy]


# ----------------------------------------------------------------------
# segment-scan kernel
#
# No per-request Python loop: per-request keep-durations come straight
# from the prediction columns, slot segments are recovered as per-server
# break masks, and the ledgers are reduced with sequential
# np.add.accumulate in the reference ledger's exact charge order (see the
# module DESIGN docstring for the derivation and bit-identity argument).
# ----------------------------------------------------------------------

#: the largest value a 32-bit index or count column holds
_INT32_MAX = np.iinfo(np.int32).max


def _nonzero(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)`` for a contiguous mask, minus the Python
    wrapper, which costs more than the search itself on the arrays of a
    short object."""
    return mask.ravel().nonzero()[0]


class _SegmentChains:
    """Shared per-trace precompute for segment-scan replays.

    Holds the dummy-prefixed time/server columns, the per-server
    neighbour chains (one stable sort), and a memo of ``(t + duration,
    reach)`` arrays per distinct keep-duration, so a slab pays one
    ``searchsorted`` per duration rather than one per cell.  The slab's
    prediction matrix takes its ground truth from the same chains
    (:meth:`within`), so a slab sorts its requests by server once.

    Thread safety: one instance may be shared by the ``threads``
    execution path's passes.  Every precomputed array is read-only after
    ``__init__``; the duration and monitor memos are guarded by a lock
    (reads stay lock-free — CPython dict gets are atomic — and a
    duplicate built in a race is simply discarded by ``setdefault``).
    """

    __slots__ = (
        "m", "m1", "n", "t_m", "t_all", "j_all", "order", "same",
        "succ", "prev", "prev_clip", "prev_ok", "lastq", "idx1",
        "idx_dtype", "_shifts", "_monitors", "_shift_lock", "_csr",
    )

    def __init__(self, trace: Trace):
        m = len(trace)
        self.m = m
        self.m1 = m + 1
        self.n = trace.n
        self.t_m = trace.span
        self.t_all = np.concatenate(([0.0], trace.times))
        self.j_all = np.concatenate(([0], trace.servers))
        # 32-bit index columns halve the bandwidth of the hot passes;
        # traces beyond 2^31 requests would fall back to 64-bit
        idx = np.int32 if self.m1 < _INT32_MAX - 1 else np.int64
        self.idx_dtype = idx
        order = self.j_all.argsort(kind="stable")
        js = self.j_all[order]
        same = js[1:] == js[:-1]
        # each request with a local successor, and that successor
        head = order[:-1][same]
        tail = order[1:][same]
        succ = np.full(self.m1, self.m1, dtype=idx)
        succ[head] = tail
        prev = np.full(self.m1, -1, dtype=idx)
        prev[tail] = head
        self.order = order
        self.same = same
        self.succ = succ
        self.prev = prev
        # request-side views of the predecessor chain (for i = 1..m):
        # whether a predecessor exists, and its index clipped for gathers
        self.prev_ok = prev[1:] >= 0
        self.prev_clip = np.maximum(prev[1:], 0)
        # the last request at each touched server (no local successor)
        self.lastq = _nonzero(succ == self.m1).astype(idx)
        self.idx1 = np.arange(1, self.m1, dtype=idx)
        self._shifts: dict[float, _Shift] = {}
        self._monitors: dict[tuple[float, float], object] = {}
        self._shift_lock = threading.Lock()
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def shifted(self, duration: float) -> "_Shift":
        """The cell-invariant arrays for one keep-duration, memoised.

        A slab's cells share a handful of distinct durations (``lam``
        plus one ``alpha * lam`` per alpha — 12 for the fig25 grid's 121
        cells), so everything that depends only on ``(trace, duration)``
        is computed once per duration here rather than once per cell:
        the per-cell passes then combine two cached shifts through the
        prediction column and touch mostly boolean arrays and compact
        index subsets.
        """
        hit = self._shifts.get(duration)   # lock-free fast path
        if hit is None:
            new = _Shift(self, duration)   # built outside the lock
            with self._shift_lock:
                hit = self._shifts.setdefault(duration, new)
        return hit

    def monitor(self, lam: float, mu: float):
        """The adaptive monitor's trip-independent columns at ``lam``
        and the uniform storage rate ``mu``
        (:class:`~repro.algorithms.adaptive._ArrayMonitor`), memoised
        like :meth:`shifted`: every adaptive pass at one ``(lam, mu)``
        shares them."""
        key = (lam, mu)
        hit = self._monitors.get(key)
        if hit is None:
            new = _late().ArrayMonitor(
                self.t_all, self.prev_ok, self.prev_clip, lam, mu
            )
            with self._shift_lock:
                hit = self._monitors.setdefault(key, new)
        return hit

    def within(self, lam: float) -> np.ndarray:
        """The ground-truth prediction column at ``lam``: whether each
        request's next local request arrives within ``lam``.  It is
        ``succ <= reach`` of the ``lam`` shift, whose reach comes from
        the same IEEE add ``t + lam`` as
        :func:`~repro.predictions.stream.truth_within_array`: a
        successor is within the reach iff its time is at most ``t +
        lam``, and a request with none is beyond."""
        return self.succ <= self.shifted(lam).reach

    def server_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, requests)`` CSR of request indices grouped by
        server (ascending within each group) — the Wang machine's
        next-local-request lookups.  Idempotent, so a build race simply
        discards a duplicate."""
        csr = self._csr
        if csr is None:
            req = self.order.astype(np.int64)
            off = np.searchsorted(
                self.j_all[self.order], np.arange(self.n + 1)
            ).astype(np.int64)
            csr = (off, req)
            self._csr = csr
        return csr


class _Shift:
    """Per-``(trace, duration)`` arrays shared by every cell using the
    duration: a cell's expiry column is ``where(pred, shift_within,
    shift_beyond)`` picked entrywise from two of these bundles."""

    __slots__ = ("duration", "reach", "cover", "drop", "local_alive")

    def __init__(self, chains: _SegmentChains, duration: float):
        t_all, succ = chains.t_all, chains.succ
        self.duration = duration
        exp = t_all + duration
        # reach[q]: last request index with time <= t_q + duration (the
        # strict `when < t` expiry pop, as an index); non-decreasing in
        # q because the expiries are a constant shift of sorted times
        reach = (t_all.searchsorted(exp, side="right") - 1).astype(
            chains.idx_dtype
        )
        self.reach = reach
        # cover[q]: q keeps its server alive for requests in (q, cover]
        self.cover = np.minimum(succ, reach)
        # the segment is live when it expires, mid-trace
        self.drop = (succ > reach) & (reach < chains.m)
        # local_alive[i-1]: would request i renew its predecessor's copy
        # under this duration (reach[prev] >= i, i.e. succ[prev] <= reach)
        alive = succ <= reach
        self.local_alive = alive[chains.prev_clip]


def _drop_order(
    chains: _SegmentChains,
    pred: np.ndarray,
    sw: _Shift,
    sb: _Shift,
    dur_within: float,
    dur_beyond: float,
    held: bool = False,
) -> tuple:
    """The expiry heap's ``(E, server)`` pop order over the union of the
    segments the rows of ``pred`` keep live until they expire mid-trace
    (``sw is not sb``): ``(indices, beyond flags, pop keys, expiries)``.
    A segment with reach ``q`` pops before request ``q + 1``, and its
    pop key is ``q``.

    Each prediction branch's expiries are a constant shift of the
    strictly increasing request times, so either branch's segments are
    already sorted: the union merges with one search
    (:func:`~repro.core.backends.merge_interleave`), and each row's
    drops are a masked subsequence of it.  The server tie-break can
    only matter *across* branches, so a cross-branch expiry tie falls
    back to a lexsort.  A ``held`` order, one that the passes of a
    group share, keeps only its 32-bit indices and keys and the flags:
    each pass rebuilds its own drops' expiries (expiries None).
    """
    t_all = chains.t_all
    if pred.shape[0] == 1:
        some = every = pred[0]
    else:
        some, every = pred.any(axis=0), pred.all(axis=0)
    uw = _nonzero(sw.drop & some)
    ub = _nonzero(np.greater(sb.drop, every))    # sb's, where not all rows
    # the same scalar IEEE add as schedule(j, t + duration)
    ew = t_all[uw] + dur_within
    eb = t_all[ub] + dur_beyond
    order = merge_interleave(ew, eb)
    k = np.concatenate((uw, ub))
    if order is None:
        order = np.lexsort((chains.j_all[k], np.concatenate((ew, eb))))
    k = k[order]
    beyond = order >= uw.size
    key = np.concatenate((sw.reach[uw], sb.reach[ub]))[order]
    if held:
        return k.astype(chains.idx_dtype), beyond, key, None
    return k, beyond, key, np.concatenate((ew, eb))[order]


def _drops_by_expiry(
    chains: _SegmentChains,
    pred: np.ndarray,
    sw: _Shift,
    sb: _Shift,
    dur_within: float,
    dur_beyond: float,
    held: tuple | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pop keys, indices, expiries)`` of the segments each row of
    ``pred`` keeps live until they expire mid-trace: row by row, each
    row in ``(E, server)`` order — the expiry heap's pop order.  A
    segment of row ``r`` with reach ``q`` pops before request ``q + 1``,
    and its key is that event's flat key ``r * m + q``.

    The order comes from :func:`_drop_order`: ``held``, the one a
    group of several passes builds once over all its rows, or else
    built here over this pass's rows — a one-row pass's drops are that
    union itself.  Otherwise each row picks its drops out of the order
    by mask: one gather of the prediction rows at the order's indices
    (a within-branch drop is a row's where it predicts within, a
    beyond-branch drop where it does not) and one ``nonzero``, with no
    search.
    """
    t_all, m = chains.t_all, chains.m
    n_rows = pred.shape[0]
    if sw is sb:
        # alpha = 1: both branches share every expiry, and every row
        # drops the same segments, in request order
        k = _nonzero(sw.drop)
        key = sw.reach[k].astype(np.intp)
        if n_rows > 1:
            key = (np.arange(n_rows)[:, None] * m + key).reshape(-1)
            k = np.tile(k, n_rows)
        return key, k, t_all[k] + dur_within
    if held is None:
        k, beyond, key, exp = _drop_order(
            chains, pred, sw, sb, dur_within, dur_beyond
        )
        if n_rows == 1:
            return key.astype(np.intp), k, exp
    else:
        k, beyond, key, exp = held
    sel = pred.take(k, axis=1)
    sel ^= beyond
    g = _nonzero(sel)
    if n_rows > 1:
        # each row's drops, as (row, position in the order)
        rows = np.arange(n_rows).repeat(sel.sum(axis=1))
        g -= rows * k.size
    # (the gathers below index with native ints: fancy indexing with
    # 32-bit indices takes a slower path)
    k = k[g].astype(np.intp)
    if exp is None:
        durations = np.array((dur_within, dur_beyond))
        exp = t_all[k] + durations[beyond[g].view(np.uint8)]
    else:
        exp = exp[g]
    if n_rows == 1:
        return key[g].astype(np.intp), k, exp
    rows *= m                         # row r's events start at r * m
    rows += key[g]
    return rows, k, exp


def _tenure_starts(chains: _SegmentChains, miss_full: np.ndarray) -> np.ndarray:
    """For every row and request, the request index at which its
    server's current continuous tenure began (the latest transfer to
    it, or 0 for server 0's initial copy) — a live copy's
    dict-insertion slot.

    One flat ``maximum.accumulate`` along the shared per-server order,
    segmented by per-group and per-row offsets: renewals inherit,
    misses reset.
    """
    so = chains.order
    grp_start = np.empty(so.size, dtype=bool)
    grp_start[0] = True
    np.logical_not(chains.same, out=grp_start[1:])
    gid = np.cumsum(grp_start) - 1
    off = np.int64(chains.m1 + 1)
    rows = np.arange(miss_full.shape[0])[:, None] * ((gid[-1] + 1) * off)
    seg = gid * off + rows
    run = np.where(miss_full[:, so], so, -1) + seg
    np.maximum.accumulate(run.reshape(-1), out=run.reshape(-1))
    tenure = np.empty(miss_full.shape, dtype=np.int64)
    tenure[:, so] = run - seg
    return tenure


def _kernel_algorithm1(
    chains: _SegmentChains,
    rate: float,
    lam: float,
    alpha: float,
    pred: np.ndarray,
    drain: bool,
    drain_event_cap: int | None,
    drops: tuple | None = None,
    monitor: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Replay Algorithm 1 with pure array passes (no per-request loop),
    once per row of the ``(rows, m + 1)`` prediction matrix ``pred``.

    Returns ``(storage, n_transfers, trips)``: arrays whose entry ``r``
    is bit-identical to the ledger of :func:`simulate` running Algorithm
    1 with ``alpha`` under the prediction stream ``pred[r]`` on the
    trace behind ``chains`` (the transfer cost of ``n`` transfers is
    entry ``n`` of :func:`_transfer_chain`), and the trip columns of the
    ``(row, policy)`` pairs of adaptive rows listed in ``monitor``: the
    fallback flags each policy's monitor raises over its row's replay,
    laid out like :func:`~repro.algorithms.adaptive.forced_column`
    (None without a monitor).  ``drops`` is the held
    :func:`_drop_order` of a group whose passes share it, or None.  See
    the module DESIGN docstring for the derivation and for the row axis.
    """
    m, m1 = chains.m, chains.m1
    t_all, j_all = chains.t_all, chains.j_all
    t_m = chains.t_m
    pred = np.asarray(pred, dtype=bool)
    if pred.ndim != 2 or pred.shape[1] != m1:
        raise ValueError(
            f"prediction matrix must be (rows, m + 1 = {m1}), "
            f"got shape {pred.shape}"
        )
    n_rows = pred.shape[0]
    dur_beyond = alpha * lam        # the scalar path's single multiply
    sw = chains.shifted(lam)
    sb = chains.shifted(dur_beyond)

    # die-out detection: request i finds every copy expired iff no
    # earlier segment covers it.  The per-duration cover columns are
    # cached on the shifts; the rows only select and scan.  (The rows
    # pick between the shifts with arithmetic and bitwise ops: np.where
    # mispredicts its branch on noisy prediction rows.)
    cover = np.multiply(pred, sw.cover - sb.cover)
    cover += sb.cover
    if n_rows > 1:
        # keep the rows apart in the flat scan: each row's offset lies
        # above every cover value of the rows before it
        row_off = np.arange(n_rows, dtype=np.int64)[:, None] * m1
        cover = cover + row_off
    np.maximum.accumulate(cover.reshape(-1), out=cover.reshape(-1))
    if n_rows > 1:
        cover -= row_off
    die = cover[:, :-1] < chains.idx1          # column i-1 = request i
    # (big temporaries are dropped as soon as they die: a pass's peak is
    # fresh memory that every pass page-faults in again)
    del cover
    # event keys are flat indices into the (rows, m) die and serve masks
    # — event i of row r is r * m + i - 1 — so they sort by row, then
    # event
    die_key = _nonzero(die)
    die_i = die_key % m + 1                  # each die-out's request

    # expiring segments: every segment still live when it expires
    # mid-trace, row by row in the heap's (E, server) pop order, keyed
    # by the event it pops at
    pop_key, do, e_do = _drops_by_expiry(
        chains, pred, sw, sb, lam, dur_beyond, drops
    )

    # special copies: at die-out i the last segment to expire — the
    # last of those popping at event i, the segment of request i-1
    # among them — stays live and is resolved at request i itself
    # (renewal or transfer + drop), so its segment closes at t_i.  Its
    # pop is event i's last and a die-out has no other serve-phase
    # charge, so the special keeps its pop slot and takes the charge
    # that closes it.  Every die-out event has a pop, so the last pop
    # of each die-out event is one special per die-out, in event order.
    is_spec = die.reshape(-1)[pop_key]
    del die
    is_spec[:-1] &= pop_key[1:] != pop_key[:-1]
    spec_at = _nonzero(is_spec)
    del is_spec
    spec_renew = j_all[die_i] == j_all[do[spec_at]]
    if monitor:
        # a Type 2 request's t' is its special copy's expiry
        t_special = e_do[spec_at]
    e_do[spec_at] = t_all[die_i]
    # the drops' charges (the scalar (end - start) * rate, as below),
    # taken here so that their indices die early
    e_do -= t_all[do]
    e_do *= rate
    del do

    # renewal iff the previous local segment survives to the request
    # (the shifts' predecessor-alive columns, selected by the
    # *predecessor's* prediction) or the special copy is local
    pred_prev = pred.take(chains.prev_clip, axis=1)
    if monitor:
        mon_rows = [r for r, _ in monitor]
        within_prev = pred_prev[mon_rows]    # each l_i, before the &= below
    L = np.greater(sb.local_alive, pred_prev)      # sb's, where not pred
    pred_prev &= sw.local_alive
    L |= pred_prev
    del pred_prev
    L &= chains.prev_ok
    trips = None
    if monitor:
        # the monitor's view of the replay: each request's Section 4.1
        # type (Type 3 = L, the die-outs' specials split Types 2 and 4),
        # l_i and t'
        slot = np.full(n_rows, -1)
        slot[mon_rows] = np.arange(len(mon_rows))
        die_row = slot[die_key // m]
        kept = die_row >= 0
        trips = chains.monitor(lam, rate).trips(
            alpha,
            [policy for _, policy in monitor],
            within_prev,
            L[mon_rows],
            (die_row[kept], die_i[kept], spec_renew[kept], t_special[kept]),
        )
    n_renew = L.sum(axis=1)
    n_renew += np.bincount(die_key[spec_renew] // m, minlength=n_rows)
    n_tx = m - n_renew

    # serve-phase charges (at most one per request): a renewal closes
    # the predecessor's segment
    sp1 = _nonzero(L)                        # row-major: request order
    if n_rows > 1:
        sp1 %= m
    sp1 += 1

    # trailing segments (a subset of each server's last request): the
    # drain pops them in (E, server) order and the survivor finalizes
    # as the special
    lastq = chains.lastq
    pred_last = pred[:, lastq]
    keep = np.where(pred_last, sw.reach[lastq], sb.reach[lastq]) >= m
    tail_r, tc = keep.nonzero()
    tail_q = lastq[tc]
    e_tail = t_all[tail_q] + np.where(pred_last[tail_r, tc], lam, dur_beyond)
    t_order = np.lexsort((j_all[tail_q], e_tail, tail_r))
    tail_r, tail_q, e_tail = tail_r[t_order], tail_q[t_order], e_tail[t_order]
    n_tail = np.bincount(tail_r, minlength=n_rows)
    tail_end = n_tail.cumsum()
    cap = drain_event_cap if drain_event_cap is not None else 4 * chains.n + 16
    if not drain or cap < chains.n or not np.isfinite(e_tail).all():
        # rare: a disabled drain, a binding event cap (at most one
        # trailing segment per server) or never-expiring copies leave
        # several copies live; they finalize in dict-insertion order
        fired = np.zeros(n_rows, dtype=np.int64)
        if drain:
            finite = np.bincount(tail_r[np.isfinite(e_tail)], minlength=n_rows)
            fired = np.minimum(finite, cap)
        rank = np.arange(tail_r.size) - (tail_end - n_tail)[tail_r]
        finalize = rank >= fired[tail_r]
        miss_full = np.empty((n_rows, m1), dtype=bool)
        miss_full[:, 0] = True               # the dummy creates at server 0
        np.logical_not(L, out=miss_full[:, 1:])
        miss_full[die_key // m, die_i] = ~spec_renew
        tenure = _tenure_starts(chains, miss_full)
        slot = np.where(finalize, tenure[tail_r, tail_q], -1)
        tail_q = tail_q[np.lexsort((slot, tail_r))]

    # merge the charge sequences into the scalar accumulation order,
    # straight into each row's m + 1 slots: within an event, expiry pops
    # precede the serve-step charge; the drain pops (pseudo-event past
    # every request) and then the finalize walk take each row's last
    # slots.  A pop's flat slot counts the serves at earlier events, the
    # earlier pops and the earlier rows' trailing charges (counting
    # sums over the flat event keys, earlier rows first); the serves
    # fill the slots left, in request order.
    n_pop, n_srv = e_do.size, sp1.size
    assert n_pop + n_srv + tail_q.size == n_rows * m1
    cnt = np.int32 if n_rows * m1 < _INT32_MAX else np.int64
    before = np.zeros(n_rows * m + 1, dtype=cnt)
    L.ravel().cumsum(dtype=cnt, out=before[1:])
    del L
    before[:-1].reshape(n_rows, m)[:] += (tail_end - n_tail)[:, None]
    pos_pop = before[pop_key].astype(np.intp)
    del before, pop_key
    pos_pop += np.arange(n_pop)
    pos_tail = (tail_r + 1) * m1 - tail_end[tail_r] + np.arange(tail_r.size)
    free = np.ones(n_rows * m1, dtype=bool)
    free[pos_pop] = False
    free[pos_tail] = False
    pos_srv = _nonzero(free)
    del free

    # every segment is charged exactly once; each charge is the scalar
    # (end - start) * rate with end already clipped (mid-trace ends
    # precede t_m, drain/finalize end at t_m) and start a request time
    vals = np.empty((n_rows, m1))
    flat = vals.reshape(-1)
    flat[pos_pop] = e_do
    del pos_pop, e_do
    srv_end = t_all[sp1]
    srv_end -= t_all[chains.prev[sp1].astype(np.intp)]
    srv_end *= rate
    flat[pos_srv] = srv_end
    del pos_srv, srv_end
    tail = t_m - t_all[tail_q]
    tail *= rate
    flat[pos_tail] = tail
    # sequential accumulation per row == the scalar's ordered
    # `storage += charge`
    np.add.accumulate(vals, axis=1, out=vals)
    # (a copy: a view of the last column would keep all of vals alive)
    return vals[:, -1].copy(), n_tx, trips


def _transfer_chain(lam: float, n: int) -> np.ndarray:
    """Partial sums of ``n`` repeated ``transfer += lam`` steps, one
    sequential left-to-right chain: entry ``i`` is the ledger's transfer
    cost after ``i`` transfers, bit for bit, for any ``n >= i``."""
    partial = np.zeros(n + 1)
    np.add.accumulate(np.full(n, lam), out=partial[1:])
    return partial


class _WangReplay:
    """Per-``(trace, lam, rates)`` Wang-baseline precompute and replay.

    The cascade is state-dependent, but its *segment structure* is not:
    a copy only ever dies at its own pending expiry, so the baseline
    expiry column ``E[q] = t[q] + period[server(q)]`` and its
    ``searchsorted`` reach are exact (renewal iff the next local request
    lands inside them — no false positives, and false negatives only at
    the die-out extensions).  Coverage *counts* at every candidate
    expiry then come from pure counting sums — segments started minus
    renewal-closed minus expiry-closed — because cascade extensions only
    ever add coverage, a candidate with a positive baseline count drops
    unconditionally.  Only candidates whose baseline count is zero (die
    outs) go through the sequential episode machine
    (:func:`~repro.core.backends.wang_cascade`), which tracks the single
    injected extension a cascade can keep alive at a time.  See the
    module DESIGN docstring for the bit-identity argument.
    """

    __slots__ = (
        "chains", "lam", "rates_arr", "periods", "req_renew", "r_cum",
        "cand_e", "cand_srv", "cand_ev", "cand_start", "trig_pos",
        "tail_when", "tail_srv", "tail_start",
    )

    def __init__(self, chains: _SegmentChains, lam: float, rates: tuple):
        m, m1 = chains.m, chains.m1
        t_all, j_all, succ = chains.t_all, chains.j_all, chains.succ
        self.chains = chains
        self.lam = lam
        self.rates_arr = np.asarray(rates, dtype=np.float64)
        # the scalar path's per-server divisions, one by one
        periods = np.array([lam / r for r in rates], dtype=np.float64)
        self.periods = periods
        # the exact IEEE add behind schedule(j, t + periods[j]); the
        # dummy's 0.0 + p_0 is bitwise p_0, matching schedule(0, p_0)
        E = t_all + periods[j_all]
        reach = t_all.searchsorted(E, side="right") - 1
        renew = succ <= reach
        req_renew = np.zeros(m1, dtype=bool)
        np.logical_and(renew[chains.prev_clip], chains.prev_ok,
                       out=req_renew[1:])
        self.req_renew = req_renew
        self.r_cum = np.cumsum(req_renew)
        # mid-trace expiry fires in (E, server) order — the heap's pop
        # order (per-server streams are sorted, ties break by server)
        ci = _nonzero(~renew & (reach < m))
        oc = np.lexsort((j_all[ci], E[ci]))
        cand = ci[oc]
        self.cand_e = E[cand]
        self.cand_srv = j_all[cand].astype(np.int64)
        self.cand_ev = reach[cand].astype(np.int64) + 1
        self.cand_start = t_all[cand]
        # baseline copies alive at each fire, *excluding* the firing
        # copy: segments started before the pop event, minus renewal
        # closes, minus the earlier fires (each ended a segment — a die
        # out's extension is accounted by the episode machine)
        cnt = (
            self.cand_ev
            - self.r_cum[self.cand_ev - 1]
            - np.arange(cand.size, dtype=np.int64)
            - 1
        )
        assert cnt.size == 0 or cnt.min() >= 0
        self.trig_pos = _nonzero(cnt == 0)
        # pending expiries that outlive the last request (one per
        # server: non-last segments with reach >= m would be renewals)
        lastq = chains.lastq
        tl = lastq[reach[lastq] >= m]
        tl = tl[np.lexsort((j_all[tl], E[tl]))]
        self.tail_when = E[tl]
        self.tail_srv = j_all[tl].astype(np.int64)
        self.tail_start = t_all[tl]

    def replay(self, drain: bool, cap: int | None) -> tuple[float, float, int]:
        """The ``(storage, transfer, n_transfers)`` ledger of the
        reference simulator's Wang run on the trace behind ``chains``."""
        chains = self.chains
        m, m1, t_m = chains.m, chains.m1, chains.t_m
        t_all, j_all = chains.t_all, chains.j_all
        rates = self.rates_arr
        srv_off, srv_req = chains.server_csr()
        cap_v = cap if cap is not None else 4 * chains.n + 16
        (
            suppress,
            ep_when, ep_srv, ep_start, ep_ev,
            flip_req, flip_start,
            n_tx_casc,
            dr_when, dr_srv, dr_start,
            fin_srv, fin_start, fin_kind, fin_ev,
        ) = wang_cascade(
            t_all, self.periods,
            self.cand_e, self.cand_srv, self.cand_ev, self.cand_start,
            self.trig_pos, srv_off, srv_req, self.r_cum,
            self.tail_when, self.tail_srv, self.tail_start,
            m, bool(drain), int(cap_v),
        )

        # pop-phase charges: every fire drops except the suppressed
        # die-out triggers; episode charges (cascade transfer drops and
        # injected-extension drops) interleave by (when, server)
        keep = np.ones(self.cand_e.size, dtype=bool)
        keep[self.trig_pos[suppress]] = False
        pw = self.cand_e[keep]
        ps = self.cand_srv[keep]
        pst = self.cand_start[keep]
        pev = self.cand_ev[keep]
        if ep_when.size:
            pw = np.concatenate((pw, ep_when))
            ps = np.concatenate((ps, ep_srv))
            pst = np.concatenate((pst, ep_start))
            pev = np.concatenate((pev, ep_ev))
            o = np.lexsort((ps, pw))
            pw, ps, pst, pev = pw[o], ps[o], pst[o], pev[o]

        # serve-phase charges: baseline renewals plus the machine's
        # miss->renewal flips (a die-out extension served locally); a
        # flip's closed segment starts where the extension started
        serve_mask = self.req_renew
        S = self.r_cum                      # serves up to each event
        if flip_req.size:
            serve_mask = serve_mask.copy()
            serve_mask[flip_req] = True
            S = serve_mask.cumsum()
        serve_pos = _nonzero(serve_mask)
        start_srv = t_all[chains.prev[serve_pos]]
        if flip_req.size:
            start_srv[S[flip_req] - 1] = flip_start

        # the same counting interleave as _kernel_algorithm1: within an
        # event, pops precede the serve charge, and the serves fill the
        # slots the pops leave; drain then finalize last
        n_pop = pw.size
        n_srv = serve_pos.size
        pos_pop = S[pev - 1] + np.arange(n_pop, dtype=np.int64)
        srv_slot = np.ones(n_pop + n_srv, dtype=bool)
        srv_slot[pos_pop] = False
        pos_srv = _nonzero(srv_slot)

        # finalize walk in dict-insertion order: a live copy sits at the
        # slot of its creating event — the server's last true miss, a
        # mid-trace cascade create's pop phase, or a drain create
        n_fin = fin_srv.size
        if n_fin:
            miss = np.logical_not(serve_mask)
            miss[0] = True                 # the dummy creates at server 0
            ords = np.empty(n_fin, dtype=np.int64)
            for k in range(n_fin):
                kind = fin_kind[k]
                if kind == 0:
                    rk = srv_req[srv_off[fin_srv[k]]:srv_off[fin_srv[k] + 1]]
                    mk = np.flatnonzero(miss[rk])
                    ords[k] = 2 * rk[mk[-1]] + 1
                elif kind == 1:
                    ords[k] = 2 * fin_ev[k]
                else:
                    ords[k] = 2 * (m + 2) + fin_ev[k]
            fo = np.argsort(ords, kind="stable")
            fin_srv = fin_srv[fo]
            fin_start = fin_start[fo]

        # every slot interval is charged exactly once: m + 1 creates-or-
        # renewals plus one extra interval per cascade create at server 0
        n_dr = dr_when.size
        total = n_pop + n_srv + n_dr + n_fin
        assert total == m1 + n_tx_casc
        vals = np.empty(total)
        vals[pos_pop] = (pw - pst) * rates[ps]
        vals[pos_srv] = (t_all[serve_pos] - start_srv) * rates[
            j_all[serve_pos]
        ]
        if n_dr:
            vals[n_pop + n_srv : n_pop + n_srv + n_dr] = (
                np.minimum(dr_when, t_m) - np.minimum(dr_start, t_m)
            ) * rates[dr_srv]
        if n_fin:
            vals[total - n_fin :] = (t_m - np.minimum(fin_start, t_m)) * rates[
                fin_srv
            ]
        storage = seq_sum(vals)
        # transfers: one lam per true miss plus one per cascade ship —
        # identical addends, so one left-to-right chain matches any
        # chronological interleave bit for bit
        n_tx = (m - n_srv) + int(n_tx_casc)
        transfer = repeat_add(self.lam, n_tx)
        return storage, transfer, n_tx


class KernelCostEngine(Engine):
    """Cost-only segment-scan replay: pure array passes, no per-request
    Python loop.

    Algorithm 1 (and with it the conventional baseline and the adaptive
    variant) rides the segment scan, and Wang's baseline rides the
    candidate-count formulation plus the sequential episode machine
    (see the module DESIGN docstring for the eligibility rules and both
    bit-identity arguments).  :meth:`run` evaluates its cell as a
    one-cell slab (:func:`_kernel_slab`), the one way into the kernel's
    replays; :func:`run_policy_slab` sends it whole slabs, which share
    the per-trace chains and per-duration reach arrays and whose passes
    run serially or across threads as ``core/backends.py`` decides from
    the thread budget (bit-identical either way).
    """

    name = "kernel"

    def _refusal(
        self, trace: Trace, model: CostModel, policy: ReplicationPolicy
    ) -> Exception | None:
        """Why the kernel cannot replay ``policy`` on ``(trace, model)``
        faithfully, as the error :meth:`run` raises, or None."""
        late = _late()
        kind = type(policy)
        if kind is late.Wang:
            rates = model.storage_rates
            if any(rates[i] > rates[i + 1] for i in range(len(rates) - 1)):
                return PolicyError(
                    "WangReplication requires servers indexed by ascending "
                    "storage rate (mu(s_0) <= ... <= mu(s_{n-1}))"
                )
            return None
        if kind not in late.algorithm1:
            return EngineError(
                f"{type(self).__name__} does not support {kind.__name__}; "
                "use the reference engine"
            )
        if not model.uniform_storage:
            return PolicyError(
                "Algorithm 1 assumes uniform storage rates (paper Section 2)"
            )
        # a cheap type/provenance check: the stream itself is built once,
        # in the slab
        if not late.PredictionStream.supports_predictor(
            _stream_predictor(policy), trace
        ):
            return EngineError(
                f"{type(self).__name__} cannot stream predictor "
                f"{policy.predictor.name!r}; use the reference engine"
            )
        return None

    def supports(
        self, trace: Trace, model: CostModel, policy: ReplicationPolicy
    ) -> bool:
        return self._refusal(trace, model, policy) is None

    def run(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ) -> CostResult:
        if model.n != trace.n:
            raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
        (out,) = _kernel_slab(trace, [(model, policy)], drain, drain_event_cap)
        if out is None:
            raise self._refusal(trace, model, policy)
        return out

    def run_observed(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ) -> CostResult:
        """:meth:`run`: its one-cell slab already records the cell's
        ``engine.slab`` span and counts it."""
        return self.run(trace, model, policy, drain, drain_event_cap)


def run_slab(
    trace: Trace,
    model: CostModel,
    cells: Sequence[SlabCell],
    factory: SlabFactory,
    engine: str | Engine = "auto",
) -> list:
    """Evaluate a slab of grid cells sharing one ``(trace, lambda)``.

    The grid-facing adapter of :func:`run_policy_slab`: ``cells`` is a
    sequence of ``(alpha, accuracy, seed)`` tuples and ``factory``
    follows the sweep-layer policy-factory signature.  Each cell's
    policy is built exactly once; tier selection, telemetry and the
    per-cell fallback are :func:`run_policy_slab`'s.
    """
    return run_policy_slab(
        trace,
        [
            (model, factory(trace, model.lam, alpha, accuracy, seed))
            for alpha, accuracy, seed in cells
        ],
        engine,
    )


def run_policy_slab(
    trace: Trace,
    cells: Sequence[tuple[CostModel, ReplicationPolicy]],
    engine: str | Engine = "auto",
) -> list:
    """Evaluate pre-built ``(model, policy)`` cells sharing one trace.

    The one slab dispatcher: the runner's chunks (grid cells and fleet
    objects alike) call it directly, and :func:`run_slab` adapts
    ``(alpha, accuracy, seed)`` grid cells onto it.  Cells may carry
    heterogeneous cost models — distinct per-object lambdas are allowed
    (every model must agree with ``trace.n``).  With ``engine``
    ``"auto"`` or ``"kernel"`` (or a :class:`KernelCostEngine`) every
    eligible cell, one or many, runs in one kernel slab
    (:func:`_kernel_slab`) at any trace length: the cells share one
    :class:`_SegmentChains` and its per-duration shift columns, so
    cells with different lambdas still share the segment scan and mixed
    Algorithm-1 + Wang slabs run as one single-tier slab; the
    Algorithm-1 cells share one cell-major prediction matrix with
    per-lambda truth and per-seed draw memos
    (:meth:`PredictionStream.batch_for_cells`) and replay one pass per
    ``(lambda, alpha, rate)`` group, and the Wang cells one replay per
    ``(lambda, rates)`` model.

    Cells the kernel does not take fall back through
    :func:`select_engine` one at a time, so a concrete engine name stays
    strict (it raises on policies it cannot execute) while ``"auto"``
    always completes.  Per-cell costs are bit-identical to
    ``select_engine(trace, model, policy, engine).run_observed(trace,
    model, policy)`` on every path.
    """
    cells = list(cells)
    for model, _ in cells:
        if model.n != trace.n:
            raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
    if engine in ("auto", "kernel") or isinstance(engine, KernelCostEngine):
        results = _kernel_slab(trace, cells, True, None)
    else:
        results = [None] * len(cells)
    # per-cell fallback: "auto" keeps auto-selecting; a concrete engine
    # stays strict and raises on policies it cannot execute
    for i, (model, policy) in enumerate(cells):
        if results[i] is None:
            eng = select_engine(trace, model, policy, engine)
            results[i] = eng.run_observed(trace, model, policy)
    return results


class _GroupDrops:
    """The drop order a group's passes share: the held
    :func:`_drop_order` over the union of every row of a ``(lambda,
    alpha, rate)`` group that spans several passes.  The first of its
    passes to run builds it; each pass then only picks its own rows'
    drops out of it; the last pass releases it.  On the threaded path
    the lock makes the group's passes build it once between them."""

    __slots__ = ("rows", "passes", "order", "lock")

    def __init__(self, rows: np.ndarray, passes: int):
        self.rows = rows              # the group's prediction rows
        self.passes = passes          # passes yet to finish
        self.order: tuple | None = None
        self.lock = threading.Lock()

    def take(self, chains: _SegmentChains, lam: float, alpha: float) -> tuple:
        with self.lock:
            if self.order is None:
                dur_beyond = alpha * lam
                self.order = _drop_order(
                    chains,
                    self.rows,
                    chains.shifted(lam),
                    chains.shifted(dur_beyond),
                    lam,
                    dur_beyond,
                    held=True,
                )
            return self.order

    def done(self) -> None:
        with self.lock:
            self.passes -= 1
            if not self.passes:
                self.order = None


#: the largest Algorithm-1 pass, in prediction-matrix entries (rows x
#: (m + 1)); a group beyond it splits into row chunks, and traces longer
#: than it run one row per pass.  ``benchmarks/BENCH_scaling.json``'s
#: ``row_chunk`` view times a 121-cell fig25 grid per cell at trace
#: sizes on both sides of it.
_ROW_CHUNK_ELEMS = 1 << 16


def _kernel_slab(
    trace: Trace,
    cells: list,
    drain: bool,
    drain_event_cap: int | None,
) -> list:
    """Replay every cell the kernel takes over one shared segment scan,
    on the execution path ``auto`` picks for the slab; returns a
    :class:`CostResult` per cell, or None where the kernel refuses the
    cell.  The one way into the kernel's replays: a lone cell is a
    one-cell slab.

    The Algorithm-1 cells run one pass per ``(lambda, alpha, rate)``
    group, in row chunks of at most :data:`_ROW_CHUNK_ELEMS` entries
    and at most ``ceil(cells / threads)`` rows, so every thread gets
    work; a group whose durations coincide replays one row for all its
    cells, and the Wang cells, prediction- and alpha-free, run one
    replay per ``(lambda, rates)`` model.  An adaptive row replays its
    raw predictions first, and its pass checks the monitor: a row that
    never trips is final, and only trip episodes reach the scalar
    machine, in up to two later rounds of passes (see the module DESIGN
    docstring).
    """
    kernel = _ENGINES["kernel"]
    late = _late()
    wang = late.Wang
    groups: dict[tuple, list[int]] = {}
    groups_of: dict[int, tuple] = {}
    n_cells = n_wang = 0
    for i, (model, policy) in enumerate(cells):
        if not kernel.supports(trace, model, policy):
            continue
        n_cells += 1
        if type(policy) is wang:
            key = (model.lam, model.storage_rates)
            n_wang += 1
        else:
            key = (model.lam, policy.alpha, model.storage_rates[0])
        groups.setdefault(key, []).append(i)
        groups_of[i] = key
    results: list = [None] * len(cells)
    if not n_cells:
        return results
    m = len(trace)
    be = get_backend().resolve(n_cells, m)
    threads = be.threads(n_cells)
    rows_max = max(
        1, min(_ROW_CHUNK_ELEMS // (m + 1), -(-(n_cells - n_wang) // threads))
    )

    def passes(block, idx, check, share_drops) -> list[tuple]:
        """A group's passes, one per row chunk of its prediction rows
        ``block`` (one row per cell of ``idx``).  A pass is a unit
        ``(rows, cells, check, held drop order)``; ``check[r]`` is None
        for a row whose monitor the pass skips, else the request after
        which a trip sends the row to the next round.  With
        ``share_drops`` a group of several passes builds its drop order
        once for all of them."""
        n = -(-len(idx) // rows_max)
        hold = _GroupDrops(block, n) if share_drops and n > 1 else None
        return [
            (block[s : s + rows_max], idx[s : s + rows_max],
             check[s : s + rows_max], hold)
            for s in range(0, len(idx), rows_max)
        ]

    def run() -> tuple[dict, int]:
        # the chains and the prediction matrix are slab work too: the
        # span covers them.  The matrix takes its ground truth from the
        # chains' shifts, which the replays use anyway.
        chains = _SegmentChains(trace)
        # prediction rows go group by group, so every pass is a row slice
        order: list[int] = []
        layout = []
        for idx in groups.values():
            model, policy = cells[idx[0]]
            if type(policy) is wang:
                layout.append((idx, None, False))
                continue
            # one row's ledger is every row's where the durations coincide
            shared = _durations_coincide(model, policy)
            layout.append((idx, len(order), shared))
            order += idx[:1] if shared else idx
        rows = late.prediction_rows(
            [(_stream_predictor(cells[i][1]), cells[i][0].lam) for i in order],
            trace,
            chains.within,
        )
        assert rows is not None  # supports() vetted streamability
        units: list[tuple] = []
        for idx, start, shared in layout:
            if start is None:
                units.append((None, idx, None, None))
            elif shared:
                # forcing cannot change this ledger: no monitor runs
                units.append((rows[start : start + 1], idx, [None], None))
            else:
                check = [
                    0 if type(cells[i][1]) is late.Adaptive else None
                    for i in idx
                ]
                units += passes(
                    rows[start : start + len(idx)], idx, check, True
                )

        def one(unit: tuple) -> tuple:
            """A unit's ledger, and its rows whose monitor tripped."""
            block, idx, check, hold = unit
            model, policy = cells[idx[0]]
            if block is None:
                ledger = _WangReplay(
                    chains, float(model.lam), model.storage_rates
                ).replay(drain, drain_event_cap)
                return ledger, []
            monitor = [
                (r, cells[i][1])
                for r, (i, after) in enumerate(zip(idx, check))
                if after is not None
            ]
            drops = None
            if hold:
                drops = hold.take(chains, model.lam, policy.alpha)
            storage, n_tx, trips = _kernel_algorithm1(
                chains,
                model.storage_rates[0],
                model.lam,
                policy.alpha,
                block,
                drain,
                drain_event_cap,
                drops,
                monitor or None,
            )
            if hold:
                hold.done()
            tripped = []
            if trips is not None:
                tripped = [
                    r for (r, _), row in zip(monitor, trips)
                    if row[check[r] + 1 :].any()
                ]
            return (model.lam, storage, n_tx), tripped

        ledgers: dict[int, tuple] = {}    # complete ledgers, by cell
        replays: list[tuple] = []      # (cells, (lam, storage, n_tx))
        n_passes = 0

        def round_of(units: list) -> list[tuple[int, np.ndarray]]:
            """Run ``units`` as one round of passes; returns the ``(cell,
            replayed column)`` of every row whose monitor tripped."""
            nonlocal n_passes
            n_passes += len(units)
            tripped = []
            # run_units preserves unit order
            outs = be.run_units(units, one, threads)
            for (block, idx, _, _), (ledger, rows_tripped) in zip(units, outs):
                if block is None:
                    ledgers.update(dict.fromkeys(idx, ledger))
                    continue
                replays.append((idx, ledger))
                tripped += [(idx[r], block[r]) for r in rows_tripped]
            return tripped

        def rerun(jobs: list[tuple[int, np.ndarray, int | None]]) -> set:
            """Replay ``(cell, column, check)`` jobs as one round, the
            consecutive jobs of one group sharing passes; returns the
            cells that tripped.  A rerun row's column has grown where
            the monitor forced it, so its pass builds its own drop
            order and never takes its group's held one."""
            block = np.array([col for _, col, _ in jobs])
            units, lo = [], 0
            for _, same in itertools.groupby(jobs, lambda job: groups_of[job[0]]):
                hi = lo + sum(1 for _ in same)
                units += passes(
                    block[lo:hi],
                    [i for i, _, _ in jobs[lo:hi]],
                    [after for _, _, after in jobs[lo:hi]],
                    False,
                )
                lo = hi
            return {i for i, _ in round_of(units)}

        def machine(i: int, within: np.ndarray, until_release: bool):
            model, policy = cells[i]
            return late.forced_column(
                chains.t_all,
                chains.j_all,
                within,
                chains.n,
                model.lam,
                model.storage_rates[0],
                policy.alpha,
                policy.beta,
                policy.warmup,
                until_release,
            )

        # round 1 replays the raw predictions, and a row whose monitor
        # never trips is the policy's.  A tripped row's column is exact
        # up to its first release r, from the machine: round 2 replays
        # it and checks for trips after r, and a row that trips again
        # gets the machine's whole column in round 3
        tripped = round_of(units)
        if tripped:
            jobs = []
            for i, within in tripped:
                forced = machine(i, within, True)
                col = within.copy()
                col[: forced.size] |= forced
                jobs.append((i, col, forced.size - 1))
            again = rerun(jobs)
            if again:
                rerun([
                    (i, within | machine(i, within, False), None)
                    for i, within in tripped
                    if i in again
                ])
        # repeated `transfer += lam`: every pass at one lambda reads the
        # same sequential chain of partial sums, built once, at its own
        # transfer counts
        top: dict[float, int] = {}
        for _, (lam, _, n_tx) in replays:
            top[lam] = max(top.get(lam, 0), int(n_tx.max()))
        partial = {lam: _transfer_chain(lam, n) for lam, n in top.items()}
        # a later round's replay of a cell supersedes its earlier ones
        for idx, (lam, storage, n_tx) in replays:
            out = list(zip(
                storage.tolist(), partial[lam][n_tx].tolist(), n_tx.tolist()
            ))
            if len(out) < len(idx):
                out *= len(idx)      # one row serves the whole group
            ledgers.update(zip(idx, out))
        return ledgers, n_passes

    # one engine.slab span per slab, counting its cells and passes (the
    # disabled path is one flag check)
    if _obs.enabled:
        with _obs.span(
            "engine.slab", tier="kernel", cells=n_cells, m=m, backend=be.name,
        ) as span:
            ledgers, span.tags["passes"] = run()
        _obs.counter("repro_engine_cells_total", tier="kernel").inc(n_cells)
    else:
        ledgers, _ = run()
    for i, ledger in ledgers.items():
        results[i] = _cost_result(trace, *cells[i], ledger, "kernel")
    return results


# ----------------------------------------------------------------------
# registry and selection
# ----------------------------------------------------------------------
_ENGINES: dict[str, Engine] = {
    "reference": ReferenceEngine(),
    "kernel": KernelCostEngine(),
}

#: valid names for CLI flags and engine= parameters
ENGINE_NAMES: tuple[str, ...] = ("auto", "kernel", "reference")


def get_engine(name: str | Engine) -> Engine:
    """Resolve an engine instance from a name (``"kernel"``/``"reference"``)."""
    if isinstance(name, Engine):
        return name
    try:
        eng = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; choose from {sorted(_ENGINES)} or 'auto'"
        ) from None
    return eng


def select_engine(
    trace: Trace,
    model: CostModel,
    policy: ReplicationPolicy,
    engine: str | Engine = "auto",
) -> Engine:
    """Pick the engine for one run.

    ``"auto"`` selects the segment-scan kernel for every policy it
    supports, at any trace length, and the reference engine otherwise
    (see the module docstring).  Slabs of cells sharing one trace go
    through :func:`run_policy_slab`.  A concrete name or :class:`Engine`
    instance is returned as-is — callers that need telemetry must pass
    ``"reference"`` explicitly.
    """
    if engine != "auto":
        return get_engine(engine)
    kernel = _ENGINES["kernel"]
    if not kernel.supports(trace, model, policy):
        chosen, reason = _ENGINES["reference"], "kernel_ineligible"
    else:
        chosen, reason = kernel, "kernel_eligible"
    if _obs.enabled:
        _obs.counter(
            "repro_engine_select_total", engine=chosen.name, reason=reason
        ).inc()
    return chosen
