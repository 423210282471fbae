"""Tiered simulation engines: full-telemetry reference vs cost-only tiers.

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
* the cost-only tiers, :class:`BatchCostEngine` and
  :class:`KernelCostEngine` — replay the *same decision process* from a
  precomputed :class:`~repro.predictions.stream.PredictionStream`, with
  no event log, no per-request dataclasses and no policy callbacks.
  They return a :class:`CostResult` carrying only the cost ledger
  totals.

Exact equivalence, not approximate
----------------------------------
The cost-only tiers are written to reproduce the reference engine's
*floating-point operation order*, not merely its semantics: storage is
charged at the same moments (renewal, drop, finalize) with the same
``(min(end, t_m) - min(start, t_m)) * rate`` expression, transfers are
accumulated by the same repeated additions of ``lambda``, expiries pop
in the same ``(time, server, token)`` heap order, and finalization walks
live copies in the same dict-insertion order as ``SimContext._holding``.
Noisy-oracle predictions are drawn as one batched ``random(m + 1)``
call, bit-identical to the incremental per-query draws.  Consequently
cost-only costs are not just "within 1e-9" of :func:`simulate` — they
are bit-identical on every instance, and the test suite pins it.

Which policies the cost-only tiers take
---------------------------------------
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
  below.  ``forced`` comes from one sequential machine over the trace
  and prediction columns
  (:func:`repro.algorithms.adaptive.forced_column`): per-server expiry
  state yields each request's Section 4.1 type, ``l_i`` and ``t'_i``,
  and the monitor repeats ``_note_request``'s float operations in its
  order, so every trip decision equals the reference policy's.

Everything else falls back to the reference engine:

* history-based predictors (sliding window, Markov, EWMA, ensembles)
  learn from ``observe`` callbacks in arrival order;
* anything needing classifications, serve records, event logs, monitor
  histories, or copy records must use the reference engine — the
  cost-only tiers never produce telemetry, by construction.

The batch and kernel tiers share that rule and everything around
their replays — the model check, the policy-kind dispatch, prediction
streaming, the errors, :class:`CostResult` assembly — through one base
class, :class:`_CostOnlyEngine`; each tier supplies only its Algorithm-1
replay (Wang's prediction-free baseline replays on the kernel's cascade
for both).  ``select_engine(trace, model, policy, "auto")`` returns
a cost-only tier iff ``supports()`` holds, else the reference engine.
``sweep_grid`` and ``ExperimentRunner`` default to ``"auto"`` because
grid cells consume only costs; ``MultiObjectSystem.run`` defaults to
``"reference"`` because its :class:`FleetReport` exposes full
per-object results.

The batch tier: one trace pass per slab
---------------------------------------
The paper's grids evaluate hundreds of cells ``(alpha, accuracy, seed)``
that share one ``(trace, lambda)``; a per-cell replay walks the trace
once *per cell*.  :class:`BatchCostEngine` replays it once *per slab*: per-server slot state becomes ``(n_servers, n_cells)`` NumPy
arrays, the expiry heap becomes per-server due-time columns (each server
holds at most one live heap entry, so a ``(n_servers, n_cells)`` due
matrix plus an argmin over servers reproduces the ``(time, server,
token)`` pop order exactly), and dict insertion order is tracked with a
per-cell insertion counter so finalization walks live copies in the
identical sequence.  Every per-cell floating-point operation — the
``(min(end, t_m) - min(start, t_m)) * rate`` storage charges, the
repeated ``+= lambda`` transfer additions, the single ``alpha * lambda``
duration product — is the same IEEE double op the reference ledger
performs, in the same order, so per-cell batch costs are bit-identical
to :func:`simulate`.

Wang's baseline ignores predictions and alpha entirely, so a slab's
equal-model Wang cells reduce to one kernel-tier replay
(:func:`_kernel_wang`) shared across them; the conventional baseline
rides the batch pass with a constant "beyond" prediction column (it
pins the duration to ``lambda``).

Slabs have one dispatcher, :func:`run_policy_slab`, over pre-built
``(model, policy)`` cells sharing a trace; :func:`run_slab` is its
grid-facing adapter (it builds each ``(alpha, accuracy, seed)`` cell's
policy once and delegates).  Under ``"auto"`` a slab's eligible cells
run as one batch pass per equal-model group below
:data:`KERNEL_SLAB_MIN_M` requests and on the kernel tier (next section)
at or above it; :func:`select_engine` picks the tier for a single run.
Cells no slab tier takes fall back to bit-identical per-cell execution.

The kernel tier: loop-free segment-scan replay
----------------------------------------------
The batch tier still walks the trace with a per-request Python loop,
one vectorized step per request.  On million-request columnar traces
that loop *is* the cost of a grid cell.  :class:`KernelCostEngine` removes it
entirely: a cell is evaluated by a fixed number of whole-array passes,
with no per-request Python work at all.

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
  copy is the lexicographic ``(E, server)`` maximum among segments with
  ``reach == i - 1`` — the scalar heap's pop order — and it is resolved
  at request ``i`` itself (renewed if local, dropped after the transfer
  otherwise), so die-outs never couple across requests.

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
construction, and the two sequences interleave by counting sums
(``bincount`` + ``cumsum``) rather than comparison sorts.  The ordered
charge values are then reduced with ``np.add.accumulate`` — NumPy's
*sequential* accumulation, unlike ``np.add.reduce``'s pairwise tree —
so the final sum performs the same doubles additions in the same order
as the ledger's ``storage += charge``.  Transfers reuse the batch tier's
partial-sum argument: ``accumulate(full(n_tx, lam))[-1]`` is the
ledger's repeated ``transfer += lam`` bit for bit.  Kernel costs are
therefore bit-identical to the reference simulator for every
``supports()``-eligible policy, and the test suite pins this across
every registered scenario.

Wang's baseline rides the same tier through a *cascade factorisation*
(:class:`_WangReplay`).  Its drop cascade (``renewed_once`` flags,
second-consecutive-expiry shipping to server 0) couples each server's
next expiry to the global alive set, so the pure segmented formulation
above does not apply directly — but the coupling is sparse.  With the
fixed periods ``lam / rate[s]``, the *baseline* expiry column ``E[q] =
t[q] + period[server[q]]`` is exact for every copy created by a serve
(the overwhelming majority): renewals are again ``succ <= reach``, and
the renewal prefix-count ``r_cum`` turns "how many other copies are
alive at expiry ``E[q]``" into pure arithmetic over the candidates
sorted by the scalar heap's ``(E, server)`` pop key.  A candidate with
at least one other copy alive is an unconditional drop (its grace flag
was reset by the serve that created it); only the rare *die-out
triggers* — candidates that expire last — enter the sequential cascade.
There, at most **one** injected extension (the grace reschedule of the
only surviving copy) is alive at a time, so a compact episode machine
(:func:`repro.core.backends.wang_cascade`) replays
just those episodes: grace extensions, second-expiry shipments to
server 0 (``transfer += lam`` with the dict-append segment on server
0), and *flips* — injected copies served locally, which convert a
predicted miss back into a renewal with an overridden segment start.
Everything downstream (charge values, the pop/serve counting
interleave, drain and finalize order, ``seq_sum`` / ``repeat_add``
reductions) reuses the machinery above, so kernel Wang is bit-identical
to the reference simulator's heap replay — the tests pin this across
every registered scenario, tie-prone hypothesis instances, and both the
serial and the threaded execution path.  ``supports()`` therefore
carries **no policy exclusions**: heterogeneous Algorithm-1 + Wang
fleets run as single-tier kernel slabs (see :func:`run_policy_slab`).

Selection: ``"auto"`` runs every single eligible cell on the kernel, at
any trace length.  On slabs the kernel's fixed overhead (a handful of
array allocations and one shared per-server sort) loses to the batch
engine's shared trace pass on short traces, so ``"auto"`` prefers it
only from :data:`KERNEL_SLAB_MIN_M` requests up (a crossover the
recorded rows do not yet confirm, because it also moves with slab
width; see ``benchmarks/bench_scaling.py`` for the measurements).  In
slab mode the per-cell masks broadcast over an ``(n_cells,)`` axis of
independent columns sharing the per-trace
``succ``/``prev`` chains and one ``searchsorted`` per *distinct*
keep-duration — 12 for the paper's 121-cell fig25 grid — which is
where the tier's ≥5x per-cell advantage over the batch engine at
million-request scale comes from (``benchmarks/bench_kernel.py``).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs import metrics as _obs
from .backends import (
    KernelBackend,
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
    "BatchCostEngine",
    "KernelCostEngine",
    "CostResult",
    "ENGINE_NAMES",
    "KERNEL_SLAB_MIN_M",
    "get_engine",
    "select_engine",
    "run_slab",
    "run_policy_slab",
]


class EngineError(RuntimeError):
    """Raised when an engine is asked to run a policy it cannot handle."""


@dataclass(frozen=True)
class CostResult:
    """Cost-only outcome of a batch- or kernel-tier run, bit-identical
    in its costs to :func:`~repro.core.simulator.simulate`.

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

    #: extra tags for this engine's ``engine.cell`` spans
    cell_tags: dict = {}

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

        The disabled path is one flag check and a direct call; dispatch
        sites (per-cell slab fallback, fleets) call this so per-cell
        wall time is tagged by engine tier without touching the engine
        implementations.
        """
        if not _obs.enabled:
            return self.run(trace, model, policy, drain, drain_event_cap)
        with _obs.span(
            "engine.cell", tier=self.name, m=len(trace), **self.cell_tags
        ):
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


def _stream_predictor(policy: ReplicationPolicy):
    """The predictor whose stream drives an Algorithm-1-family policy.

    The conventional baseline pins ``alpha = 1``, so both prediction
    branches pick duration ``lambda`` and its own predictor is never
    consulted: a constant "beyond" stream stands in for it.
    """
    from ..algorithms.conventional import ConventionalReplication
    from ..predictions.oracle import FixedPredictor

    if type(policy) is ConventionalReplication:
        return FixedPredictor(False)
    return policy.predictor


def _replay_column(
    trace: Trace,
    model: CostModel,
    policy: ReplicationPolicy,
    within: np.ndarray,
) -> np.ndarray:
    """The prediction column whose Algorithm-1 replay is ``policy``'s
    ledger: ``within`` itself, or ``within | forced`` for the adaptive
    variant, whose fallback flags ``forced`` come from its monitor
    machine (see the module DESIGN docstring)."""
    from ..algorithms.adaptive import AdaptiveReplication, forced_column

    if type(policy) is not AdaptiveReplication:
        return within
    forced = forced_column(
        np.concatenate(([0.0], trace.times)),
        np.concatenate(([0], trace.servers)),
        within,
        trace.n,
        model.lam,
        policy.alpha,
        policy.beta,
        policy.warmup,
    )
    return within | forced


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


class _CostOnlyEngine(Engine):
    """One eligibility rule and one :meth:`run` for the cost-only tiers.

    The batch and kernel tiers replay the same policies to the same
    bit-identical ledgers, so everything around the replay — the
    model check, the policy-kind dispatch, prediction streaming, the
    errors, :class:`CostResult` assembly, and the Wang replay (the
    kernel's cascade; Wang ignores predictions, so no tier has its own)
    — lives here and each tier supplies only :meth:`_algorithm1`.  See
    the module DESIGN docstring for the eligibility rules and the
    bit-identical-cost argument.
    """

    def supports(
        self, trace: Trace, model: CostModel, policy: ReplicationPolicy
    ) -> bool:
        from ..algorithms.adaptive import AdaptiveReplication
        from ..algorithms.conventional import ConventionalReplication
        from ..algorithms.learning_augmented import LearningAugmentedReplication
        from ..algorithms.wang import WangReplication
        from ..predictions.stream import PredictionStream

        kind = type(policy)
        if kind is WangReplication:
            return _wang_rates_ok(model)
        if kind in (
            ConventionalReplication,
            LearningAugmentedReplication,
            AdaptiveReplication,
        ):
            # cheap type/provenance check; the stream itself is built
            # once, in run()
            return model.uniform_storage and PredictionStream.supports_predictor(
                _stream_predictor(policy), trace
            )
        return False

    def run(
        self,
        trace: Trace,
        model: CostModel,
        policy: ReplicationPolicy,
        drain: bool = True,
        drain_event_cap: int | None = None,
    ) -> CostResult:
        from ..algorithms.adaptive import AdaptiveReplication
        from ..algorithms.conventional import ConventionalReplication
        from ..algorithms.learning_augmented import LearningAugmentedReplication
        from ..algorithms.wang import WangReplication
        from ..predictions.stream import PredictionStream

        if model.n != trace.n:
            raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
        kind = type(policy)
        if kind is WangReplication:
            if not _wang_rates_ok(model):
                raise PolicyError(
                    "WangReplication requires servers indexed by ascending "
                    "storage rate (mu(s_0) <= ... <= mu(s_{n-1}))"
                )
            ledger = self._wang(trace, model, drain, drain_event_cap)
        elif kind in (
            ConventionalReplication,
            LearningAugmentedReplication,
            AdaptiveReplication,
        ):
            if not model.uniform_storage:
                raise PolicyError(
                    "Algorithm 1 assumes uniform storage rates (paper Section 2)"
                )
            stream = PredictionStream.for_predictor(
                _stream_predictor(policy), trace, model.lam
            )
            if stream is None:
                raise EngineError(
                    f"{type(self).__name__} cannot stream predictor "
                    f"{policy.predictor.name!r}; use the reference engine"
                )
            ledger = self._algorithm1(
                trace,
                model,
                policy.alpha,
                _replay_column(trace, model, policy, stream.within),
                drain,
                drain_event_cap,
            )
        else:
            raise EngineError(
                f"{type(self).__name__} does not support {kind.__name__}; "
                "use the reference engine"
            )
        return _cost_result(trace, model, policy, ledger, self.name)

    @abc.abstractmethod
    def _algorithm1(
        self,
        trace: Trace,
        model: CostModel,
        alpha: float,
        within: np.ndarray,
        drain: bool,
        drain_event_cap: int | None,
    ) -> tuple[float, float, int]:
        """``(storage, transfer, n_transfers)`` of Algorithm 1 under the
        prediction stream ``within`` (uniform storage rates)."""

    def _wang(
        self,
        trace: Trace,
        model: CostModel,
        drain: bool,
        drain_event_cap: int | None,
    ) -> tuple[float, float, int]:
        """``(storage, transfer, n_transfers)`` of the Wang et al.
        baseline (servers indexed by ascending storage rate)."""
        return _kernel_wang(_SegmentChains(trace), model, drain, drain_event_cap)


def _wang_rates_ok(model: CostModel) -> bool:
    rates = model.storage_rates
    return all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))


# ----------------------------------------------------------------------
# batched slab kernel
#
# One trace pass evaluates every cell of a slab.  The cell axis is the
# second array dimension throughout; every statement below performs, per
# cell, exactly the scalar operation the reference simulator performs at
# the same moment (see the module DESIGN docstring for the bit-identity
# argument).
# ----------------------------------------------------------------------

_NO_ORDER = np.iinfo(np.int64).max  # insertion-order slot for dead copies


def _batch_algorithm1(
    trace: Trace,
    model: CostModel,
    alphas: np.ndarray,
    pred: np.ndarray,
    drain: bool,
    drain_event_cap: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay Algorithm 1 for a whole slab of cells in one trace pass.

    ``alphas`` has shape ``(n_cells,)`` and ``pred`` shape
    ``(m + 1, n_cells)`` (one prediction column per cell).  Returns
    ``(storage, transfer, n_transfers)`` arrays whose entry ``c`` is
    bit-identical to the ledger of :func:`simulate` running Algorithm 1
    with ``alphas[c]`` under the prediction stream ``pred[:, c]``.
    """
    lam = model.lam
    n = trace.n
    t_m = trace.span
    rate = model.storage_rates[0]    # uniform: supports()/run() vet it
    alphas = np.asarray(alphas, dtype=float)
    n_cells = alphas.size
    pred = np.asarray(pred, dtype=bool)
    if pred.shape != (len(trace) + 1, n_cells):
        raise ValueError(
            f"prediction matrix must be (m + 1, n_cells) = "
            f"({len(trace) + 1}, {n_cells}), got {pred.shape}"
        )
    d_beyond = alphas * lam          # the scalar path's single multiply
    inf = np.inf

    # NOTE on charges: the reference guards every storage charge with
    # `if e > s`.  Segment starts never exceed their expiry/renewal/
    # finalize times, so after clipping to t_m the difference `e - s` is
    # always >= 0 — and adding `0.0 * rate == +0.0` to a non-negative
    # accumulator is the IEEE identity.  The kernel therefore charges
    # unconditionally, which is bit-identical and saves the mask work.
    alive = np.zeros((n, n_cells), dtype=bool)
    start = np.zeros((n, n_cells), dtype=float)
    due = np.full((n, n_cells), inf)
    # dict insertion order == creation order, and each cell creates at
    # most one copy per request, so the request index serves as the
    # per-cell insertion counter (the initial copy is order 0)
    order = np.full((n, n_cells), _NO_ORDER, dtype=np.int64)
    special = np.full(n_cells, -1, dtype=np.int64)
    # the two per-cell integer ledgers share one array so the serve step
    # updates both with a single broadcast add
    ints = np.zeros((2, n_cells), dtype=np.int64)
    n_alive = ints[0]
    n_tx = ints[1]
    storage = np.zeros(n_cells)

    def expire(fc: np.ndarray, until: float, max_rounds: int | None = None) -> None:
        """Deliver every due expiry with time < ``until`` among the cell
        columns ``fc``, one heap pop per cell per round.

        Column subsets stay compressed (integer index arrays) so quiet
        cells cost nothing; ties pop the lowest server first, matching
        the scalar ``(time, server, token)`` heap order (``argmin``
        returns the first minimum).  Rounds run in lockstep — every
        surviving column pops exactly once per round — so capping the
        round count at ``max_rounds`` reproduces the scalar drain
        loop's per-cell fired-event cap exactly.
        """
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            if fc is all_cols:
                wv = due.min(axis=0, out=f3)
                keep = np.less(wv, until, out=b_keep)
                fc = keep.nonzero()[0]
                if not fc.size:
                    return
                wv = wv[fc]
            else:
                wv = due[:, fc].min(axis=0)
                keep = wv < until
                fc, wv = fc[keep], wv[keep]
                if not fc.size:
                    return
            srv = due[:, fc].argmin(axis=0)
            due[srv, fc] = inf                    # pop the entry
            last = n_alive[fc] == 1
            if last.all():
                # lines 20-25: keep the final copy as the special copy —
                # the dominant regime.  A single-copy cell holds at most
                # one due entry (due implies alive), so every fired
                # column is now dry: no further round can fire.
                special[fc] = srv
                return
            lc = fc[last]
            special[lc] = srv[last]
            dropm = ~last
            dc = fc[dropm]
            ds = srv[dropm]
            s_ = np.minimum(start[ds, dc], t_m)
            e_ = np.minimum(wv[dropm], t_m)
            storage[dc] += (e_ - s_) * rate
            alive[ds, dc] = False
            n_alive[dc] -= 1
            # only the dropped cells can still hold a due entry < until
            # (the special-ed cells just popped their only entry), so the
            # next round's check narrows to them
            fc = dc
            rounds += 1

    # per-request schedule rows, precomputed: row i is the scalar path's
    # t_i + (d_within if pred else d_beyond) for every cell (np.where
    # selects the operand; the add is the same scalar IEEE add)
    times = trace.times
    sched = times[:, None] + np.where(pred[1:], lam, d_beyond)

    # dummy request r_0: initial copy at server 0, duration from pred[0]
    alive[0, :] = True
    order[0, :] = 0
    n_alive[:] = 1
    due[0, :] = np.where(pred[0], lam, d_beyond)

    all_cols = np.arange(n_cells)
    times_l = times.tolist()
    servers_l = trace.servers.tolist()
    # preallocated full-width work buffers: the serve step runs once per
    # request, so allocator traffic there dominates the numpy dispatch
    # overhead this kernel's throughput is made of
    unit_rate = rate == 1.0
    f1 = np.empty(n_cells)
    f2 = np.empty(n_cells)
    f3 = np.empty(n_cells)
    b_keep = np.empty(n_cells, dtype=bool)
    b_miss = np.empty(n_cells, dtype=bool)
    b_sp = np.empty(n_cells, dtype=bool)
    b_clear = np.empty(n_cells, dtype=bool)
    i_src = np.empty(n_cells, dtype=np.intp)
    # bind ufuncs to locals: the loop body is dispatch-bound
    np_not, np_and, np_eq = np.logical_not, np.logical_and, np.equal
    np_min2, np_sub, np_mul = np.minimum, np.subtract, np.multiply
    np_add, np_copyto = np.add, np.copyto
    for i in range(len(times_l)):
        t = times_l[i]
        j = servers_l[i]
        expire(all_cols, t)
        e_t = t if t < t_m else t_m
        # one unified serve step: read the pre-state fully, then write.
        # Both branches of the scalar serve set seg[j] = t, so start/alive
        # rows are written unconditionally; per-cell branch effects ride
        # on boolean masks (adding a masked-out 0.0 charge, or charging
        # `(e - s) * 1.0` without the multiply, is the IEEE identity —
        # see the charge NOTE above).  Requests on which every cell
        # agrees (all-miss at a cold server, all-renew at a hot one) take
        # branch-free fast paths.
        has = alive[j]                     # pre-write view; reads first
        nh = np.count_nonzero(has)
        if nh == 0:
            # every cell transfers from its lowest-indexed live server
            # (min(seg)); argmax over booleans finds the first live row
            src = alive.argmax(axis=0, out=i_src)
            sp = np_eq(special, src, out=b_sp)
            start[j].fill(t)
            alive[j].fill(True)
            order[j].fill(i + 1)           # create appends to the dict
            np_add(ints, 1, out=ints)      # n_alive and n_tx together
            if sp.any():
                # lines 15-19: charge and drop the special source after
                # the transfer (the destination copy was created above)
                sc = sp.nonzero()[0]
                ss = src[sc]
                s2 = np_min2(start[ss, sc], t_m)
                if unit_rate:
                    storage[sc] += e_t - s2
                else:
                    storage[sc] += (e_t - s2) * rate
                alive[ss, sc] = False
                # a special source holds no due entry (its token was
                # popped when it became special): no heap cleanup
                n_alive[sc] -= 1
                np_copyto(special, -1, where=sp)
        elif nh == n_cells:
            # every cell renews its copy period (charge the closed one)
            clear = np_eq(special, j, out=b_clear)
            s_ = np_min2(start[j], t_m, out=f1)
            charge = np_sub(e_t, s_, out=f2)
            if not unit_rate:
                np_mul(charge, rate, out=charge)
            np_add(storage, charge, out=storage)
            start[j].fill(t)
            np_copyto(special, -1, where=clear)
        else:
            miss = np_not(has, out=b_miss)
            src = alive.argmax(axis=0, out=i_src)
            sp = np_eq(special, src, out=b_sp)
            np_and(sp, miss, out=sp)       # drop the special source
            clear = np_eq(special, j, out=b_clear)
            np_and(clear, has, out=clear)  # a renewed special copy
            s_ = np_min2(start[j], t_m, out=f1)
            charge = np_sub(e_t, s_, out=f2)
            if not unit_rate:
                np_mul(charge, rate, out=charge)
            np_mul(charge, has, out=charge)    # mask misses to +0.0
            np_add(storage, charge, out=storage)
            # writes (scalar order: create/renew seg[j], clear specials,
            # then drop a charged special source — lines 15-19)
            start[j].fill(t)
            alive[j].fill(True)
            np_copyto(order[j], i + 1, where=miss)  # renew keeps order
            np_add(ints, miss, out=ints)   # n_alive and n_tx together
            if sp.any():
                np.logical_or(clear, sp, out=clear)
                sc = sp.nonzero()[0]
                ss = src[sc]
                s2 = np_min2(start[ss, sc], t_m)
                if unit_rate:
                    storage[sc] += e_t - s2
                else:
                    storage[sc] += (e_t - s2) * rate
                alive[ss, sc] = False
                n_alive[sc] -= 1
            np_copyto(special, -1, where=clear)
        due[j, :] = sched[i]

    if drain:
        # mirror simulate()'s drain loop: every remaining entry is
        # delivered in heap order up to the per-cell event cap (Algorithm 1 never
        # reschedules during expiry, so at most n entries fire per cell,
        # far below the default 4n + 16)
        cap = drain_event_cap if drain_event_cap is not None else 4 * n + 16
        expire(all_cols, inf, max_rounds=cap)

    # finalize: charge live copies in per-cell dict insertion order
    ord_live = np.where(alive, order, _NO_ORDER)
    for _ in range(n):
        w = ord_live.min(axis=0)
        fc = np.nonzero(w < _NO_ORDER)[0]
        if not fc.size:
            break
        fs = ord_live[:, fc].argmin(axis=0)
        s_ = np.minimum(start[fs, fc], t_m)
        storage[fc] += (t_m - s_) * rate
        ord_live[fs, fc] = _NO_ORDER

    # the scalar path accumulates `transfer += lam` once per transfer;
    # ufunc.accumulate performs the identical left-to-right additions,
    # so indexing the partial-sum sequence by each cell's transfer count
    # reproduces the repeated-addition ledger bit for bit
    max_tx = int(n_tx.max()) if n_cells else 0
    partial = np.zeros(max_tx + 1)
    if max_tx:
        np.add.accumulate(np.full(max_tx, lam), out=partial[1:])
    transfer = partial[n_tx]
    return storage, transfer, n_tx


#: a slab cell: ``(alpha, accuracy, seed)`` — the grid axes that share
#: one ``(trace, lambda)``
SlabCell = tuple[float, float, int]

#: the sweep-layer factory signature: (trace, lam, alpha, accuracy, seed)
SlabFactory = Callable[[Trace, float, float, float, int], ReplicationPolicy]


class BatchCostEngine(_CostOnlyEngine):
    """Cost-only slab replay: every cell of ``(alpha x accuracy x seed)``
    sharing one ``(trace, lambda)`` in a single vectorized trace pass.

    See the module DESIGN docstring for the bit-identity argument.  The
    scalar :meth:`run` interface executes a one-column slab, so the
    engine is a drop-in anywhere a name from :data:`ENGINE_NAMES` is
    accepted; the throughput win comes from whole slabs, which reach it
    through :func:`run_policy_slab`.
    """

    name = "batch"

    def _algorithm1(self, trace, model, alpha, within, drain, drain_event_cap):
        storage, transfer, n_tx = _batch_algorithm1(
            trace, model, np.array([alpha]), within[:, None], drain,
            drain_event_cap,
        )
        return float(storage[0]), float(transfer[0]), int(n_tx[0])


# ----------------------------------------------------------------------
# segment-scan kernel
#
# No per-request Python loop: per-request keep-durations come straight
# from the prediction columns, slot segments are recovered as per-server
# break masks, and the ledgers are reduced with sequential
# np.add.accumulate in the reference ledger's exact charge order (see the
# module DESIGN docstring for the derivation and bit-identity argument).
# ----------------------------------------------------------------------

_EMPTY_I = np.empty(0, dtype=np.int64)


class _SegmentChains:
    """Shared per-trace precompute for segment-scan replays.

    Holds the dummy-prefixed time/server columns, the per-server
    neighbour chains (one stable sort), and a memo of ``(t + duration,
    reach)`` arrays per distinct keep-duration, so a slab pays one
    ``searchsorted`` per duration rather than one per cell.

    Thread safety: one instance may be shared by the ``threads``
    backend's cell workers.  Every precomputed array is read-only after
    ``__init__``; the duration memo is guarded by a lock (reads stay
    lock-free — CPython dict gets are atomic — and a duplicate
    ``_Shift`` built in a race is simply discarded by ``setdefault``);
    the scratch workspace is thread-local, one per worker thread.
    """

    __slots__ = (
        "m", "m1", "n", "t_m", "t_all", "j_all", "order", "same",
        "succ", "prev", "prev_clip", "prev_ok", "lastq", "idx1",
        "arange0", "idx_dtype", "_shifts", "_shift_lock", "_tls",
        "_csr", "_wangs", "_wang_lock",
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
        idx = np.int32 if self.m1 < np.iinfo(np.int32).max - 1 else np.int64
        self.idx_dtype = idx
        order = np.argsort(self.j_all, kind="stable")
        js = self.j_all[order]
        same = js[1:] == js[:-1]
        succ = np.full(self.m1, self.m1, dtype=idx)
        succ[order[:-1][same]] = order[1:][same]
        prev = np.full(self.m1, -1, dtype=idx)
        prev[order[1:][same]] = order[:-1][same]
        self.order = order
        self.same = same
        self.succ = succ
        self.prev = prev
        # request-side views of the predecessor chain (for i = 1..m):
        # whether a predecessor exists, and its index clipped for gathers
        self.prev_ok = prev[1:] >= 0
        self.prev_clip = np.maximum(prev[1:], 0)
        # the last request at each touched server (no local successor)
        self.lastq = np.flatnonzero(succ == self.m1).astype(idx)
        self.idx1 = np.arange(1, self.m1, dtype=idx)
        self.arange0 = np.arange(self.m1, dtype=idx)
        self._shifts: dict[float, _Shift] = {}
        self._shift_lock = threading.Lock()
        self._tls = threading.local()
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._wangs: dict[tuple, "_WangReplay"] = {}
        self._wang_lock = threading.Lock()

    def workspace(self) -> "_KernelWorkspace":
        """This thread's scratch workspace (created on first use).

        Thread-local so the ``threads`` backend can replay cells
        concurrently over one shared chains instance — the serial path
        still reuses a single workspace across the whole slab.
        """
        work = getattr(self._tls, "work", None)
        if work is None:
            work = _KernelWorkspace(self.m, self.idx_dtype)
            self._tls.work = work
        return work

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

    def wang(self, lam: float, rates: tuple) -> "_WangReplay":
        """The Wang-baseline replay bundle for one ``(lam, rates)``,
        memoised like the shifts: a fleet slab's equal-model Wang cells
        share one vectorized replay instead of one scalar pass each."""
        key = (lam, rates)
        hit = self._wangs.get(key)     # lock-free fast path
        if hit is None:
            new = _WangReplay(self, lam, rates)
            with self._wang_lock:
                hit = self._wangs.setdefault(key, new)
        return hit


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
        reach = (np.searchsorted(t_all, exp, side="right") - 1).astype(
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


class _KernelWorkspace:
    """Reusable full-width scratch arrays for one :class:`_SegmentChains`.

    A slab evaluates hundreds of cells over the same trace; without
    reuse every cell would allocate (and page-fault) trace-length
    arrays, which at a million requests costs more than the arithmetic.
    Not thread-safe — one workspace per replay stream, which
    :meth:`_SegmentChains.workspace` enforces by keeping one instance
    per worker thread.
    """

    __slots__ = ("cover", "vals", "serve_cum", "dropped", "b_m1", "die", "L")

    def __init__(self, m: int, idx_dtype: type):
        m1 = m + 1
        self.vals = np.empty(m1)
        self.cover = np.empty(m1, dtype=idx_dtype)
        self.serve_cum = np.empty(m1, dtype=np.int64)
        self.dropped = np.empty(m1, dtype=bool)
        self.b_m1 = np.empty(m1, dtype=bool)
        self.die = np.empty(m, dtype=bool)
        self.L = np.empty(m, dtype=bool)


def _merge_by_expiry(
    chains: _SegmentChains,
    mask: np.ndarray,
    pred: np.ndarray,
    dur_within: float,
    dur_beyond: float,
    ws: "_KernelWorkspace",
) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, expiries)`` of ``mask`` in ``(E, server)`` order —
    the expiry heap's pop order.

    Each prediction branch's expiries are a constant shift of the
    strictly increasing request times, so the masked subset of either
    branch is already sorted: the ``(E, server)`` order is a two-stream
    merge, computed on the subsets (the full expiry column is never
    materialised).  :func:`~repro.core.backends.merge_interleave` does
    the interleave with two ``searchsorted`` passes; the server
    tie-break can only matter *across* streams, so it reports
    cross-stream expiry ties by returning ``None`` and the rare tied
    instances fall back to a lexsort here.
    """
    t_all, j_all = chains.t_all, chains.j_all
    tmp = np.logical_and(mask, pred, out=ws.b_m1)
    dw = np.flatnonzero(tmp)
    np.logical_xor(mask, tmp, out=tmp)       # mask & ~pred
    db = np.flatnonzero(tmp)
    # the same scalar IEEE add as schedule(j, t + duration), per subset
    ew = t_all[dw] + dur_within
    eb = t_all[db] + dur_beyond
    if not db.size:
        return dw, ew
    if not dw.size:
        return db, eb
    merged = merge_interleave(dw, ew, db, eb)
    if merged is not None:
        return merged
    mi = np.flatnonzero(mask)
    emi = t_all[mi] + np.where(pred[mi], dur_within, dur_beyond)
    order = np.lexsort((j_all[mi], emi))
    return mi[order], emi[order]


def _resolve_specials(
    chains: _SegmentChains,
    sw: _Shift,
    sb: _Shift,
    pred: np.ndarray,
    die_pos: np.ndarray,
    dur_within: float,
    dur_beyond: float,
) -> np.ndarray:
    """The special segment of each die-out group: the ``(E, server)``
    maximum among segments with ``reach == i - 1`` still current.

    Candidates are found per group without scanning the trace: each
    shift's ``reach`` column is non-decreasing, so the segments with a
    given reach form a contiguous range located by two integer
    ``searchsorted`` calls, filtered to the cell's prediction branch
    and to still-current segments (``succ > reach``).
    """
    t_all, j_all, succ = chains.t_all, chains.j_all, chains.succ
    dp = die_pos.astype(chains.idx_dtype)
    ki_parts = [_EMPTY_I]
    gi_parts = [_EMPTY_I]
    ei_parts = [np.empty(0)]
    for shift, dur, want in ((sw, dur_within, True), (sb, dur_beyond, False)):
        lo = np.searchsorted(shift.reach, dp, side="left")
        cnt = np.searchsorted(shift.reach, dp, side="right") - lo
        total = int(cnt.sum())
        if not total:
            continue
        k = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(total)
        g = np.repeat(die_pos, cnt)
        keep = (pred[k] == want) & (succ[k] > g)
        k, g = k[keep], g[keep]
        ki_parts.append(k)
        gi_parts.append(g)
        ei_parts.append(t_all[k] + dur)
    ki = np.concatenate(ki_parts)
    gi = np.concatenate(gi_parts)
    ei = np.concatenate(ei_parts)
    assert ki.size                  # request i-1 always qualifies
    order = np.lexsort((j_all[ki], ei, gi))
    ki, gi = ki[order], gi[order]
    last = np.empty(ki.size, dtype=bool)
    last[-1] = True
    np.not_equal(gi[1:], gi[:-1], out=last[:-1])
    spec = ki[last]
    # the segment of request i-1 is always a candidate, so every
    # die-out group resolved a special
    assert spec.size == die_pos.size
    return spec


def _tenure_starts(chains: _SegmentChains, miss_full: np.ndarray) -> np.ndarray:
    """For every request, the request index at which its server's
    current continuous tenure began (the latest transfer to it, or 0
    for server 0's initial copy) — a live copy's dict-insertion slot.

    One segmented ``maximum.accumulate`` along the shared per-server
    order: renewals inherit, misses reset.
    """
    so = chains.order
    grp_start = np.empty(so.size, dtype=bool)
    grp_start[0] = True
    np.logical_not(chains.same, out=grp_start[1:])
    gid = np.cumsum(grp_start) - 1
    vals = np.where(miss_full[so], so, -1)
    off = np.int64(chains.m1 + 1)
    run = np.maximum.accumulate(vals + gid * off) - gid * off
    tenure = np.empty(chains.m1, dtype=np.int64)
    tenure[so] = run
    return tenure


def _kernel_algorithm1(
    chains: _SegmentChains,
    rate: float,
    lam: float,
    alpha: float,
    pred: np.ndarray,
    drain: bool,
    drain_event_cap: int | None,
) -> tuple[float, float, int]:
    """Replay Algorithm 1 with pure array passes (no per-request loop).

    Returns ``(storage, transfer, n_transfers)`` bit-identical to the
    ledger of :func:`simulate` running Algorithm 1 with ``alpha`` under
    the prediction stream ``pred`` on the trace behind ``chains``.  See
    the module DESIGN docstring for the derivation.
    """
    m, m1 = chains.m, chains.m1
    t_all, j_all = chains.t_all, chains.j_all
    t_m = chains.t_m
    pred = np.asarray(pred, dtype=bool)
    if pred.shape != (m1,):
        raise ValueError(
            f"prediction stream must have length m + 1 = {m1}, "
            f"got shape {pred.shape}"
        )
    dur_beyond = alpha * lam        # the scalar path's single multiply
    sw = chains.shifted(lam)
    sb = chains.shifted(dur_beyond)
    ws = chains.workspace()

    # die-out detection: request i finds every copy expired iff no
    # earlier segment covers it.  The per-duration cover columns are
    # cached on the shifts; the cell only selects and scans.
    cover = ws.cover
    np.copyto(cover, sb.cover)
    np.copyto(cover, sw.cover, where=pred)
    np.maximum.accumulate(cover, out=cover)
    die = np.less(cover[:-1], chains.idx1, out=ws.die)      # pos i-1 = req i
    die_pos = np.flatnonzero(die)

    # special copies: at die-out i the last segment to expire — the
    # (E, server) maximum among those with reach == i - 1 — stays live
    # and is resolved at request i itself (renewal or transfer + drop)
    spec_choice = _EMPTY_I
    if die_pos.size:
        spec_choice = _resolve_specials(
            chains, sw, sb, pred, die_pos, lam, dur_beyond
        )

    # renewal iff the previous local segment survives to the request
    # (the shifts' predecessor-alive columns, selected by the
    # *predecessor's* prediction) or the special copy is local
    L = ws.L
    np.copyto(L, sb.local_alive)
    np.copyto(L, sw.local_alive, where=pred[chains.prev_clip])
    np.logical_and(L, chains.prev_ok, out=L)
    n_renew = int(np.count_nonzero(L))
    if die_pos.size:
        spec_renew = j_all[die_pos + 1] == j_all[spec_choice]
        n_renew += int(np.count_nonzero(spec_renew))
    n_tx = m - n_renew

    # serve-phase charges (at most one per request): a renewal closes
    # the predecessor's segment, a die-out closes the special's
    serve_mask = np.logical_or(L, die, out=L)        # L is dead after this
    serve_pos = np.flatnonzero(serve_mask)   # ascending request order
    closed = chains.prev[1:][serve_pos]
    if die_pos.size:
        closed[np.searchsorted(serve_pos, die_pos)] = spec_choice

    # pop-phase drops: live segments expiring mid-trace, minus specials
    dropped = ws.dropped
    np.copyto(dropped, sb.drop)
    np.copyto(dropped, sw.drop, where=pred)
    if spec_choice.size:
        dropped[spec_choice] = False
    do, e_do = _merge_by_expiry(chains, dropped, pred, lam, dur_beyond, ws)
    pop_ev = np.where(pred[do], sw.reach[do], sb.reach[do])
    pop_ev += 1                              # monotone: reach follows E

    # trailing segments (a subset of each server's last request): the
    # drain pops them in (E, server) order and the survivor finalizes
    # as the special; never-expiring copies (infinite expiry) skip the
    # drain and finalize in dict-insertion order, as do cap-stranded
    # copies
    lastq = chains.lastq
    pred_last = pred[lastq]
    r_last = np.where(pred_last, sw.reach[lastq], sb.reach[lastq])
    keep = r_last >= m
    ti = lastq[keep]
    e_ti = t_all[ti] + np.where(pred_last[keep], lam, dur_beyond)
    t_order = np.lexsort((j_all[ti], e_ti))  # at most one per server
    to = ti[t_order]
    finite_to = to[np.isfinite(e_ti[t_order])]
    inf_to = to[finite_to.size:]
    n_finite = finite_to.size
    cap = drain_event_cap if drain_event_cap is not None else 4 * chains.n + 16
    fired = min(cap, n_finite) if drain else 0
    if fired == n_finite and n_finite > 0 and not inf_to.size:
        drain_drop = finite_to[: n_finite - 1]
        finalize = finite_to[n_finite - 1 :]
    else:
        drain_drop = finite_to[:fired]
        finalize = np.concatenate((finite_to[fired:], inf_to))
        if finalize.size > 1:
            # rare (drain disabled, a binding event cap, or infinite
            # durations): order the finalize walk by dict insertion
            miss_full = np.empty(m1, dtype=bool)
            miss_full[0] = True              # the dummy creates at server 0
            np.logical_not(serve_mask, out=miss_full[1:])
            miss_full[1:][die_pos] = ~spec_renew if die_pos.size else False
            tenure = _tenure_starts(chains, miss_full)
            finalize = finalize[np.argsort(tenure[finalize], kind="stable")]

    # merge both charge sequences into the scalar accumulation order:
    # within an event, expiry pops precede the serve-step charge; the
    # drain pops (pseudo-event past every request) and then the finalize
    # walk occupy the final positions.  Both sequences are already
    # event-ordered, so their interleave needs only counting sums — a
    # cumulative count of serve events and one searchsorted over the
    # sorted pop events — not a comparison sort.
    n_pop = do.size
    n_drain = drain_drop.size
    n_fin = finalize.size
    n_serve = serve_pos.size
    # S[i] = number of serve charges with event <= i
    S = ws.serve_cum
    S[0] = 0
    np.cumsum(serve_mask, out=S[1:])
    sp1 = serve_pos + 1
    # serve charge position: rank + pops at this or an earlier event
    pos_srv = np.searchsorted(pop_ev, sp1.astype(pop_ev.dtype), side="right")
    np.add(pos_srv, chains.arange0[:n_serve], out=pos_srv)
    # pop charge position: rank + serves at earlier events
    np.subtract(pop_ev, 1, out=pop_ev)       # pop_ev is dead after this
    pos_pop = S[pop_ev]
    np.add(pos_pop, chains.arange0[:n_pop], out=pos_pop)

    # every segment is charged exactly once; each charge is the scalar
    # (end - start) * rate with end already clipped (mid-trace ends
    # precede t_m, drain/finalize end at t_m) and start a request time
    assert n_pop + n_serve + n_drain + n_fin == m1
    vals = ws.vals
    np.subtract(e_do, t_all[do], out=e_do)   # e_do is dead after this
    e_do *= rate
    vals[pos_pop] = e_do
    srv_end = t_all[sp1]
    srv_end -= t_all[closed]
    srv_end *= rate
    vals[pos_srv] = srv_end
    tail_q = np.concatenate((drain_drop, finalize))
    tail = (t_m - t_all[tail_q])
    tail *= rate
    vals[m1 - tail_q.size :] = tail
    # sequential accumulation == the scalar's ordered `storage += charge`
    storage = seq_sum(vals)

    # repeated `transfer += lam`, as one sequential left-to-right chain
    transfer = repeat_add(lam, n_tx)
    return storage, transfer, n_tx


class _WangReplay:
    """Per-``(trace, lam, rates)`` Wang-baseline precompute and replay.

    The cascade is state-dependent, but its *segment structure* is not:
    a copy only ever dies at its own pending expiry, so the baseline
    expiry column ``E[q] = t[q] + period[server(q)]`` and its
    ``searchsorted`` reach are exact (renewal iff the next local request
    lands inside them — no false positives, and false negatives only at
    the rare die-out extensions).  Coverage *counts* at every candidate
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
        "tail_when", "tail_srv", "tail_start", "_results", "_lock",
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
        reach = np.searchsorted(t_all, E, side="right") - 1
        renew = succ <= reach
        req_renew = np.zeros(m1, dtype=bool)
        np.logical_and(renew[chains.prev_clip], chains.prev_ok,
                       out=req_renew[1:])
        self.req_renew = req_renew
        self.r_cum = np.cumsum(req_renew)
        # mid-trace expiry fires in (E, server) order — the heap's pop
        # order (per-server streams are sorted, ties break by server)
        ci = np.flatnonzero(~renew & (reach < m))
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
        self.trig_pos = np.flatnonzero(cnt == 0)
        # pending expiries that outlive the last request (one per
        # server: non-last segments with reach >= m would be renewals)
        lastq = chains.lastq
        tl = lastq[reach[lastq] >= m]
        tl = tl[np.lexsort((j_all[tl], E[tl]))]
        self.tail_when = E[tl]
        self.tail_srv = j_all[tl].astype(np.int64)
        self.tail_start = t_all[tl]
        self._results: dict[tuple, tuple[float, float, int]] = {}
        self._lock = threading.Lock()

    def result(self, drain: bool, cap: int | None) -> tuple[float, float, int]:
        """Memoised replay: Wang is prediction- and alpha-free, so every
        same-model cell of a slab shares one replay."""
        key = (bool(drain), cap)
        hit = self._results.get(key)
        if hit is None:
            new = self._replay(drain, cap)
            with self._lock:
                hit = self._results.setdefault(key, new)
        return hit

    def _replay(self, drain: bool, cap: int | None) -> tuple[float, float, int]:
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
        if flip_req.size:
            serve_mask = serve_mask.copy()
            serve_mask[flip_req] = True
        serve_pos = np.flatnonzero(serve_mask)
        start_srv = t_all[chains.prev[serve_pos]]
        if flip_req.size:
            start_srv[np.searchsorted(serve_pos, flip_req)] = flip_start

        # the same counting interleave as _kernel_algorithm1: within an
        # event, pops precede the serve charge; drain then finalize last
        S = np.cumsum(serve_mask)
        n_pop = pw.size
        n_srv = serve_pos.size
        pos_pop = S[pev - 1] + np.arange(n_pop, dtype=np.int64)
        pos_srv = np.searchsorted(pev, serve_pos, side="right") + np.arange(
            n_srv, dtype=np.int64
        )

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


def _kernel_wang(
    chains: _SegmentChains,
    model: CostModel,
    drain: bool,
    drain_event_cap: int | None,
) -> tuple[float, float, int]:
    """Replay the Wang et al. baseline with array passes plus the
    sequential episode machine; bit-identical to the ledger of
    :func:`simulate` on the trace behind ``chains``."""
    rates = tuple(float(r) for r in model.storage_rates)
    rep = chains.wang(float(model.lam), rates)
    return rep.result(drain, drain_event_cap)


class KernelCostEngine(_CostOnlyEngine):
    """Cost-only segment-scan replay: pure array passes, no per-request
    Python loop.

    Algorithm 1 rides the segment scan and Wang's baseline rides the
    candidate-count formulation plus the sequential episode machine (see
    the module DESIGN docstring for both bit-identity arguments).  The
    scalar :meth:`run` interface evaluates one cell;
    :func:`run_policy_slab` shares the per-trace chains and
    per-duration reach arrays across a whole slab, whose cells run
    serially or across threads as ``core/backends.py`` decides from the
    thread budget (bit-identical either way).
    """

    name = "kernel"
    # a single cell always runs on the serial path
    cell_tags = {"backend": KernelBackend.name}

    def _algorithm1(self, trace, model, alpha, within, drain, drain_event_cap):
        chains = _SegmentChains(trace)
        return _kernel_algorithm1(
            chains,
            model.storage_rates[0],
            model.lam,
            alpha,
            within,
            drain,
            drain_event_cap,
        )


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

    The one slab dispatcher: grid slabs arrive through :func:`run_slab`,
    fleet slabs directly.  Cells may carry heterogeneous cost models —
    distinct per-object lambdas are allowed (every model must agree with
    ``trace.n``).  With ``engine`` ``"auto"``, ``"kernel"`` or
    ``"batch"`` (or an instance of those tiers) the eligible cells share
    the per-trace work:

    * the **kernel** tier — forced, or chosen by ``"auto"`` from
      :data:`KERNEL_SLAB_MIN_M` requests up — builds one
      :class:`_SegmentChains` for the whole slab: per-duration shift
      columns and per-``(lam, rates)`` Wang cascade replays are memoised
      on the chains, so cells with different lambdas still share the
      segment scan and mixed Algorithm-1 + Wang slabs run as one
      single-tier slab, plus one cell-major prediction matrix with
      per-lambda truth and per-seed draw memos
      (:meth:`PredictionStream.batch_for_cells`);
    * the **batch** tier — forced, or ``"auto"`` below the crossover —
      groups cells by *equal* cost model and replay family and runs
      each group of two or more as one vectorized trace pass (a Wang
      group shares one kernel-tier replay).

    Cells no slab tier takes fall back through :func:`select_engine`
    one at a time, so a concrete engine name stays strict (it raises on
    policies it cannot execute) while ``"auto"`` always completes.
    Per-cell costs are bit-identical to ``select_engine(trace, model,
    policy, engine).run_observed(trace, model, policy)`` on every path.
    """
    from ..algorithms.wang import WangReplication

    cells = list(cells)
    for model, _ in cells:
        if model.n != trace.n:
            raise ValueError(f"model.n={model.n} != trace.n={trace.n}")
    results: list = [None] * len(cells)
    wants_kernel = engine == "kernel" or isinstance(engine, KernelCostEngine)
    wants_batch = engine == "batch" or isinstance(engine, BatchCostEngine)
    if (wants_kernel or wants_batch or engine == "auto") and len(cells) > 1:
        # slab-eligible cells, split by replay shape: Algorithm-1 cells
        # share one prediction matrix, Wang cells one replay per model
        alg1: list[int] = []
        wangs: list[int] = []
        for i, (model, policy) in enumerate(cells):
            if _ENGINES["kernel"].supports(trace, model, policy):
                if type(policy) is WangReplication:
                    wangs.append(i)
                else:
                    alg1.append(i)
        if wants_kernel or (
            not wants_batch and len(trace) >= KERNEL_SLAB_MIN_M
        ):
            if len(alg1) + len(wangs) > 1:
                _kernel_slab(trace, cells, alg1, wangs, results)
        else:
            _batch_slabs(trace, cells, alg1 + wangs, results)
    # per-cell fallback: "auto" keeps auto-selecting; a concrete engine
    # stays strict and raises on policies it cannot execute, exactly as
    # the scalar paths do
    for i, (model, policy) in enumerate(cells):
        if results[i] is None:
            eng = select_engine(trace, model, policy, engine)
            results[i] = eng.run_observed(trace, model, policy)
    return results


def _slab_observed(tier: str, n_cells: int, m: int, run, **tags):
    """``run()`` under an ``engine.slab`` span tagged by tier, counting
    the slab's cells (the disabled path is one flag check)."""
    if not _obs.enabled:
        return run()
    with _obs.span("engine.slab", tier=tier, cells=n_cells, m=m, **tags):
        out = run()
    _obs.counter("repro_engine_cells_total", tier=tier).inc(n_cells)
    return out


def _kernel_slab(
    trace: Trace,
    cells: list,
    alg1: list[int],
    wangs: list[int],
    results: list,
) -> None:
    """Replay the ``alg1`` and ``wangs`` cells over one shared segment
    scan, on the execution path ``auto`` picks for the slab, filling
    ``results``."""
    from ..predictions.stream import PredictionStream

    units = alg1 + wangs
    be = get_backend().resolve(len(units), len(trace))

    def run() -> list:
        # the prediction matrix is slab work too: the span covers it,
        # as the batch tier's does
        rows = PredictionStream.batch_for_cells(
            [(_stream_predictor(cells[i][1]), cells[i][0].lam) for i in alg1],
            trace,
        )
        assert rows is not None  # supports() vetted streamability
        chains = _SegmentChains(trace)

        def one(k: int) -> tuple[float, float, int]:
            model, policy = cells[units[k]]
            if k < len(alg1):
                return _kernel_algorithm1(
                    chains,
                    model.storage_rates[0],
                    model.lam,
                    policy.alpha,
                    _replay_column(trace, model, policy, rows[k]),
                    True,
                    None,
                )
            return _kernel_wang(chains, model, True, None)

        # run_cells preserves cell-index order
        return be.run_cells(len(units), one)

    ledgers = _slab_observed(
        "kernel", len(units), len(trace), run, backend=be.name
    )
    for i, ledger in zip(units, ledgers):
        results[i] = _cost_result(trace, *cells[i], ledger, "kernel")


def _batch_slabs(
    trace: Trace, cells: list, eligible: list[int], results: list
) -> None:
    """Replay every equal-model group of two or more ``eligible`` cells
    in one batch-tier trace pass, filling ``results``."""
    from ..algorithms.wang import WangReplication
    from ..predictions.stream import PredictionStream

    groups: dict[tuple[CostModel, bool], list[int]] = {}
    for i in eligible:
        model, policy = cells[i]
        key = (model, type(policy) is WangReplication)
        groups.setdefault(key, []).append(i)
    for (model, is_wang), idxs in groups.items():
        if len(idxs) < 2:
            continue
        policies = [cells[i][1] for i in idxs]

        def run() -> list:
            if is_wang:
                # prediction- and alpha-free: one replay serves every
                # cell of the group
                ledger = _kernel_wang(_SegmentChains(trace), model, True, None)
                return [ledger] * len(policies)
            matrix = PredictionStream.batch_for_predictors(
                [_stream_predictor(p) for p in policies], trace, model.lam
            )
            # adaptive cells replay their monitor-forced column
            for c, p in enumerate(policies):
                matrix[:, c] = _replay_column(trace, model, p, matrix[:, c])
            storage, transfer, n_tx = _batch_algorithm1(
                trace, model, np.array([p.alpha for p in policies]), matrix,
                True, None,
            )
            return list(zip(storage.tolist(), transfer.tolist(), n_tx.tolist()))

        ledgers = _slab_observed("batch", len(idxs), len(trace), run)
        for i, p, ledger in zip(idxs, policies, ledgers):
            results[i] = _cost_result(trace, model, p, ledger, "batch")


# ----------------------------------------------------------------------
# registry and selection
# ----------------------------------------------------------------------
_ENGINES: dict[str, Engine] = {
    "reference": ReferenceEngine(),
    "batch": BatchCostEngine(),
    "kernel": KernelCostEngine(),
}

#: valid names for CLI flags and engine= parameters
ENGINE_NAMES: tuple[str, ...] = ("auto", "batch", "kernel", "reference")

#: auto's slab crossover (benchmarks/bench_scaling.py ->
#: BENCH_scaling.json), an older single-width estimate that those rows
#: do not confirm: the slab crossover moves with slab width — narrow
#: 12-cell slabs favour the kernel from m=128 (``rows``), the 804-cell
#: m=64 ``wide_slab`` favours batch — so 1024 awaits a 2-D (cells x m)
#: re-derivation (ROADMAP item 3)
KERNEL_SLAB_MIN_M = 1_024


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

    ``"auto"`` selects the segment-scan kernel for every policy a
    cost-only tier supports, at any trace length, and the reference
    engine otherwise (see the module docstring).  Slabs of
    cells sharing one trace go through :func:`run_policy_slab`, which
    owns the slab crossover.  A concrete name or :class:`Engine`
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
