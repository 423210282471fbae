"""Equivalence and wiring tests for the segment-scan kernel engine.

The contract under test (core/engine.py DESIGN): the loop-free
:class:`KernelCostEngine` must reproduce the reference event-driven
simulator *bit for bit*, per cell, for every kernel-eligible policy
(Algorithm 1 with streamable predictors, the conventional baseline, and
Wang's baseline via the cascade kernel) on arbitrary instances, drain
configurations, and slabs; ``supports()`` has no policy exclusions
left, so ``select_engine`` routes every registered policy's single
cells onto the kernel and ``run_slab`` its slabs, at any trace length;
and the layers above (``run_slab``, ``sweep_grid``,
``ExperimentRunner``, the CLI, the ``repro bench`` discovery) must
route onto the kernel.

The vectorized brute-force offline search (satellite) is pinned against
its kept loop reference here too.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveReplication,
    ConventionalReplication,
    CostModel,
    CostResult,
    EngineError,
    KernelCostEngine,
    LearningAugmentedReplication,
    ReferenceEngine,
    Trace,
    WangReplication,
    get_engine,
    run_slab,
    select_engine,
    simulate,
)
from repro.analysis.sweep import algorithm1_factory, sweep_grid
from repro.core import engine as engine_module
from repro.core.backends import set_thread_budget
from repro.core.engine import ENGINE_NAMES
from repro.offline.brute_force import (
    _brute_force_reference,
    brute_force_optimal_cost,
)
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    PredictionStream,
    SlidingWindowPredictor,
    truth_within_array,
)
from repro.workloads import (
    ibm_like_arrivals,
    ibm_like_trace,
    uniform_random_trace,
)

from conftest import (
    MIN_THREADED_CELLS,
    assert_registered_scenarios_match_reference,
    instances,
    slab_passes,
    slabs,
    tie_prone_traces,
)

KERNEL = KernelCostEngine()
REF = ReferenceEngine()


def assert_kernel_matches_reference(trace, model, factory, cells):
    """Kernel slab replays == per-cell reference runs."""
    runs, spans = slab_passes(
        lambda: run_slab(trace, model, cells, factory, engine=KERNEL)
    )
    assert len(runs) == len(cells)
    if cells:
        # the whole slab ran as one slab call, not cell by cell
        assert spans == [("kernel", len(cells))]
    for cell, run in zip(cells, runs):
        assert isinstance(run, CostResult)
        assert run.engine == "kernel"
        ref = REF.run(trace, model, factory(trace, model.lam, *cell))
        # bit-identity, not mere closeness
        assert run.storage_cost == ref.storage_cost, cell
        assert run.transfer_cost == ref.transfer_cost, cell
        assert run.n_transfers == ref.ledger.n_transfers, cell
    return runs


# ----------------------------------------------------------------------
# property-based equivalence: random traces x slabs x eligible policies
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(instances(), slabs(), st.sampled_from([1.0, 2.5, 0.3, 7.0]))
def test_algorithm1_slab_bit_identity(inst, cells, rate):
    """Kernel == reference per cell for Algorithm 1, at unit and
    non-unit uniform storage rates (the ``* rate`` charges)."""
    trace, model = inst
    model = CostModel(lam=model.lam, n=trace.n, storage_rates=(rate,) * trace.n)
    assert_kernel_matches_reference(trace, model, algorithm1_factory, cells)


@settings(max_examples=40, deadline=None)
@given(tie_prone_traces(), st.integers(1, 4), st.integers(0, 3))
def test_tie_prone_slab_bit_identity(trace, lam_int, seed):
    """Integer timing: expiry ties across branches stay bit-identical."""
    model = CostModel(lam=float(lam_int), n=trace.n)
    cells = [(0.0, 0.3, seed), (0.5, 0.7, seed), (1.0, 1.0, seed)]
    assert_kernel_matches_reference(trace, model, algorithm1_factory, cells)


@st.composite
def row_invariance_cases(draw):
    """A random or tie-prone trace at a uniform rate, a few ``(alpha,
    accuracy, seed)`` cells sharing one alpha, and a row-chunk size."""
    if draw(st.booleans()):
        trace, model = draw(instances())
        lam = model.lam
    else:
        trace = draw(tie_prone_traces())
        lam = float(draw(st.integers(1, 4)))
    rate = draw(st.sampled_from((0.3, 1.0, 2.5)))
    alpha = draw(st.sampled_from((0.0, 0.5, 1.0)))
    cells = [
        (alpha, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(2, 7)))
    ]
    model = CostModel(lam=lam, n=trace.n, storage_rates=(rate,) * trace.n)
    return trace, model, cells, draw(st.integers(1, 3))


def _ledgers(results):
    return [(r.storage_cost, r.transfer_cost, r.n_transfers) for r in results]


def _watched_slab(trace, model, cells, budget):
    """Run grid ``cells`` as one kernel slab under a thread budget,
    watching its drop orders.  Returns the ledgers, the slab span's
    ``(passes, backend)`` tags and, per ``merge_interleave`` call, whether
    it found a cross-branch tie (the lexsort fallback).  No group's held
    order may outlive the slab, and on the serial path none outlives its
    group: at most one is alive when a pass starts."""
    merges, held = [], []
    merge = engine_module.merge_interleave
    build = engine_module._drop_order
    replay = engine_module._kernel_algorithm1

    def counting_merge(ew, eb):
        order = merge(ew, eb)
        merges.append(order is None)
        return order

    def watched_build(*args, **kwargs):
        order = build(*args, **kwargs)
        if kwargs.get("held"):
            held.append(weakref.ref(order[0]))
        return order

    def watched_replay(*args):
        if budget == 1:
            assert sum(ref() is not None for ref in held) <= 1
        return replay(*args)

    prev = set_thread_budget(budget)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "merge_interleave", counting_merge)
            mp.setattr(engine_module, "_drop_order", watched_build)
            mp.setattr(engine_module, "_kernel_algorithm1", watched_replay)
            runs, spans = slab_passes(
                lambda: run_slab(
                    trace, model, cells, algorithm1_factory, KERNEL
                ),
                tags=("passes", "backend"),
            )
    finally:
        set_thread_budget(prev)
    assert all(ref() is None for ref in held)
    return _ledgers(runs), spans, merges


@settings(max_examples=60, deadline=None)
@given(row_invariance_cases())
def test_row_invariance(case):
    """A cell's ledger does not depend on the pass it rides in: alone (a
    one-row pass), in one multi-row pass with the other cells of its
    alpha, and in passes of ``chunk_rows`` rows, serially and over
    threads, it is the same.  The group merges its drop streams once,
    however many passes it spans (none at alpha = 1)."""
    trace, model, cells, chunk_rows = case
    alone = _ledgers(
        KERNEL.run(trace, model, algorithm1_factory(trace, model.lam, *cell))
        for cell in cells
    )
    # at alpha = 1 one row serves every cell, however small the chunks
    alpha = cells[0][0]
    one_row = alpha * model.lam == model.lam
    merges_per_group = 0 if one_row else 1

    multi, spans, merges = _watched_slab(trace, model, cells, 1)
    assert spans == [(1, "numpy")]
    assert len(merges) == merges_per_group
    wide = list(itertools.islice(itertools.cycle(cells), MIN_THREADED_CELLS))
    bound = engine_module._ROW_CHUNK_ELEMS
    engine_module._ROW_CHUNK_ELEMS = chunk_rows * (len(trace) + 1)
    try:
        chunked, spans, merges = _watched_slab(trace, model, cells, 1)
        threaded, wide_spans, wide_merges = _watched_slab(
            trace, model, wide, 4
        )
    finally:
        engine_module._ROW_CHUNK_ELEMS = bound
    assert spans == [(1 if one_row else -(-len(cells) // chunk_rows), "numpy")]
    assert wide_spans == [
        (1 if one_row else -(-len(wide) // chunk_rows), "threads")
    ]
    assert len(merges) == len(wide_merges) == merges_per_group
    assert multi == alone == chunked
    assert threaded == [alone[i % len(cells)] for i in range(len(wide))]


def test_group_order_lexsort_fallback():
    """Two groups spanning three passes each, the first with a
    cross-branch expiry tie in its drop union: each group merges once,
    the first falls back to the lexsort, and every pass still picks its
    rows' drops in the heap's order, serially and over threads."""
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.integers(1, 3, 40)).astype(float)
    servers = rng.integers(0, 3, 40)
    trace = Trace(3, list(zip(times.tolist(), servers.tolist())))
    model = CostModel(lam=2.0, n=3)
    half = MIN_THREADED_CELLS // 2
    cells = [
        (alpha, 0.5, seed) for alpha in (0.5, 0.0) for seed in range(half)
    ]
    refs = [
        simulate(trace, model, algorithm1_factory(trace, model.lam, *cell))
        for cell in cells
    ]
    bound = engine_module._ROW_CHUNK_ELEMS
    engine_module._ROW_CHUNK_ELEMS = 3 * (len(trace) + 1)
    try:
        for budget, backend in ((1, "numpy"), (4, "threads")):
            ledgers, spans, merges = _watched_slab(trace, model, cells, budget)
            assert spans == [(2 * -(-half // 3), backend)]
            assert len(merges) == 2 and merges[0]
            assert ledgers == [
                (r.storage_cost, r.transfer_cost, r.ledger.n_transfers)
                for r in refs
            ]
    finally:
        engine_module._ROW_CHUNK_ELEMS = bound


@settings(max_examples=60, deadline=None)
@given(
    tie_prone_traces(),
    st.lists(
        st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0)),
        min_size=1,
        max_size=4,
    ),
)
@example(Trace(2, [(1.0, 0), (2.0, 1), (3.0, 0), (6.0, 0)]), [2.0, 3.0])
def test_chains_truth_column(trace, lams):
    """The kernel's ground truth at lambda, ``succ <= reach`` of the
    lambda shift, equals :func:`truth_within_array` entry for entry,
    also where ``t_q + lambda`` lands exactly on a later local request
    (integer times; the example's request at t = 1 sees its successor
    at exactly 1 + 2, and the one at t = 3 at exactly 3 + 3)."""
    chains = engine_module._SegmentChains(trace)
    for lam in lams:
        truth = truth_within_array(trace, lam)
        assert np.array_equal(chains.within(lam), truth)


@settings(max_examples=40, deadline=None)
@given(
    tie_prone_traces(),
    st.integers(1, 4),
    st.sampled_from((0.3, 1.0, 2.5)),
    st.lists(
        st.tuples(
            st.sampled_from(("noisy", "adaptive", "conventional")),
            st.floats(0.0, 1.0),
            st.integers(0, 4),
        ),
        min_size=2,
        max_size=6,
    ),
)
def test_alpha_one_group_replays_one_row(trace, lam_int, rate, specs):
    """At alpha = 1 both prediction branches keep a copy for lambda, so
    one replayed row serves the whole group (Algorithm 1, adaptive and
    conventional cells alike): the shared ledger == each cell's solo
    ledger == simulate's, and no adaptive monitor runs."""
    model = CostModel(
        lam=float(lam_int), n=trace.n, storage_rates=(rate,) * trace.n
    )

    def policy(kind, accuracy, seed):
        if kind == "conventional":
            return ConventionalReplication()
        pred = NoisyOraclePredictor(trace, accuracy, seed=seed)
        if kind == "adaptive":
            return AdaptiveReplication(pred, 1.0, beta=0.5, warmup=2)
        return LearningAugmentedReplication(pred, 1.0)

    def no_monitor(*args):
        raise AssertionError("forced_column ran for an alpha = 1 cell")

    rows = []
    replay = engine_module._kernel_algorithm1

    def counting(chains, rate, lam, alpha, pred, *rest):
        rows.append(len(pred))
        return replay(chains, rate, lam, alpha, pred, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module._late(), "forced_column", no_monitor)
        mp.setattr(engine_module, "_kernel_algorithm1", counting)
        runs, spans = slab_passes(
            lambda: engine_module.run_policy_slab(
                trace, [(model, policy(*spec)) for spec in specs], KERNEL
            ),
            tags=("passes",),
        )
        assert spans == [(1,)] and rows == [1]
        solo = [KERNEL.run(trace, model, policy(*spec)) for spec in specs]
    refs = [simulate(trace, model, policy(*spec)) for spec in specs]
    assert _ledgers(runs) == _ledgers(solo) == [
        (r.storage_cost, r.transfer_cost, r.ledger.n_transfers) for r in refs
    ]


def _conventional_factory(trace, lam, alpha, accuracy, seed):
    return ConventionalReplication()


@settings(max_examples=30, deadline=None)
@given(instances(), st.integers(1, 4))
def test_conventional_slab_bit_identity(inst, k):
    trace, model = inst
    cells = [(0.5, 1.0, s) for s in range(k)]
    assert_kernel_matches_reference(trace, model, _conventional_factory, cells)


@settings(max_examples=25, deadline=None)
@given(instances(), st.floats(0.05, 1.0), st.booleans())
def test_fixed_and_adversarial_predictor_slabs(inst, alpha, within):
    trace, model = inst

    def fixed_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(FixedPredictor(within), a)

    def adversarial_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(AdversarialPredictor(tr), a)

    cells = [(alpha, 0.0, 0), (1.0, 0.0, 1)]
    assert_kernel_matches_reference(trace, model, fixed_factory, cells)
    assert_kernel_matches_reference(trace, model, adversarial_factory, cells)


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(0, 3))
def test_zero_alpha_full_trust_slab(inst, seed):
    trace, model = inst
    cells = [(0.0, 0.7, seed), (0.0, 1.0, seed), (0.3, 0.7, seed + 1)]
    assert_kernel_matches_reference(trace, model, algorithm1_factory, cells)


@settings(max_examples=30, deadline=None)
@given(instances(), st.floats(0.0, 1.0), st.booleans(),
       st.one_of(st.none(), st.integers(0, 8)))
def test_drain_configurations_bit_identity(inst, alpha, drain, cap):
    """drain=False and binding event caps replay the reference semantics
    (cap-stranded copies finalize in dict-insertion order)."""
    trace, model = inst
    pol = LearningAugmentedReplication(
        NoisyOraclePredictor(trace, 0.5, seed=1), alpha, allow_zero_alpha=True
    )
    k = KERNEL.run(trace, model, pol, drain=drain, drain_event_cap=cap)
    pol2 = LearningAugmentedReplication(
        NoisyOraclePredictor(trace, 0.5, seed=1), alpha, allow_zero_alpha=True
    )
    r = REF.run(trace, model, pol2, drain=drain, drain_event_cap=cap)
    assert k.storage_cost == r.storage_cost
    assert k.transfer_cost == r.transfer_cost
    assert k.n_transfers == r.ledger.n_transfers
    assert k.engine == "kernel"


# ----------------------------------------------------------------------
# Wang's baseline on the cascade kernel
# ----------------------------------------------------------------------


def _wang_factory(trace, lam, alpha, accuracy, seed):
    return WangReplication()


def _learned_factory(trace, lam, alpha, accuracy, seed):
    return LearningAugmentedReplication(SlidingWindowPredictor(5), alpha)


@st.composite
def wang_instances(draw):
    """Tie-prone traces with ascending (possibly distinct) storage
    rates and quantized lambdas: expiries collide exactly with request
    times and with each other, and small periods provoke the die-out
    cascade (grace renewals, ship-to-zero transfers, drop chains)."""
    trace = draw(tie_prone_traces())
    lam = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    rates = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                    min_size=trace.n,
                    max_size=trace.n,
                )
            )
        )
    )
    return trace, CostModel(lam=lam, n=trace.n, storage_rates=rates)


@settings(max_examples=60, deadline=None)
@given(wang_instances(), st.integers(2, 4))
def test_wang_slab_bit_identity(inst, k):
    """Kernel == reference per cell for Wang, on the instances most
    likely to hit the episode machine."""
    trace, model = inst
    cells = [(0.5, 1.0, s) for s in range(k)]
    assert_kernel_matches_reference(trace, model, _wang_factory, cells)


@settings(max_examples=40, deadline=None)
@given(wang_instances(), st.booleans(),
       st.one_of(st.none(), st.integers(0, 8)))
def test_wang_drain_configurations_bit_identity(inst, drain, cap):
    """drain=False and binding event caps replay the reference cascade
    semantics, including cap-stranded copies and mid-drain ships."""
    trace, model = inst
    k = KERNEL.run(
        trace, model, WangReplication(), drain=drain, drain_event_cap=cap
    )
    r = REF.run(
        trace, model, WangReplication(), drain=drain, drain_event_cap=cap
    )
    assert k.storage_cost == r.storage_cost
    assert k.transfer_cost == r.transfer_cost
    assert k.n_transfers == r.ledger.n_transfers
    assert k.engine == "kernel"


def test_wang_machine_at_fleet_density(monkeypatch):
    """Bursty short objects (the fleet shape) keep the episode machine
    busy: every object matches the reference, and the objects together
    drive each of its branches — suppressed triggers, flips, cascade
    ships and drain events."""
    import repro.core.engine as engine_mod

    seen = {"suppressed": 0, "flips": 0, "ships": 0, "drain": 0}
    real = engine_mod.wang_cascade

    def counting(*args):
        out = real(*args)
        seen["suppressed"] += int(out[0].sum())
        seen["flips"] += out[5].size
        seen["ships"] += out[7]
        seen["drain"] += out[8].size
        return out

    monkeypatch.setattr(engine_mod, "wang_cascade", counting)
    rng = np.random.default_rng(17)
    model = CostModel(lam=100.0, n=8)
    for k, m in enumerate(np.geomspace(2, 400, 32).astype(int)):
        times = ibm_like_arrivals(m=int(m), span=86400.0, seed=k)
        trace = Trace.from_arrays(times, rng.integers(0, 8, times.size), n=8)
        kr = KERNEL.run(trace, model, WangReplication())
        rr = REF.run(trace, model, WangReplication())
        assert kr.storage_cost == rr.storage_cost, k
        assert kr.transfer_cost == rr.transfer_cost, k
        assert kr.n_transfers == rr.ledger.n_transfers, k
    assert min(seen.values()) >= 1, seen


# ----------------------------------------------------------------------
# eligibility: history predictors are honestly gated out; Wang is in
# ----------------------------------------------------------------------


class TestSupports:
    def setup_method(self):
        self.trace = uniform_random_trace(n=4, m=40, horizon=300.0, seed=0)
        self.model = CostModel(lam=20.0, n=4)

    def test_registry_exposes_kernel(self):
        assert "kernel" in ENGINE_NAMES
        assert isinstance(get_engine("kernel"), KernelCostEngine)

    def test_supports_algorithm1_and_conventional(self):
        assert KERNEL.supports(
            self.trace, self.model,
            LearningAugmentedReplication(OraclePredictor(self.trace), 0.5),
        )
        assert KERNEL.supports(self.trace, self.model, ConventionalReplication())

    def test_wang_supported_and_bit_identical(self):
        assert KERNEL.supports(self.trace, self.model, WangReplication())
        k = KERNEL.run(self.trace, self.model, WangReplication())
        r = REF.run(self.trace, self.model, WangReplication())
        assert k.engine == "kernel"
        assert k.storage_cost == r.storage_cost
        assert k.transfer_cost == r.transfer_cost
        assert k.n_transfers == r.ledger.n_transfers

    def test_wang_descending_rates_not_supported(self):
        # Wang's server-ordering assumption still gates bad models
        model = CostModel(lam=20.0, n=4, storage_rates=(2.0, 1.5, 1.0, 0.5))
        assert not KERNEL.supports(self.trace, model, WangReplication())
        with pytest.raises(Exception, match="ascending"):
            KERNEL.run(self.trace, model, WangReplication())

    def test_history_predictor_not_supported(self):
        pol = LearningAugmentedReplication(SlidingWindowPredictor(5), 0.5)
        assert not KERNEL.supports(self.trace, self.model, pol)
        with pytest.raises(EngineError, match="cannot stream"):
            KERNEL.run(self.trace, self.model, pol)

    def test_non_uniform_storage_not_supported(self):
        model = CostModel(lam=20.0, n=4, storage_rates=(1.0, 1.5, 2.0, 2.5))
        pol = LearningAugmentedReplication(OraclePredictor(self.trace), 0.5)
        assert not KERNEL.supports(self.trace, model, pol)

    def test_wang_slab_runs_as_one_kernel_slab(self):
        # the helper asserts one 2-cell kernel slab call
        cells = [(0.5, 1.0, 0), (0.5, 1.0, 1)]
        assert_kernel_matches_reference(
            self.trace, self.model, _wang_factory, cells
        )


# ----------------------------------------------------------------------
# selection crossovers and slab dispatch
# ----------------------------------------------------------------------


class TestSelection:
    def setup_method(self):
        self.big = uniform_random_trace(n=4, m=1_224, horizon=1e6, seed=1)
        self.small = uniform_random_trace(n=4, m=60, horizon=400.0, seed=2)
        self.model = CostModel(lam=20.0, n=4)

    def _slab_tiers(self, trace, factory):
        """Tiers an 8-cell ``"auto"`` slab ran on."""
        cells = [(0.5, 1.0, s) for s in range(8)]
        return {r.engine for r in run_slab(trace, self.model, cells, factory)}

    def _assert_auto_picks_kernel(self, trace):
        """A single cell and a slab both run on the kernel."""
        pol = LearningAugmentedReplication(OraclePredictor(trace), 0.5)
        assert select_engine(trace, self.model, pol) is get_engine("kernel")
        assert self._slab_tiers(trace, algorithm1_factory) == {"kernel"}

    def test_auto_prefers_kernel_above_crossovers(self):
        self._assert_auto_picks_kernel(self.big)

    def test_auto_picks_kernel_on_short_traces(self):
        """Short traces run on the kernel too: there is no crossover."""
        self._assert_auto_picks_kernel(self.small)

    def test_wang_rides_kernel_through_select_engine(self):
        """select_engine never falls back for Wang: single cells and
        slabs run on the kernel at any trace length."""
        pol = WangReplication()
        for trace in (self.big, self.small):
            assert select_engine(trace, self.model, pol) is get_engine("kernel")
            assert self._slab_tiers(trace, _wang_factory) == {"kernel"}

    def test_history_policy_falls_back_to_reference(self):
        pol = LearningAugmentedReplication(SlidingWindowPredictor(5), 0.5)
        assert select_engine(self.big, self.model, pol) is get_engine("reference")

    def _assert_run_slab_auto_dispatches_kernel(self, trace):
        """An ``"auto"`` slab runs on the kernel, bit-identical to the
        reference engine."""
        cells = [(0.2, 0.8, 0), (0.7, 0.4, 1), (1.0, 1.0, 0)]
        runs = run_slab(trace, self.model, cells, algorithm1_factory)
        assert all(r.engine == "kernel" for r in runs)
        for cell, run in zip(cells, runs):
            ref = REF.run(
                trace, self.model,
                algorithm1_factory(trace, self.model.lam, *cell),
            )
            assert run.storage_cost == ref.storage_cost
            assert run.transfer_cost == ref.transfer_cost

    def test_run_slab_auto_dispatches_kernel_on_long_traces(self):
        self._assert_run_slab_auto_dispatches_kernel(self.big)

    def test_run_slab_auto_dispatches_kernel_on_short_traces(self):
        self._assert_run_slab_auto_dispatches_kernel(self.small)

    def test_run_slab_explicit_kernel(self):
        cells = [(0.2, 0.8, 0), (0.7, 0.4, 1)]
        runs = run_slab(
            self.small, self.model, cells, algorithm1_factory, engine="kernel"
        )
        assert all(r.engine == "kernel" for r in runs)

    def test_run_slab_explicit_kernel_on_wang(self):
        def wang_factory(trace, lam, alpha, accuracy, seed):
            return WangReplication()

        cells = [(0.5, 1.0, 0), (0.5, 1.0, 1)]
        ref = REF.run(self.small, self.model, WangReplication())
        runs = run_slab(
            self.small, self.model, cells, wang_factory, engine="kernel"
        )
        assert all(r.engine == "kernel" for r in runs)
        # auto runs the same kernel slab, same costs
        auto_runs = run_slab(self.small, self.model, cells, wang_factory)
        for r in list(runs) + list(auto_runs):
            assert r.storage_cost == ref.storage_cost
            assert r.transfer_cost == ref.transfer_cost
        big_runs = run_slab(
            self.big, self.model, cells, wang_factory, engine="auto"
        )
        assert all(r.engine == "kernel" for r in big_runs)


def test_lone_cell_is_one_kernel_slab_on_every_entry():
    """Every way into the kernel runs a lone cell as a one-cell slab:
    ``KernelCostEngine.run`` and ``.run_observed``, ``run_policy_slab``
    and ``run_slab`` each record exactly one ``engine.slab`` span and
    count the cell once, for an Algorithm-1 cell and a Wang cell alike;
    a cell the kernel refuses still runs on the reference engine under
    one ``engine.cell`` span."""
    from repro.core.engine import run_policy_slab
    from repro.obs import metrics

    trace = uniform_random_trace(n=4, m=60, horizon=400.0, seed=2)
    model = CostModel(lam=20.0, n=4)
    cell = (0.5, 0.7, 3)

    def observed(fn):
        """``fn()``, its engine spans as ``(name, tier, cells)``, and
        its ``repro_engine_cells_total`` counts by tier."""
        with metrics.enabled_scope():
            metrics.reset()
            out = fn()
            snap = metrics.drain()
        spans = [
            (s["name"], s["tags"]["tier"], s["tags"].get("cells"))
            for s in snap["spans"]
            if s["name"] in ("engine.slab", "engine.cell")
        ]
        counted = {
            c["tags"]["tier"]: c["value"]
            for c in snap["counters"]
            if c["name"] == "repro_engine_cells_total"
        }
        return out, spans, counted

    def entries(factory):
        def policy():
            return factory(trace, model.lam, *cell)

        return policy, {
            "run": lambda: KERNEL.run(trace, model, policy()),
            "run_observed": lambda: KERNEL.run_observed(trace, model, policy()),
            "run_policy_slab": lambda: run_policy_slab(
                trace, [(model, policy())]
            )[0],
            "run_slab": lambda: run_slab(trace, model, [cell], factory)[0],
        }

    for factory in (algorithm1_factory, _wang_factory):
        policy, fns = entries(factory)
        ref = REF.run(trace, model, policy())
        for entry, fn in fns.items():
            label = (factory.__name__, entry)
            run, spans, counted = observed(fn)
            assert spans == [("engine.slab", "kernel", 1)], label
            assert counted == {"kernel": 1}, label
            assert run.engine == "kernel", label
            assert run.storage_cost == ref.storage_cost, label
            assert run.transfer_cost == ref.transfer_cost, label
            assert run.n_transfers == ref.ledger.n_transfers, label

    policy, fns = entries(_learned_factory)
    ref = REF.run(trace, model, policy())
    for entry in ("run", "run_observed"):
        with pytest.raises(EngineError, match="cannot stream"):
            fns[entry]()
    for entry in ("run_policy_slab", "run_slab"):
        run, spans, counted = observed(fns[entry])
        assert spans == [("engine.cell", "reference", None)], entry
        assert counted == {"reference": 1}, entry
        assert run.total_cost == ref.total_cost, entry


# ----------------------------------------------------------------------
# every registered scenario rides the kernel wherever eligible
# ----------------------------------------------------------------------


def test_all_registered_scenarios_kernel_equivalent_where_supported():
    """Every registered scenario's two-cell slab, and a Wang slab on its
    trace, run as one kernel pass and match the reference per cell
    wherever eligible (one ``supports()`` serves every cost-only tier,
    so no policy is gated off the kernel)."""
    assert_registered_scenarios_match_reference(KERNEL)


# ----------------------------------------------------------------------
# consuming layers: sweep, runner, fleets, CLI
# ----------------------------------------------------------------------


def test_sweep_grid_kernel_engine_matches_reference():
    trace = ibm_like_trace(n=6, m=400, seed=4)
    kw = dict(lambdas=(50.0,), alphas=(0.2, 0.8), accuracies=(0.5, 1.0))
    a = sweep_grid(trace, engine="kernel", **kw)
    b = sweep_grid(trace, engine="reference", **kw)
    for pa, pb in zip(a.points, b.points):
        assert pa.online_cost == pb.online_cost
        assert pa.optimal_cost == pb.optimal_cost


def test_experiment_runner_kernel_engine_matches_reference():
    from repro.experiments import ExperimentRunner, get_scenario

    scenario = get_scenario("smoke")
    k = ExperimentRunner(workers=1, engine="kernel").run(scenario)
    r = ExperimentRunner(workers=1, engine="reference").run(scenario)
    assert [c.online_cost for c in k.results] == [
        c.online_cost for c in r.results
    ]


def test_multi_object_kernel_engine():
    from repro import MultiObjectSystem, ObjectSpec

    tr = uniform_random_trace(n=3, m=30, horizon=200.0, seed=7)
    spec = ObjectSpec(
        object_id="obj-a", trace=tr, lam=10.0,
        policy_factory=lambda trace, model: ConventionalReplication(),
    )
    system = MultiObjectSystem(3, [spec])
    rep_k = system.run(engine="kernel", compute_optimal=False)
    rep_r = system.run(engine="reference", compute_optimal=False)
    assert rep_k.outcomes[0].result.total_cost == \
        rep_r.outcomes[0].result.total_cost
    assert rep_k.outcomes[0].result.engine == "kernel"


def test_cli_sweep_kernel_engine(capsys):
    from repro.cli import main

    assert main([
        "experiments", "run", "smoke", "--no-cache", "--workers", "1",
        "--engine", "kernel",
    ]) == 0
    out = capsys.readouterr().out
    assert "alpha\\acc" in out


# ----------------------------------------------------------------------
# prediction-matrix layouts
# ----------------------------------------------------------------------


def test_batch_for_predictors_cell_major_layout():
    trace = uniform_random_trace(n=4, m=60, horizon=300.0, seed=3)
    preds = [
        OraclePredictor(trace),
        AdversarialPredictor(trace),
        FixedPredictor(True),
        NoisyOraclePredictor(trace, 0.6, seed=2),
    ]
    cols = PredictionStream.batch_for_predictors(preds, trace, 10.0)
    rows = PredictionStream.batch_for_predictors(
        preds, trace, 10.0, cell_major=True
    )
    assert cols.shape == (len(trace) + 1, len(preds))
    assert rows.shape == (len(preds), len(trace) + 1)
    assert np.array_equal(rows, cols.T)
    assert rows.flags.c_contiguous


# ----------------------------------------------------------------------
# vectorized brute force == loop reference (satellite)
# ----------------------------------------------------------------------


@st.composite
def brute_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 9))
    gaps = draw(
        st.lists(
            st.floats(0.1, 8.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    lam = draw(st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False))
    ascending = draw(st.booleans())
    if ascending:
        rates = tuple(
            sorted(
                draw(
                    st.lists(
                        st.floats(0.2, 4.0, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        )
    else:
        rates = ()
    times = np.cumsum(gaps)
    trace = Trace(n, list(zip(times.tolist(), servers)))
    return trace, CostModel(lam=lam, n=n, storage_rates=rates)


@settings(max_examples=60, deadline=None)
@given(brute_instances())
def test_brute_force_vectorized_equals_reference(inst):
    """The bitmask-array search returns *exactly* the loop formulation's
    optimum (same doubles, not merely close) on uniform and per-server
    storage rates alike."""
    trace, model = inst
    assert brute_force_optimal_cost(trace, model) == _brute_force_reference(
        trace, model
    )


def test_brute_force_size_guards_unchanged():
    trace = uniform_random_trace(n=2, m=20, horizon=100.0, seed=0)
    model = CostModel(lam=5.0, n=2)
    with pytest.raises(ValueError, match="too large"):
        brute_force_optimal_cost(trace, model, max_requests=16)
    big_n = uniform_random_trace(n=6, m=5, horizon=100.0, seed=0)
    with pytest.raises(ValueError, match="too large"):
        brute_force_optimal_cost(big_n, CostModel(lam=5.0, n=6))


# ----------------------------------------------------------------------
# repro bench discovery (satellite)
# ----------------------------------------------------------------------


def test_bench_discovery_finds_runnable_suites():
    import os

    from repro.cli import _discover_bench_suites

    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    suites = _discover_bench_suites(bench_dir)
    for name in ("trace", "scaling", "fleet"):
        assert name in suites
    for name in ("engines", "batch", "kernel", "backends"):
        assert name not in suites
    # pytest-only figure benchmarks expose no main() and are not listed
    assert "fig25_28" not in suites


def test_bench_cli_list_and_unknown(capsys, tmp_path):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "scaling" in out and "fleet" in out
    assert main(["bench", "no-such-suite"]) == 2
    assert main(["bench", "--dir", str(tmp_path)]) == 2
