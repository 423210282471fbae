"""Equivalence and wiring tests for the kernel's multi-row passes.

The contract under test (core/engine.py DESIGN, "Slab mode"): a slab's
Algorithm-1 cells that share ``(lambda, alpha, rate)`` replay as one
pass over a ``(rows, m + 1)`` prediction matrix, and every row must
reproduce the reference event-driven simulator *bit for bit* for every
eligible policy (Algorithm 1 with streamable predictors, the
conventional baseline, the adapted algorithm, and Wang et al.) on
arbitrary instances and arbitrary slabs of ``(alpha, accuracy, seed)``
cells; batched prediction matrices must consume the PCG64 streams
exactly as the incremental predictors do; and the layers above
(``select_engine``, ``run_slab``, ``sweep_grid``, ``ExperimentRunner``,
fleets, the CLI) must route every slab onto the kernel, at any trace
length.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveReplication,
    ConventionalReplication,
    CostModel,
    CostResult,
    EngineError,
    KernelCostEngine,
    LearningAugmentedReplication,
    MultiObjectSystem,
    ObjectSpec,
    PredictionStream,
    ReferenceEngine,
    WangReplication,
    get_engine,
    run_slab,
    select_engine,
)
from repro.analysis.sweep import algorithm1_factory, sweep_grid
from repro.core.backends import set_thread_budget
from repro.core.engine import (
    ENGINE_NAMES,
    _kernel_algorithm1,
    _SegmentChains,
    _tenure_starts,
)
from repro.experiments import ExperimentRunner, ResultCache, get_scenario, scenario_names
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    SlidingWindowPredictor,
)
from repro.workloads import diurnal_trace, uniform_random_trace

from conftest import (
    incremental_stream,
    instances,
    slab_passes,
    slabs,
    tie_prone_traces,
    traces,
)

KERNEL = KernelCostEngine()
REF = ReferenceEngine()


def assert_slab_matches_reference(trace, model, factory, cells):
    """One kernel slab, one pass per ``(lambda, alpha)`` group (one
    replay for Wang cells) == per-cell reference runs."""
    policies = [factory(trace, model.lam, *cell) for cell in cells]
    groups = {
        "wang" if type(p) is WangReplication else p.alpha for p in policies
    }
    runs, spans = slab_passes(
        lambda: run_slab(trace, model, cells, factory, engine=KERNEL),
        tags=("tier", "cells", "passes"),
    )
    if cells:
        # the whole slab ran as one slab call, rows sharing passes
        assert spans == [("kernel", len(cells), len(groups))]
    assert len(runs) == len(cells)
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
# property-based equivalence: random traces x slabs x all three policies
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(instances(), slabs())
def test_algorithm1_slab_bit_identity(inst, cells):
    """Every row of a multi-row pass == reference for Algorithm 1."""
    trace, model = inst
    assert_slab_matches_reference(trace, model, algorithm1_factory, cells)


def _conventional_factory(trace, lam, alpha, accuracy, seed):
    return ConventionalReplication()


def _wang_factory(trace, lam, alpha, accuracy, seed):
    return WangReplication()


def _learned_factory(trace, lam, alpha, accuracy, seed):
    return LearningAugmentedReplication(SlidingWindowPredictor(5), alpha)


@settings(max_examples=30, deadline=None)
@given(instances(), st.integers(1, 4))
def test_conventional_and_wang_slab_bit_identity(inst, k):
    trace, model = inst
    cells = [(0.5, 1.0, s) for s in range(k)]
    assert_slab_matches_reference(trace, model, _conventional_factory, cells)
    assert_slab_matches_reference(trace, model, _wang_factory, cells)


@settings(max_examples=25, deadline=None)
@given(instances(), st.floats(0.05, 1.0), st.booleans())
def test_fixed_and_adversarial_predictor_slabs(inst, alpha, within):
    trace, model = inst

    def fixed_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(FixedPredictor(within), a)

    def adversarial_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(AdversarialPredictor(tr), a)

    cells = [(alpha, 0.0, 0), (1.0, 0.0, 1)]
    assert_slab_matches_reference(trace, model, fixed_factory, cells)
    assert_slab_matches_reference(trace, model, adversarial_factory, cells)


@settings(max_examples=40, deadline=None)
@given(tie_prone_traces(), st.integers(1, 4), slabs(min_cells=2, max_cells=8))
def test_tie_prone_multi_row_slab(trace, lam_int, cells):
    """Integer timing: cross-branch expiry ties in the union of the
    rows' drops take the lexsort fallback and stay bit-identical."""
    model = CostModel(lam=float(lam_int), n=trace.n)
    assert_slab_matches_reference(trace, model, algorithm1_factory, cells)


@settings(max_examples=25, deadline=None)
@given(
    instances(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.lists(st.sampled_from(["oracle", "noisy", "adversarial"]),
             min_size=2, max_size=5),
)
def test_adaptive_multi_row_slab(inst, beta, kinds):
    """Adapted-algorithm cells replay their monitor-forced columns as
    rows of one pass."""
    trace, model = inst

    def factory(tr, lam, alpha, accuracy, seed):
        kind = kinds[seed]
        pred = (
            OraclePredictor(tr) if kind == "oracle"
            else AdversarialPredictor(tr) if kind == "adversarial"
            else NoisyOraclePredictor(tr, accuracy, seed=seed)
        )
        return AdaptiveReplication(pred, alpha, beta=beta, warmup=2)

    cells = [(0.5, 0.6, s) for s in range(len(kinds))]
    assert_slab_matches_reference(trace, model, factory, cells)


def test_wide_short_slab_runs_one_pass_per_alpha():
    """The 804-cell, 4-alpha slab at m = 64 (one (trace, lambda) slab
    of a template fleet) runs as one pass per alpha when serial."""
    trace = uniform_random_trace(8, 64, horizon=64.0, seed=0)
    model = CostModel(lam=50.0, n=8)
    cells = [
        (alpha, acc, seed)
        for seed in range(67)
        for alpha in (0.2, 0.5, 0.8, 1.0)
        for acc in (0.0, 0.6, 1.0)
    ]
    prev = set_thread_budget(1)
    try:
        runs, spans = slab_passes(
            lambda: run_slab(trace, model, cells, algorithm1_factory),
            tags=("tier", "cells", "passes"),
        )
    finally:
        set_thread_budget(prev)
    (tier, n_cells, passes), = spans
    assert (tier, n_cells) == ("kernel", 804) and passes <= 4
    for k in range(0, 804, 67):
        ref = REF.run(trace, model, algorithm1_factory(trace, 50.0, *cells[k]))
        assert runs[k].total_cost == ref.total_cost


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(0, 3))
def test_zero_alpha_full_trust_slab(inst, seed):
    trace, model = inst
    cells = [(0.0, 0.7, seed), (0.0, 1.0, seed), (0.3, 0.7, seed + 1)]
    assert_slab_matches_reference(trace, model, algorithm1_factory, cells)


def test_single_policy_run_matches_reference():
    """The scalar Engine interface (a one-row pass) is bit-identical."""
    trace = uniform_random_trace(n=4, m=80, horizon=500.0, seed=5)
    model = CostModel(lam=25.0, n=4)
    for make in (
        lambda: LearningAugmentedReplication(
            NoisyOraclePredictor(trace, 0.6, seed=3), 0.4
        ),
        ConventionalReplication,
        WangReplication,
    ):
        k = KERNEL.run(trace, model, make())
        r = REF.run(trace, model, make())
        assert k.storage_cost == r.storage_cost
        assert k.transfer_cost == r.transfer_cost
        assert k.n_transfers == r.ledger.n_transfers
        assert k.engine == "kernel"


def test_drain_event_cap_matches_reference():
    trace = uniform_random_trace(n=5, m=40, horizon=200.0, seed=9)
    model = CostModel(lam=15.0, n=5)
    pol = LearningAugmentedReplication(OraclePredictor(trace), 0.5)
    for cap in (0, 1, 2, None):
        k = KERNEL.run(trace, model, pol, drain_event_cap=cap)
        r = REF.run(
            trace,
            model,
            LearningAugmentedReplication(OraclePredictor(trace), 0.5),
            drain_event_cap=cap,
        )
        assert k.storage_cost == r.storage_cost, cap
        assert k.transfer_cost == r.transfer_cost, cap


@settings(max_examples=30, deadline=None)
@given(instances(), st.floats(0.0, 1.0), st.booleans(),
       st.one_of(st.none(), st.integers(0, 8)))
def test_multi_row_drain_configurations(inst, alpha, drain, cap):
    """drain=False and binding event caps on one multi-row pass: each
    row's cap-stranded copies finalize in its own dict-insertion order."""
    trace, model = inst
    specs = [(0.3, 0), (0.7, 1), (1.0, 2)]

    def policy(acc, seed):
        return LearningAugmentedReplication(
            NoisyOraclePredictor(trace, acc, seed=seed), alpha,
            allow_zero_alpha=True,
        )

    rows = PredictionStream.batch_for_cells(
        [(policy(*spec).predictor, model.lam) for spec in specs], trace
    )
    storage, transfer, n_tx = _kernel_algorithm1(
        _SegmentChains(trace), 1.0, model.lam, alpha, rows, drain, cap
    )
    for r, spec in enumerate(specs):
        ref = REF.run(trace, model, policy(*spec), drain, cap)
        assert storage[r] == ref.storage_cost, spec
        assert transfer[r] == ref.transfer_cost, spec
        assert n_tx[r] == ref.ledger.n_transfers, spec


@settings(max_examples=40, deadline=None)
@given(traces(), st.integers(2, 4), st.data())
def test_tenure_walk_keeps_rows_apart(trace, n_rows, data):
    """The dict-insertion walk of a multi-row pass gives every row its
    own one-row walk: the flat scan's offsets keep rows apart."""
    chains = _SegmentChains(trace)
    miss = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=chains.m1, max_size=chains.m1),
        min_size=n_rows, max_size=n_rows,
    )))
    miss[:, 0] = True                    # the dummy creates at server 0
    tenure = _tenure_starts(chains, miss)
    for r in range(n_rows):
        assert np.array_equal(tenure[r], _tenure_starts(chains, miss[r:r + 1])[0])


def test_non_unit_uniform_rate_slab():
    trace = uniform_random_trace(n=4, m=100, horizon=600.0, seed=11)
    model = CostModel(lam=40.0, n=4, storage_rates=(2.5,) * 4)
    cells = [(a, acc, 0) for a in (0.2, 1.0) for acc in (0.0, 1.0)]
    assert_slab_matches_reference(trace, model, algorithm1_factory, cells)


# ----------------------------------------------------------------------
# batched prediction streams: RNG bit-identity
# ----------------------------------------------------------------------


class TestBatchedStreams:
    """The one matrix builder (``batch_for_cells``) and its one-lambda
    view (``batch_for_predictors``)."""

    def test_batch_matrix_columns_equal_scalar_streams(self):
        trace = uniform_random_trace(n=4, m=150, horizon=900.0, seed=7)
        lam = 35.0
        accuracies = [0.0, 0.3, 0.3, 0.8, 1.0]
        seeds = [0, 1, 1, 2, 5]
        preds = [
            OraclePredictor(trace)
            if acc == 1.0
            else NoisyOraclePredictor(trace, acc, seed=seed)
            for acc, seed in zip(accuracies, seeds)
        ]
        matrix = PredictionStream.batch_for_predictors(preds, trace, lam)
        assert matrix.shape == (len(trace) + 1, 5)
        rows = PredictionStream.batch_for_cells([(p, lam) for p in preds], trace)
        assert np.array_equal(rows, matrix.T)
        for c, (acc, seed) in enumerate(zip(accuracies, seeds)):
            fresh = (
                OraclePredictor(trace)
                if acc >= 1.0
                else NoisyOraclePredictor(trace, acc, seed=seed)
            )
            ref = incremental_stream(fresh, trace, lam)
            assert np.array_equal(matrix[:, c], ref), (acc, seed)

    def test_batch_shares_draws_across_same_seed(self):
        # two cells with the same seed must flip the same queries when
        # their accuracies coincide — a direct probe of draw sharing,
        # at one lambda and across lambdas
        trace = uniform_random_trace(n=3, m=80, horizon=400.0, seed=1)
        preds = [NoisyOraclePredictor(trace, 0.5, seed=3) for _ in range(2)]
        m = PredictionStream.batch_for_predictors(preds, trace, 20.0)
        assert np.array_equal(m[:, 0], m[:, 1])
        lams = (20.0, 40.0)
        rows = PredictionStream.batch_for_cells(list(zip(preds, lams)), trace)
        flips = [
            rows[c] != incremental_stream(OraclePredictor(trace), trace, lam)
            for c, lam in enumerate(lams)
        ]
        assert np.array_equal(flips[0], flips[1])

    def test_batch_for_predictors_mixed_kinds(self):
        trace = uniform_random_trace(n=3, m=60, horizon=300.0, seed=2)
        lam = 18.0
        preds = [
            OraclePredictor(trace),
            AdversarialPredictor(trace),
            FixedPredictor(True),
            FixedPredictor(False),
            NoisyOraclePredictor(trace, 0.4, seed=6),
        ]
        matrix = PredictionStream.batch_for_predictors(preds, trace, lam)
        assert matrix is not None
        cells = [(p, lam * (1 + c % 2)) for c, p in enumerate(preds)]
        rows = PredictionStream.batch_for_cells(cells, trace)
        for c, (p, cell_lam) in enumerate(cells):
            ref = incremental_stream(copy.deepcopy(p), trace, lam)
            assert np.array_equal(matrix[:, c], ref), type(p)
            ref = incremental_stream(copy.deepcopy(p), trace, cell_lam)
            assert np.array_equal(rows[c], ref), type(p)

    def test_batch_for_predictors_rejects_unstreamable(self):
        trace = uniform_random_trace(n=3, m=30, horizon=150.0, seed=3)
        preds = [OraclePredictor(trace), SlidingWindowPredictor(window=5)]
        assert PredictionStream.batch_for_predictors(preds, trace, 10.0) is None
        cells = [(p, 10.0) for p in preds]
        assert PredictionStream.batch_for_cells(cells, trace) is None

    def test_batch_validates_inputs(self):
        # the builders take predictor objects, whose constructors own
        # the accuracy check
        trace = uniform_random_trace(n=3, m=10, horizon=50.0, seed=0)
        for accuracy in (-0.1, 1.5):
            with pytest.raises(ValueError, match="accuracy"):
                NoisyOraclePredictor(trace, accuracy, seed=0)


# ----------------------------------------------------------------------
# selection and dispatch wiring
# ----------------------------------------------------------------------


class TestSelection:
    def setup_method(self):
        self.trace = uniform_random_trace(n=4, m=40, horizon=300.0, seed=0)
        self.model = CostModel(lam=20.0, n=4)

    def test_engine_names_and_registry(self):
        assert ENGINE_NAMES == ("auto", "kernel", "reference")
        assert isinstance(get_engine("kernel"), KernelCostEngine)
        with pytest.raises(ValueError, match="unknown engine 'batch'"):
            get_engine("batch")

    def test_auto_runs_slabs_as_one_kernel_pass(self):
        """``auto`` runs a short slab on the kernel as one multi-row
        pass, like a single cell."""
        pol = LearningAugmentedReplication(OraclePredictor(self.trace), 0.5)
        assert select_engine(self.trace, self.model, pol, "auto") \
            is get_engine("kernel")
        cells = [(0.5, 1.0, s) for s in range(8)]
        runs, spans = slab_passes(
            lambda: run_slab(self.trace, self.model, cells, algorithm1_factory),
            tags=("tier", "cells", "passes"),
        )
        assert spans == [("kernel", 8, 1)]
        assert [r.engine for r in runs] == ["kernel"] * 8
        # ineligible policies fall back to reference even for slabs
        runs = run_slab(self.trace, self.model, cells, _learned_factory)
        assert all(hasattr(r, "serves") for r in runs)

    def test_explicit_kernel_refuses_unstreamable_cell_on_every_entry(self):
        """An explicit kernel refuses a history-based adaptive cell with
        one ``EngineError``, whether it comes alone to ``run`` or as a
        one-cell slab."""
        pol = AdaptiveReplication(
            SlidingWindowPredictor(window=5), 0.5, beta=0.1
        )
        assert not KERNEL.supports(self.trace, self.model, pol)
        with pytest.raises(EngineError, match="cannot stream"):
            KERNEL.run(self.trace, self.model, pol)
        with pytest.raises(EngineError, match="cannot stream"):
            run_slab(
                self.trace, self.model, [(0.5, 1.0, 0)],
                lambda trace, lam, alpha, accuracy, seed: AdaptiveReplication(
                    SlidingWindowPredictor(window=5), alpha, beta=0.1
                ),
                engine="kernel",
            )

    def test_supports_slab_rejects_mixed_and_unstreamable(self):
        def mixed_factory(trace, lam, alpha, accuracy, seed):
            if seed % 2:
                return WangReplication()
            return ConventionalReplication()

        # two replay families share one slab call: an Algorithm-1 pass
        # and a Wang replay, bit-identical to the reference
        cells = [(0.5, 1.0, 0), (0.5, 1.0, 1)]
        runs, spans = slab_passes(
            lambda: run_slab(
                self.trace, self.model, cells, mixed_factory, engine=KERNEL
            ),
            tags=("tier", "cells", "passes"),
        )
        assert spans == [("kernel", 2, 2)]
        for cell, run in zip(cells, runs):
            ref = REF.run(
                self.trace, self.model,
                mixed_factory(self.trace, self.model.lam, *cell),
            )
            assert run.engine == "kernel"
            assert run.total_cost == ref.total_cost

        policy = _learned_factory(self.trace, self.model.lam, *cells[0])
        assert not KERNEL.supports(self.trace, self.model, policy)
        with pytest.raises(EngineError):
            run_slab(
                self.trace, self.model, cells, _learned_factory, engine=KERNEL
            )

    def test_run_slab_falls_back_per_cell(self):
        # an unbatchable (history-based) factory still evaluates under
        # "auto" via the reference engine, cell by cell
        def learned_factory(trace, lam, alpha, accuracy, seed):
            return LearningAugmentedReplication(SlidingWindowPredictor(5), alpha)

        cells = [(0.5, 1.0, 0), (1.0, 1.0, 0)]
        runs = run_slab(self.trace, self.model, cells, learned_factory)
        refs = [
            REF.run(
                self.trace, self.model,
                learned_factory(self.trace, self.model.lam, *c),
            )
            for c in cells
        ]
        for run, ref in zip(runs, refs):
            assert run.total_cost == ref.total_cost

    def test_run_slab_empty(self):
        assert run_slab(self.trace, self.model, [], algorithm1_factory) == []


# ----------------------------------------------------------------------
# consuming layers: sweep, runner, fleets, CLI
# ----------------------------------------------------------------------


class TestConsumers:
    def test_sweep_grid_batch_equals_reference(self):
        trace = uniform_random_trace(n=4, m=60, horizon=500.0, seed=0)
        grids = {
            name: sweep_grid(
                trace, (10.0, 100.0), (0.2, 1.0), (0.0, 1.0), engine=name
            )
            for name in ("auto", "kernel", "reference")
        }
        base = grids["reference"]
        for name, grid in grids.items():
            assert len(grid.points) == len(base.points)
            for p, q in zip(grid.points, base.points):
                assert p.online_cost == q.online_cost, name
                assert (p.lam, p.alpha, p.accuracy) == (q.lam, q.alpha, q.accuracy)

    def test_runner_batch_scenario_and_shared_cache(self, tmp_path):
        scenario = get_scenario("smoke")
        ref = ExperimentRunner(workers=1, engine="reference").run(scenario)
        kernel = ExperimentRunner(workers=2, engine="kernel").run(scenario)
        for a, b in zip(ref.results, kernel.results):
            assert a.online_cost == b.online_cost
            assert a.optimal_cost == b.optimal_cost
        # the cache is keyed per cell and shared across engines: a
        # kernel run warms it for a reference re-run, which then
        # executes nothing
        cache = ResultCache(tmp_path / "cache")
        first = ExperimentRunner(workers=2, cache=cache, engine="kernel").run(
            scenario
        )
        assert first.executed == len(first)
        again = ExperimentRunner(
            workers=2, cache=ResultCache(tmp_path / "cache"), engine="reference"
        ).run(scenario)
        assert again.executed == 0 and again.cached == len(again)

    def test_run_fleet_threads_engine(self):
        trace = uniform_random_trace(n=3, m=40, horizon=300.0, seed=2)
        specs = [
            ObjectSpec(
                "obj-a",
                trace,
                15.0,
                lambda tr, model: LearningAugmentedReplication(
                    OraclePredictor(tr), 0.4
                ),
            ),
            ObjectSpec("obj-b", trace, 30.0, lambda tr, model: WangReplication()),
        ]
        system = MultiObjectSystem(3, specs)
        ref = system.run()
        # engine=None inherits an explicitly configured runner engine
        report = ExperimentRunner(workers=2, engine="kernel").run_fleet(system)
        assert report.online_total == ref.online_total
        assert isinstance(report.outcomes[0].result, CostResult)
        assert report.outcomes[0].result.engine == "kernel"
        # ...but a default ("auto") runner keeps the telemetry-preserving
        # reference engine for fleets, as before
        default_report = ExperimentRunner(workers=1).run_fleet(system)
        assert default_report.online_total == ref.online_total
        assert hasattr(default_report.outcomes[0].result, "serves")
        # MultiObjectSystem.run(engine="kernel", runner=...) also routes
        via_system = system.run(
            runner=ExperimentRunner(workers=1), engine="kernel"
        )
        assert via_system.online_total == ref.online_total

    def test_cli_rejects_batch_engine(self, capsys):
        """argparse rejects ``--engine batch`` (exit 2)."""
        from repro.cli import build_parser

        p = build_parser()
        for argv in (
            ["experiments", "run", "smoke", "--engine", "batch"],
            ["fleet", "run", "--scenario", "smoke", "--engine", "batch"],
        ):
            with pytest.raises(SystemExit) as exc:
                p.parse_args(argv)
            assert exc.value.code == 2
            assert "invalid choice: 'batch'" in capsys.readouterr().err
        args = p.parse_args(["experiments", "run", "smoke", "--engine", "kernel"])
        assert args.engine == "kernel"


# ----------------------------------------------------------------------
# synthetic workload scenarios
# ----------------------------------------------------------------------


class TestWorkloadScenarios:
    def test_registered(self):
        names = set(scenario_names())
        assert {"bursty", "periodic", "diurnal"} <= names
        assert set(scenario_names(tag="workloads")) == {
            "bursty", "periodic", "diurnal"
        }

    @pytest.mark.parametrize("name", ["bursty", "periodic", "diurnal"])
    def test_scenario_slab_is_batchable_and_bit_identical(self, name):
        """A 3-cell slab of each synthetic workload: one kernel slab
        call, every row equal to the reference."""
        scenario = get_scenario(name)
        lam = scenario.lambdas[0]
        trace = scenario.build_trace(lam=lam, alpha=0.2, accuracy=0.5, seed=0)
        model = CostModel(lam=lam, n=trace.n)
        cells = [(0.2, 0.5, 0), (1.0, 1.0, 0), (0.1, 0.0, 1)]
        # the helper asserts one pass per alpha
        assert_slab_matches_reference(trace, model, scenario.policy_factory, cells)

    def test_diurnal_trace_properties(self):
        tr = diurnal_trace(
            n=6, days=2, base_rate=0.05, peak_rate=1.0, day_length=400.0,
            seed=3,
        )
        tr2 = diurnal_trace(
            n=6, days=2, base_rate=0.05, peak_rate=1.0, day_length=400.0,
            seed=3,
        )
        assert [(r.time, r.server) for r in tr] == [
            (r.time, r.server) for r in tr2
        ]
        assert len(tr) > 100
        assert tr.span <= 2 * 400.0 + 5.0 + 1.0  # horizon + session spread
        # heavy tail: some sessions are much larger than the median burst
        gaps = np.diff(tr.times)
        assert np.max(gaps) > 20 * np.median(gaps)

    def test_diurnal_trace_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(n=3, days=0, base_rate=0.1, peak_rate=1.0)
        with pytest.raises(ValueError):
            diurnal_trace(n=3, days=1, base_rate=2.0, peak_rate=1.0)
        with pytest.raises(ValueError):
            diurnal_trace(n=3, days=1, base_rate=0.1, peak_rate=1.0,
                          tail_exponent=0.0)
        with pytest.raises(ValueError):
            diurnal_trace(n=3, days=1, base_rate=0.1, peak_rate=1.0,
                          max_session=0)
