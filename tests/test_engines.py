"""Equivalence and selection tests for the tiered simulation engines.

The contract under test (core/engine.py DESIGN): the cost-only tier,
:class:`KernelCostEngine`, must reproduce the reference event-driven
simulator's total / storage / transfer costs
*bit for bit* for every eligible policy — Algorithm 1 with streamable
predictors, the conventional baseline, and Wang et al. — on arbitrary
instances and on every registered scenario, and must refuse (or be
skipped by ``auto`` selection for) everything else.
"""

from __future__ import annotations

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
    Trace,
    WangReplication,
    get_engine,
    select_engine,
)
from repro.analysis.sweep import SweepPoint, SweepResult, sweep_grid
from repro.experiments import get_scenario
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    SlidingWindowPredictor,
)
from repro.workloads import uniform_random_trace

from conftest import (
    assert_registered_scenarios_match_reference,
    incremental_stream,
    instances,
)

KERNEL = KernelCostEngine()
REF = ReferenceEngine()


def assert_same_ledger(run, ref, label=None):
    """Bit-identity of a cost-only result with a reference result."""
    assert isinstance(run, CostResult), label
    assert run.storage_cost == ref.storage_cost, label
    assert run.transfer_cost == ref.transfer_cost, label
    assert run.n_transfers == ref.ledger.n_transfers, label


def assert_costs_match(trace, model, make_policy):
    """The kernel and the reference on fresh policies: identical cost
    ledgers; returns the kernel's and the reference's results."""
    ref = REF.run(trace, model, make_policy())
    run = KERNEL.run(trace, model, make_policy())
    assert_same_ledger(run, ref, run.engine)
    return run, ref


# ----------------------------------------------------------------------
# property-based equivalence: random traces x policies x engines
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(instances(max_m=40), st.floats(0.05, 1.0), st.integers(0, 5))
def test_algorithm1_noisy_oracle_equivalence(inst, alpha, seed):
    trace, model = inst
    assert_costs_match(
        trace,
        model,
        lambda: LearningAugmentedReplication(
            NoisyOraclePredictor(trace, 0.5, seed=seed), alpha
        ),
    )


@settings(max_examples=40, deadline=None)
@given(instances(max_m=40), st.floats(0.05, 1.0))
def test_algorithm1_oracle_equivalence(inst, alpha):
    trace, model = inst
    assert_costs_match(
        trace,
        model,
        lambda: LearningAugmentedReplication(OraclePredictor(trace), alpha),
    )


@settings(max_examples=40, deadline=None)
@given(instances(max_m=40), st.floats(0.05, 1.0), st.booleans())
def test_algorithm1_fixed_and_adversarial_equivalence(inst, alpha, within):
    trace, model = inst
    assert_costs_match(
        trace,
        model,
        lambda: LearningAugmentedReplication(FixedPredictor(within), alpha),
    )
    assert_costs_match(
        trace,
        model,
        lambda: LearningAugmentedReplication(AdversarialPredictor(trace), alpha),
    )


@settings(max_examples=40, deadline=None)
@given(instances(max_m=40))
def test_conventional_and_wang_equivalence(inst):
    trace, model = inst
    assert_costs_match(trace, model, ConventionalReplication)
    assert_costs_match(trace, model, WangReplication)


@settings(max_examples=25, deadline=None)
@given(instances(max_m=40), st.integers(0, 3))
def test_zero_alpha_full_trust_equivalence(inst, seed):
    trace, model = inst
    assert_costs_match(
        trace,
        model,
        lambda: LearningAugmentedReplication(
            NoisyOraclePredictor(trace, 0.9, seed=seed),
            0.0,
            allow_zero_alpha=True,
        ),
    )


def test_wang_non_uniform_rates_equivalence():
    trace = uniform_random_trace(n=4, m=80, horizon=400.0, seed=7)
    model = CostModel(lam=50.0, n=4, storage_rates=(1.0, 1.5, 2.0, 4.0))
    assert_costs_match(trace, model, WangReplication)


def test_wang_drain_transfer_counted():
    # a final request far from server 0 forces the drain-phase shipment
    # back to the cheapest server (a post-t_m transfer the ledger counts)
    trace = Trace(2, [(1.0, 1)])
    model = CostModel(lam=5.0, n=2)
    kernel, _ = assert_costs_match(trace, model, WangReplication)
    assert kernel.n_transfers >= 2  # serve transfer + drain-phase shipment


# ----------------------------------------------------------------------
# prediction streams
# ----------------------------------------------------------------------


class TestPredictionStream:
    def test_noisy_stream_bit_identical_to_incremental(self):
        trace = uniform_random_trace(n=4, m=120, horizon=900.0, seed=3)
        lam = 40.0
        (row,) = PredictionStream.batch_for_cells(
            [(NoisyOraclePredictor(trace, 0.6, seed=11), lam)], trace
        )
        ref = incremental_stream(
            NoisyOraclePredictor(trace, 0.6, seed=11), trace, lam
        )
        assert np.array_equal(row, ref)

    def test_oracle_and_adversarial_are_complements(self):
        trace = uniform_random_trace(n=3, m=50, horizon=300.0, seed=1)
        a, b = PredictionStream.batch_for_cells(
            [(OraclePredictor(trace), 25.0), (AdversarialPredictor(trace), 25.0)],
            trace,
        )
        assert np.array_equal(a, ~b)
        assert len(a) == len(trace) + 1
        assert np.array_equal(
            a, incremental_stream(OraclePredictor(trace), trace, 25.0)
        )

    def test_for_predictor_rejects_foreign_trace(self):
        tr1 = uniform_random_trace(n=3, m=30, horizon=100.0, seed=1)
        tr2 = uniform_random_trace(n=3, m=30, horizon=100.0, seed=2)
        pred = OraclePredictor(tr1)
        assert not PredictionStream.supports_predictor(pred, tr2)
        assert PredictionStream.batch_for_cells([(pred, 10.0)], tr2) is None
        assert PredictionStream.supports_predictor(pred, tr1)
        assert PredictionStream.batch_for_cells([(pred, 10.0)], tr1) is not None

    def test_for_predictor_rejects_consumed_noisy_rng(self):
        trace = uniform_random_trace(n=3, m=30, horizon=100.0, seed=1)
        pred = NoisyOraclePredictor(trace, 0.5, seed=0)
        assert PredictionStream.supports_predictor(pred, trace)
        assert PredictionStream.batch_for_cells([(pred, 10.0)], trace) is not None
        pred.predict_within(0, 1.0, 10.0)  # consume one draw
        assert not PredictionStream.supports_predictor(pred, trace)
        assert PredictionStream.batch_for_cells([(pred, 10.0)], trace) is None

    def test_for_predictor_rejects_history_based(self):
        trace = uniform_random_trace(n=3, m=30, horizon=100.0, seed=1)
        pred = SlidingWindowPredictor(window=5)
        assert not PredictionStream.supports_predictor(pred, trace)
        assert PredictionStream.batch_for_cells([(pred, 10.0)], trace) is None


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------


class TestSelection:
    def setup_method(self):
        self.trace = uniform_random_trace(n=4, m=40, horizon=300.0, seed=0)
        self.model = CostModel(lam=20.0, n=4)

    def test_auto_picks_kernel_for_eligible(self):
        # a single cell runs on the kernel at any trace length, however
        # short (the 40-request trace here, an empty one)
        empty = Trace(4, [])
        for trace in (self.trace, empty):
            pol = LearningAugmentedReplication(OraclePredictor(trace), 0.5)
            for p in (pol, WangReplication()):
                assert select_engine(trace, self.model, p, "auto") \
                    is get_engine("kernel")

    def test_auto_falls_back_for_adaptive(self):
        # the adaptive variant rides the kernel under Algorithm 1's
        # conditions, and falls back only with a history-based predictor
        pol = AdaptiveReplication(OraclePredictor(self.trace), 0.5, beta=0.1)
        assert KERNEL.supports(self.trace, self.model, pol)
        assert select_engine(self.trace, self.model, pol, "auto") \
            is get_engine("kernel")
        pol = AdaptiveReplication(
            SlidingWindowPredictor(window=5), 0.5, beta=0.1
        )
        assert not KERNEL.supports(self.trace, self.model, pol)
        assert select_engine(self.trace, self.model, pol, "auto") \
            is get_engine("reference")

    def test_auto_falls_back_for_history_predictor(self):
        pol = LearningAugmentedReplication(SlidingWindowPredictor(window=5), 0.5)
        assert select_engine(self.trace, self.model, pol, "auto") \
            is get_engine("reference")

    def test_auto_falls_back_for_non_uniform_storage(self):
        model = CostModel(lam=20.0, n=4, storage_rates=(1.0, 1.0, 2.0, 2.0))
        pol = LearningAugmentedReplication(OraclePredictor(self.trace), 0.5)
        assert not KERNEL.supports(self.trace, model, pol)

    def test_explicit_kernel_on_unsupported_policy_raises(self):
        pol = AdaptiveReplication(
            SlidingWindowPredictor(window=5), 0.5, beta=0.1
        )
        assert not KERNEL.supports(self.trace, self.model, pol)
        with pytest.raises(EngineError):
            KERNEL.run(self.trace, self.model, pol)

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp")

    def test_engine_instances_pass_through(self):
        pol = WangReplication()
        assert select_engine(self.trace, self.model, pol, KERNEL) is KERNEL
        assert get_engine(REF) is REF


# ----------------------------------------------------------------------
# consuming layers: sweep grids, fleets, scenario registry
# ----------------------------------------------------------------------


class TestConsumers:
    def test_sweep_grid_engines_agree(self):
        trace = uniform_random_trace(n=4, m=60, horizon=500.0, seed=0)
        grids = {
            name: sweep_grid(
                trace, (10.0, 100.0), (0.2, 1.0), (0.0, 1.0), engine=name
            )
            for name in ("auto", "kernel", "reference")
        }
        for lam in (10.0, 100.0):
            for alpha in (0.2, 1.0):
                for acc in (0.0, 1.0):
                    pts = [
                        g.at(lam, alpha, acc) for g in grids.values()
                    ]
                    assert len({p.online_cost for p in pts}) == 1
                    assert len({p.optimal_cost for p in pts}) == 1

    def test_multi_object_engine_choice(self):
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
        ref_report = system.run()
        auto_report = system.run(engine="auto")
        assert auto_report.online_total == ref_report.online_total
        assert auto_report.optimal_total == ref_report.optimal_total
        # reference keeps telemetry; auto outcomes are cost-only
        assert hasattr(ref_report.outcomes[0].result, "serves")
        assert isinstance(auto_report.outcomes[0].result, CostResult)
        assert "obj-a" in auto_report.summary_table()

    def test_all_registered_scenarios_equivalent_where_supported(self):
        """Every registered scenario through the default ``auto`` slab
        routing: one kernel slab call, matching the reference cell by
        cell, the Wang baseline on every scenario's trace (the kernel is
        forced in its own test module)."""
        assert_registered_scenarios_match_reference("auto")


# ----------------------------------------------------------------------
# regression: kernel costs pinned on the fig25 smoke grid
# ----------------------------------------------------------------------

FIG25_SMOKE_OPT = 670055.3877836763
FIG25_SMOKE_COSTS = {
    # (alpha, accuracy): (storage_cost, transfer_cost) at lambda = 10
    (0.0, 0.0): (643842.5321452664, 103010.0),
    (0.0, 0.5): (612764.1011366886, 87860.0),
    (0.0, 1.0): (605573.8803487406, 84380.0),
    (0.5, 0.0): (647842.8182470547, 88850.0),
    (0.5, 0.5): (629430.6212294047, 85860.0),
    (0.5, 1.0): (624412.744826302, 84380.0),
    (1.0, 0.0): (648751.7397425339, 84380.0),
    (1.0, 0.5): (648751.7397425339, 84380.0),
    (1.0, 1.0): (648751.7397425339, 84380.0),
}


def test_fig25_smoke_grid_regression():
    from repro.offline import optimal_cost

    scenario = get_scenario("fig25")
    trace = scenario.build_trace(lam=10.0, alpha=0.0, accuracy=0.0, seed=0)
    model = CostModel(lam=10.0, n=trace.n)
    assert optimal_cost(trace, model) == pytest.approx(FIG25_SMOKE_OPT, abs=1e-6)
    for (alpha, acc), (storage, transfer) in FIG25_SMOKE_COSTS.items():
        policy = scenario.policy_factory(trace, 10.0, alpha, acc, 0)
        run = KERNEL.run(trace, model, policy)
        assert run.storage_cost == pytest.approx(storage, abs=1e-6), (alpha, acc)
        assert run.transfer_cost == pytest.approx(transfer, abs=1e-9), (alpha, acc)


# ----------------------------------------------------------------------
# SweepResult.at keyed index (satellite)
# ----------------------------------------------------------------------


class TestSweepResultIndex:
    def _point(self, lam, alpha, acc):
        return SweepPoint(
            lam=lam, alpha=alpha, accuracy=acc, online_cost=2.0, optimal_cost=1.0
        )

    def test_exact_lookup_and_miss(self):
        res = SweepResult()
        res.add(self._point(10.0, 0.5, 1.0))
        assert res.at(10.0, 0.5, 1.0).online_cost == 2.0
        with pytest.raises(KeyError):
            res.at(10.0, 0.5, 0.0)

    def test_isclose_fallback(self):
        res = SweepResult()
        res.add(self._point(10.0, 0.30000000000000004, 1.0))
        # a near-miss query (float noise) still resolves via isclose
        assert res.at(10.0, 0.3, 1.0).alpha == 0.30000000000000004

    def test_constructor_points_are_indexed(self):
        res = SweepResult(points=[self._point(1.0, 0.1, 0.2)])
        assert res.at(1.0, 0.1, 0.2).lam == 1.0

    def test_directly_appended_points_still_found(self):
        res = SweepResult()
        res.points.append(self._point(5.0, 0.2, 0.4))
        assert res.at(5.0, 0.2, 0.4).lam == 5.0
