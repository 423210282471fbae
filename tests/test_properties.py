"""Property-based tests (hypothesis) on core invariants.

Strategies generate arbitrary valid problem instances; each property is
an exact invariant of the system, so shrinking produces minimal
counterexamples if anything breaks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    AdversarialPredictor,
    CostModel,
    FixedPredictor,
    LearningAugmentedReplication,
    NoisyOraclePredictor,
    OraclePredictor,
    Trace,
    brute_force_optimal_cost,
    optimal_cost,
    simulate,
)
from repro.analysis import allocate_costs, paper_total_cost
from repro.analysis.theory import consistency_bound, robustness_bound
from repro.offline import opt_lower_bound, optimal_schedule

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def traces(draw, max_n=4, max_m=18):
    """A valid trace: strictly increasing positive times, servers in range."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    gaps = draw(
        st.lists(
            st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    times = np.cumsum(gaps)
    return Trace(n, list(zip(times.tolist(), servers)))


@st.composite
def instances(draw, max_n=4, max_m=18):
    trace = draw(traces(max_n=max_n, max_m=max_m))
    lam = draw(st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False))
    return trace, CostModel(lam=lam, n=trace.n)


alphas = st.floats(0.05, 1.0, allow_nan=False)


# ----------------------------------------------------------------------
# trace properties
# ----------------------------------------------------------------------


class TestTraceProperties:
    @given(traces())
    def test_times_strictly_increasing(self, trace):
        times = trace.times
        assert np.all(np.diff(times) > 0)

    @given(traces())
    def test_gap_reconstruction(self, trace):
        gaps = trace.inter_request_gaps()
        last = {0: 0.0}
        for r, g in zip(trace, gaps):
            if r.server in last:
                assert g == pytest.approx(r.time - last[r.server])
            else:
                assert math.isinf(g)
            last[r.server] = r.time

    @given(traces())
    def test_next_local_is_inverse_of_preceding(self, trace):
        nxt = trace.next_local_time()
        seq = trace.with_dummy()
        prev = trace.preceding_local_index()
        for i, r in enumerate(trace):
            p = prev[i]
            if p >= 0:
                assert nxt[p] == pytest.approx(r.time)


# ----------------------------------------------------------------------
# simulator properties (via Algorithm 1)
# ----------------------------------------------------------------------


class TestSimulationProperties:
    @given(instances(), alphas, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_at_least_one_copy_always(self, inst, alpha, within):
        trace, model = inst
        pol = LearningAugmentedReplication(FixedPredictor(within), alpha)
        res = simulate(trace, model, pol)
        res.log.verify_at_least_one_copy()

    @given(instances(), alphas)
    @settings(max_examples=60, deadline=None)
    def test_storage_matches_holdings_intervals(self, inst, alpha):
        trace, model = inst
        assume(len(trace) > 0)
        pol = LearningAugmentedReplication(OraclePredictor(trace), alpha)
        res = simulate(trace, model, pol)
        # independent reconstruction from the event log
        total = 0.0
        for server, ivs in res.log.holdings_intervals().items():
            for a, b in ivs:
                total += max(0.0, min(b, trace.span) - min(a, trace.span))
        assert res.storage_cost == pytest.approx(total, rel=1e-9, abs=1e-9)

    @given(instances(), alphas)
    @settings(max_examples=60, deadline=None)
    def test_every_request_served_exactly_once(self, inst, alpha):
        trace, model = inst
        pol = LearningAugmentedReplication(FixedPredictor(False), alpha)
        res = simulate(trace, model, pol)
        assert [s.request.index for s in res.serves] == [r.index for r in trace]

    @given(instances(), alphas)
    @settings(max_examples=60, deadline=None)
    def test_transfer_count_equals_non_local_serves(self, inst, alpha):
        trace, model = inst
        pol = LearningAugmentedReplication(FixedPredictor(True), alpha)
        res = simulate(trace, model, pol)
        assert res.ledger.n_transfers == sum(1 for s in res.serves if not s.local)


# ----------------------------------------------------------------------
# offline optimality properties
# ----------------------------------------------------------------------


class TestOfflineProperties:
    @given(instances(max_n=3, max_m=8))
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_brute_force(self, inst):
        trace, model = inst
        assert optimal_cost(trace, model) == pytest.approx(
            brute_force_optimal_cost(trace, model), rel=1e-9, abs=1e-9
        )

    @given(instances(), alphas, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_dp_lower_bounds_online(self, inst, alpha, seed):
        trace, model = inst
        pol = LearningAugmentedReplication(
            NoisyOraclePredictor(trace, 0.5, seed=seed), alpha
        )
        res = simulate(trace, model, pol)
        assert optimal_cost(trace, model) <= res.total_cost + 1e-7

    @given(instances(), st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_opt_lower_bound_below_optimal(self, inst, rate):
        trace, model = inst
        model = CostModel(lam=model.lam, n=model.n, storage_rates=(rate,) * model.n)
        assert opt_lower_bound(trace, model) <= optimal_cost(trace, model) + 1e-9

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_schedule_cost_matches(self, inst):
        trace, model = inst
        cost, decisions = optimal_schedule(trace, model)
        assert cost == optimal_cost(trace, model)
        assert len(decisions) == len(trace) + (1 if len(trace) else 0)

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_optimal_monotone_in_lambda(self, inst):
        # a higher transfer cost can never decrease the optimal cost
        trace, model = inst
        bigger = CostModel(lam=model.lam * 2, n=model.n)
        assert optimal_cost(trace, model) <= optimal_cost(trace, bigger) + 1e-9


# ----------------------------------------------------------------------
# competitive-bound properties
# ----------------------------------------------------------------------


class TestBoundProperties:
    @given(instances(), alphas)
    @settings(max_examples=50, deadline=None)
    def test_robustness_bound(self, inst, alpha):
        trace, model = inst
        pol = LearningAugmentedReplication(AdversarialPredictor(trace), alpha)
        res = simulate(trace, model, pol)
        opt = optimal_cost(trace, model)
        assert res.total_cost <= robustness_bound(alpha) * opt + 1e-7

    @given(instances(), alphas)
    @settings(max_examples=50, deadline=None)
    def test_consistency_bound(self, inst, alpha):
        trace, model = inst
        pol = LearningAugmentedReplication(OraclePredictor(trace), alpha)
        res = simulate(trace, model, pol)
        opt = optimal_cost(trace, model)
        assert res.total_cost <= consistency_bound(alpha) * opt + 1e-7

    @given(instances(), alphas, st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_allocation_identity(self, inst, alpha, seed):
        trace, model = inst
        pol = LearningAugmentedReplication(
            NoisyOraclePredictor(trace, 0.5, seed=seed), alpha
        )
        res = simulate(trace, model, pol)
        total = paper_total_cost(res)
        alloc = allocate_costs(res, pol.classifications)
        assert sum(alloc.values()) == pytest.approx(total, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# metrics / validation properties
# ----------------------------------------------------------------------


class TestInstrumentationProperties:
    @given(instances(), alphas)
    @settings(max_examples=50, deadline=None)
    def test_validator_accepts_algorithm1(self, inst, alpha):
        from repro.core.validate import validate_result

        trace, model = inst
        pol = LearningAugmentedReplication(FixedPredictor(False), alpha)
        res = simulate(trace, model, pol)
        report = validate_result(res)
        assert report.ok, report.violations

    @given(instances(), alphas)
    @settings(max_examples=50, deadline=None)
    def test_replica_timeline_integrates_to_storage(self, inst, alpha):
        from repro.analysis import replica_timeline

        trace, model = inst
        assume(len(trace) > 0 and model.uniform_storage)
        pol = LearningAugmentedReplication(OraclePredictor(trace), alpha)
        res = simulate(trace, model, pol)
        tl = replica_timeline(res)
        mean = tl.time_weighted_mean(trace.span)
        assert mean * trace.span == pytest.approx(
            res.storage_cost, rel=1e-9, abs=1e-6
        )

    @given(instances(), alphas)
    @settings(max_examples=40, deadline=None)
    def test_partition_sums_and_bounds(self, inst, alpha):
        from repro.analysis.partition import partition_report
        from repro.offline import optimal_cost as dp_opt

        trace, model = inst
        assume(len(trace) > 0)
        pol = LearningAugmentedReplication(OraclePredictor(trace), alpha)
        res = simulate(trace, model, pol)
        parts = partition_report(trace, model, res, pol.classifications)
        assert sum(p.opt for p in parts) == pytest.approx(
            dp_opt(trace, model), rel=1e-9, abs=1e-9
        )
        for p in parts:
            assert p.ratio <= consistency_bound(alpha) + 1e-7

    @given(instances(), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_randomized_policy_valid(self, inst, seed):
        from repro import RandomizedSkiRental
        from repro.core.validate import validate_result

        trace, model = inst
        res = simulate(trace, model, RandomizedSkiRental(seed=seed))
        assert validate_result(res).ok
        assert optimal_cost(trace, model) <= res.total_cost + 1e-7
