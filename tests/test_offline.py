"""Tests for the offline optimal solvers (DP, brute force, lower bound)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    Trace,
    brute_force_optimal_cost,
    optimal_cost,
    optimal_schedule,
)
from repro.analysis.partition import reconstruct_optimal_holdings
from repro.offline import opt_lower_bound
from repro.workloads import (
    consistency_tight_trace,
    ibm_like_trace,
    robustness_tight_trace,
    uniform_random_trace,
    wang_counterexample_trace,
)

from conftest import tie_prone_traces


class TestHandComputedOptima:
    def test_empty_trace_is_free(self):
        assert optimal_cost(Trace(2, []), CostModel(lam=1.0, n=2)) == 0.0

    def test_single_local_request(self):
        # copy sits at server 0 from t=0; serving r_1 at t=3 locally costs
        # 3 (storage)... or skip + bridge = lam + 3. Optimal: min(3, ...)
        tr = Trace(1, [(3.0, 0)])
        assert optimal_cost(tr, CostModel(lam=10.0, n=1)) == pytest.approx(3.0)

    def test_single_remote_request(self):
        # r_1 at server 1 at t=3: transfer lam + one copy stored (0,3)
        tr = Trace(2, [(3.0, 1)])
        assert optimal_cost(tr, CostModel(lam=10.0, n=2)) == pytest.approx(13.0)

    def test_local_request_far_away_uses_bridge(self):
        # r_1 at server 0 at t=50, lam=10: must keep >= one copy (0,50)
        # = 50 regardless; serving locally from it is free
        tr = Trace(1, [(50.0, 0)])
        assert optimal_cost(tr, CostModel(lam=10.0, n=1)) == pytest.approx(50.0)

    def test_dense_same_server_requests_kept(self):
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        assert optimal_cost(tr, CostModel(lam=10.0, n=1)) == pytest.approx(3.0)

    def test_two_servers_alternating_short_gaps(self):
        # both servers should hold copies throughout
        tr = Trace(2, [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)])
        model = CostModel(lam=10.0, n=2)
        # server 1 first request: lam + keep both: storage server0 (0,4)=4,
        # server1 (1,3)=2 ... exact: 10 + 4 + 2 = 16
        assert optimal_cost(tr, model) == pytest.approx(16.0)

    def test_paper_figure6_optimum(self):
        # one cycle: optimal = 3*lam + 2*eps
        lam, eps = 10.0, 1e-3
        tr = consistency_tight_trace(lam, cycles=1, eps=eps)
        assert optimal_cost(tr, CostModel(lam=lam, n=2)) == pytest.approx(
            3 * lam + 2 * eps
        )

    def test_paper_figure5_optimum(self):
        # optimal = (m-1)(alpha lam + eps) + lam
        lam, alpha, m, eps = 10.0, 0.5, 21, 1e-3
        tr = robustness_tight_trace(lam, alpha, m, eps=eps)
        expected = (m - 1) * (alpha * lam + eps) + lam
        assert optimal_cost(tr, CostModel(lam=lam, n=2)) == pytest.approx(
            expected, rel=1e-9
        )

    def test_paper_figure9_optimum(self):
        # our generator's m counts server-1 requests (the paper's
        # r_2..r_m plus r_2 itself starts the chain), so the paper's
        # (m-2) cycles become (m-1) here
        lam, m, eps = 10.0, 50, 1e-3
        tr = wang_counterexample_trace(lam, m=m, eps=eps)
        expected = (m - 1) * (2 * lam + eps) + lam + eps
        assert optimal_cost(tr, CostModel(lam=lam, n=2)) == pytest.approx(
            expected, rel=1e-9
        )


class TestDPAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            lam = float(rng.uniform(0.1, 5.0))
            tr = uniform_random_trace(
                n, m, horizon=float(rng.uniform(1, 20)), seed=int(rng.integers(2**31))
            )
            model = CostModel(lam=lam, n=n)
            assert optimal_cost(tr, model) == pytest.approx(
                brute_force_optimal_cost(tr, model), rel=1e-9, abs=1e-9
            )

    def test_extreme_lambda_small(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            tr = uniform_random_trace(3, 7, horizon=10.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=1e-3, n=3)
            assert optimal_cost(tr, model) == pytest.approx(
                brute_force_optimal_cost(tr, model), rel=1e-9, abs=1e-9
            )

    def test_extreme_lambda_large(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            tr = uniform_random_trace(3, 7, horizon=10.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=1e3, n=3)
            assert optimal_cost(tr, model) == pytest.approx(
                brute_force_optimal_cost(tr, model), rel=1e-9, abs=1e-9
            )


class TestBruteForceGuards:
    def test_too_many_requests(self):
        tr = uniform_random_trace(2, 20, horizon=10.0, seed=0)
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal_cost(tr, CostModel(lam=1.0, n=2))

    def test_too_many_servers(self):
        tr = uniform_random_trace(6, 5, horizon=10.0, seed=0)
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal_cost(tr, CostModel(lam=1.0, n=6))

    def test_non_uniform_rates_supported(self):
        tr = Trace(2, [(1.0, 1), (2.0, 1)])
        model = CostModel(lam=5.0, n=2, storage_rates=(1.0, 3.0))
        cost = brute_force_optimal_cost(tr, model)
        # serve r1 by transfer (5) then: keep at server1 rate 3 for 1s (3)
        # + keep server0 (0,1) rate 1 (1) then drop server0... storage
        # server0 must cover (0,1): 1. Total 5 + 1 + min(3, 5+...)=3 -> 9
        assert cost == pytest.approx(9.0)

    def test_dp_rejects_non_uniform(self):
        tr = Trace(2, [(1.0, 1)])
        model = CostModel(lam=5.0, n=2, storage_rates=(1.0, 3.0))
        with pytest.raises(ValueError, match="uniform"):
            optimal_cost(tr, model)


class TestOptimalSchedule:
    def test_cost_matches_optimal_cost(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 25))
            tr = uniform_random_trace(n, m, 30.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=2.0, n=n)
            cost, decisions = optimal_schedule(tr, model)
            assert cost == optimal_cost(tr, model)  # one walk, same bits
            assert len(decisions) == m + 1  # includes the dummy r_0

    def test_decisions_indexed_in_order(self):
        tr = uniform_random_trace(2, 10, 20.0, seed=3)
        _, decisions = optimal_schedule(tr, CostModel(lam=2.0, n=2))
        assert [d.request_index for d in decisions] == list(range(0, 11))

    def test_dense_trace_keeps(self):
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        _, decisions = optimal_schedule(tr, CostModel(lam=10.0, n=1))
        # gaps of 1 << lam: keeping is optimal for all but the last
        assert decisions[0].keep  # r_0: the initial copy serves r_1
        assert decisions[1].keep and decisions[2].keep
        assert not decisions[3].keep  # no next local request

    def test_empty_trace(self):
        cost, decisions = optimal_schedule(Trace(2, []), CostModel(lam=1.0, n=2))
        assert cost == 0.0 and decisions == []

    def test_ties_break_toward_keep(self):
        # keeping r_1's copy at server 1 until r_2 costs 1 = lam, a tie;
        # the schedule keeps it (skipping would flip r_1 only)
        tr = Trace(2, [(3.0, 1), (4.0, 1), (5.0, 0), (6.0, 0)])
        cost, decisions = optimal_schedule(tr, CostModel(lam=1.0, n=2))
        assert cost == 8.0
        assert [d.keep for d in decisions] == [True, True, False, True, False]
        assert not any(d.bridged for d in decisions)

    @given(tie_prone_traces(), st.integers(1, 6), st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=150, deadline=None)
    def test_tie_prone_schedule_realises_optimum(self, trace, lam, rate):
        model = CostModel(lam=float(lam), n=trace.n, storage_rates=(rate,) * trace.n)
        cost, decisions = optimal_schedule(trace, model)
        assert cost == optimal_cost(trace, model)
        assert len(decisions) == (len(trace) + 1 if len(trace) else 0)
        # the decisions, laid out as storage intervals and transfers,
        # cost what the walk says
        h = reconstruct_optimal_holdings(trace, model)
        storage = sum((b - a) * rate for ivs in h.intervals.values() for a, b in ivs)
        assert storage + model.lam * len(h.transfers) == pytest.approx(cost, rel=1e-9)

    def test_paper_size_schedule(self):
        tr = ibm_like_trace(n=10, m=11688, seed=0)
        model = CostModel(lam=1000.0, n=10)
        cost, decisions = optimal_schedule(tr, model)
        assert len(decisions) == 11689
        assert cost == optimal_cost(tr, model)


class TestOptLowerBound:
    def test_never_exceeds_optimal(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 40))
            lam = float(rng.uniform(0.1, 8.0))
            tr = uniform_random_trace(n, m, 50.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=lam, n=n)
            assert opt_lower_bound(tr, model) <= optimal_cost(tr, model) + 1e-9

    def test_tight_on_dense_single_server(self):
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        model = CostModel(lam=10.0, n=1)
        assert opt_lower_bound(tr, model) == pytest.approx(3.0)
        assert optimal_cost(tr, model) == pytest.approx(3.0)

    def test_positive_for_nonempty_traces(self):
        tr = Trace(2, [(1.0, 1)])
        assert opt_lower_bound(tr, CostModel(lam=5.0, n=2)) > 0

    def test_model_mismatch_rejected(self):
        tr = Trace(2, [(1.0, 1)])
        with pytest.raises(ValueError):
            opt_lower_bound(tr, CostModel(lam=5.0, n=3))

    def test_scales_with_storage_rate(self):
        # at rate 0.5 keeping the copy across the three unit gaps costs 1.5
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        model = CostModel(lam=10.0, n=1, storage_rates=(0.5,))
        assert brute_force_optimal_cost(tr, model) == pytest.approx(1.5)
        assert optimal_cost(tr, model) == pytest.approx(1.5)
        assert opt_lower_bound(tr, model) == pytest.approx(1.5)

    def test_non_uniform_rates_rejected(self):
        # charging raw gaps here would give 12.0 against an optimum of 11.2
        tr = Trace(2, [(1.0, 1), (2.0, 1), (3.0, 1)])
        model = CostModel(lam=10.0, n=2, storage_rates=(1.0, 0.1))
        assert brute_force_optimal_cost(tr, model) == pytest.approx(11.2)
        with pytest.raises(ValueError, match="uniform"):
            opt_lower_bound(tr, model)
