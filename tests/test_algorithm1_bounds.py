"""Randomized verification of Algorithm 1's competitive guarantees.

Robustness ``1 + 1/alpha`` must hold for *any* predictions; consistency
``(5 + alpha)/3`` for perfect predictions.  These are exact inequalities
under the repo's accounting conventions (storage clipped to the final
request time for both the simulator and the offline optimum, see
:mod:`repro.core.simulator`), so any violation is a bug, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AdversarialPredictor,
    CostModel,
    LearningAugmentedReplication,
    NoisyOraclePredictor,
    OraclePredictor,
    optimal_cost,
    simulate,
)
from repro.analysis.theory import consistency_bound, robustness_bound
from repro.workloads import bursty_trace, uniform_random_trace

TOL = 1e-7


def _instances(seed, count, max_n=5, max_m=40):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, max_m + 1))
        lam = float(rng.uniform(0.1, 8.0))
        trace = uniform_random_trace(
            n, m, horizon=float(rng.uniform(1.0, 80.0)), seed=int(rng.integers(2**31))
        )
        yield trace, CostModel(lam=lam, n=n)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
class TestRobustness:
    def test_adversarial_predictions_random_traces(self, alpha):
        for trace, model in _instances(seed=hash(alpha) % 1000, count=25):
            policy = LearningAugmentedReplication(
                AdversarialPredictor(trace), alpha
            )
            run = simulate(trace, model, policy)
            opt = optimal_cost(trace, model)
            assert run.total_cost <= robustness_bound(alpha) * opt + TOL

    def test_noisy_predictions_random_traces(self, alpha):
        for trace, model in _instances(seed=42, count=15):
            policy = LearningAugmentedReplication(
                NoisyOraclePredictor(trace, accuracy=0.5, seed=3), alpha
            )
            run = simulate(trace, model, policy)
            opt = optimal_cost(trace, model)
            assert run.total_cost <= robustness_bound(alpha) * opt + TOL


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
class TestConsistency:
    def test_perfect_predictions_random_traces(self, alpha):
        for trace, model in _instances(seed=7, count=25):
            policy = LearningAugmentedReplication(OraclePredictor(trace), alpha)
            run = simulate(trace, model, policy)
            opt = optimal_cost(trace, model)
            assert run.total_cost <= consistency_bound(alpha) * opt + TOL

    def test_perfect_predictions_bursty(self, alpha):
        trace = bursty_trace(
            n=4, n_bursts=12, burst_size=5, burst_spread=2.0, quiet_gap=30.0, seed=5
        )
        model = CostModel(lam=5.0, n=4)
        policy = LearningAugmentedReplication(OraclePredictor(trace), alpha)
        run = simulate(trace, model, policy)
        opt = optimal_cost(trace, model)
        assert run.total_cost <= consistency_bound(alpha) * opt + TOL


class TestAlphaOneMatchesConventionalBound:
    def test_ratio_at_most_two(self):
        # alpha = 1 is the conventional online algorithm: 2-competitive
        for trace, model in _instances(seed=99, count=30):
            policy = LearningAugmentedReplication(
                AdversarialPredictor(trace), alpha=1.0
            )
            run = simulate(trace, model, policy)
            opt = optimal_cost(trace, model)
            assert run.total_cost <= 2.0 * opt + TOL


class TestOnlineNeverBeatsOptimal:
    def test_dp_lower_bounds_every_run(self):
        for trace, model in _instances(seed=123, count=30):
            policy = LearningAugmentedReplication(
                NoisyOraclePredictor(trace, 0.7, seed=1), alpha=0.4
            )
            run = simulate(trace, model, policy)
            opt = optimal_cost(trace, model)
            assert opt <= run.total_cost + TOL
