"""Ablation benchmarks for Algorithm 1's design choices.

* **Hyper-parameter alpha** — the consistency/robustness dial: sweep
  alpha at fixed accuracies and verify the trade-off direction (smaller
  alpha helps with good predictions, hurts with bad ones).
* **Prediction-duration cap** — Algorithm 1 caps the "within" duration
  at ``lambda`` instead of holding to the predicted next request; the
  BlindFollowPredictions strawman ablates that cap and loses robustness.
* **Warm-up length** — the adaptive variant's monitor warm-up: too short
  risks premature fallback, too long delays protection.
* **Predictor choice** — oracle vs learned predictors on a structured
  workload (what a practitioner can actually deploy).
"""

from __future__ import annotations

import tempfile

import pytest

from repro import (
    AdaptiveReplication,
    BlindFollowPredictions,
    CostModel,
    FixedPredictor,
    LearningAugmentedReplication,
    OraclePredictor,
    SlidingWindowPredictor,
    optimal_cost,
    simulate,
)
from repro.experiments import ExperimentRunner, ResultCache
from repro.workloads import bursty_trace, robustness_tight_trace

from conftest import WORKERS, emit


def test_ablation_alpha_tradeoff(benchmark, paper_trace):
    model = CostModel(lam=1000.0, n=paper_trace.n)
    sweep = ExperimentRunner(workers=WORKERS).run(
        "ablation-alpha"
    ).sweep_result()
    lines = [
        "alpha ablation (lambda=1000): consistency/robustness dial",
        f"{'alpha':>6} {'acc=100%':>9} {'acc=50%':>8} {'acc=0%':>7}",
    ]
    grid = {}
    for alpha in (0.05, 0.2, 0.5, 1.0):
        row = [sweep.at(1000.0, alpha, acc).ratio for acc in (1.0, 0.5, 0.0)]
        grid[alpha] = row
        lines.append(
            f"{alpha:>6.2f} {row[0]:>9.3f} {row[1]:>8.3f} {row[2]:>7.3f}"
        )
    # direction of the trade-off: with perfect predictions, small alpha
    # is at least as good as alpha = 1; with 0% accuracy the ordering flips
    assert grid[0.05][0] <= grid[1.0][0] + 1e-9
    assert grid[0.05][2] >= grid[1.0][2] - 1e-9
    emit("Ablation: alpha trade-off", "\n".join(lines))
    benchmark(
        lambda: simulate(
            paper_trace,
            model,
            LearningAugmentedReplication(OraclePredictor(paper_trace), 0.2),
        ).total_cost
    )


def test_ablation_duration_cap(benchmark):
    """Removing the lambda cap on 'within' durations (BlindFollow) breaks
    robustness; Algorithm 1's cap keeps it bounded."""
    lam = 100.0
    # adversarial-for-blind workload: "within" predictions, sparse requests
    from repro import Trace

    items = [(float(k), (k % 5) + 1) for k in range(1, 6)]
    items.append((50_000.0, 1))
    tr = Trace(6, items)
    model = CostModel(lam=lam, n=6)
    opt = optimal_cost(tr, model)
    blind = simulate(tr, model, BlindFollowPredictions(FixedPredictor(True)))
    capped = simulate(
        tr, model, LearningAugmentedReplication(FixedPredictor(True), 0.2)
    )
    lines = [
        "duration-cap ablation (wrong 'within' predictions, 50k-s silence)",
        f"uncapped (BlindFollow): ratio {blind.total_cost / opt:8.3f}",
        f"Algorithm 1 (capped):   ratio {capped.total_cost / opt:8.3f}",
    ]
    assert blind.total_cost / opt > 4.0
    assert capped.total_cost / opt <= 1.0 + 1.0 / 0.2 + 1e-7
    emit("Ablation: lambda cap on within-durations", "\n".join(lines))
    benchmark(
        lambda: simulate(
            tr, model, LearningAugmentedReplication(FixedPredictor(True), 0.2)
        ).total_cost
    )


@pytest.mark.parametrize("warmup", [0, 100, 1000])
def test_ablation_adaptive_warmup(benchmark, warmup):
    lam, alpha, beta = 100.0, 0.2, 0.1
    tr = robustness_tight_trace(lam, alpha, m=2500, eps=lam * 1e-4)
    model = CostModel(lam=lam, n=2)
    opt = optimal_cost(tr, model)
    pol = AdaptiveReplication(FixedPredictor(False), alpha, beta=beta, warmup=warmup)
    ratio = simulate(tr, model, pol).total_cost / opt
    emit(
        f"Ablation: adaptive warm-up = {warmup}",
        f"adversarial instance ratio {ratio:.3f} "
        f"(target {2 + beta:g}; longer warm-up -> more pre-fallback damage)",
    )
    # even the longest warm-up here keeps the ratio far below 1 + 1/alpha = 6
    assert ratio <= 3.5
    benchmark(lambda: simulate(tr, model, AdaptiveReplication(
        FixedPredictor(False), alpha, beta=beta, warmup=warmup)).total_cost)


def test_ablation_predictor_choice(benchmark):
    tr = bursty_trace(
        n=8, n_bursts=150, burst_size=6, burst_spread=20.0, quiet_gap=1200.0, seed=31
    )
    lam = 300.0
    model = CostModel(lam=lam, n=8)
    lines = [
        "predictor ablation on bursty workload (alpha=0.25)",
        f"{'predictor':<22} {'ratio':>7}",
    ]
    # one session-local cache so the five scenarios (same trace, same
    # lambda) share a single offline-optimum computation
    runner = ExperimentRunner(
        workers=WORKERS, cache=ResultCache(tempfile.mkdtemp(prefix="repro-bench-"))
    )
    results = {}
    for name in ("oracle", "sliding-window", "markov", "ewma", "always-wrong"):
        outcome = runner.run(f"ablation-predictor-{name}")
        r = outcome.results[0].ratio
        results[name] = r
        lines.append(f"{name:<22} {r:>7.3f}")
    assert results["oracle"] <= results["always-wrong"]
    assert results["sliding-window"] <= results["always-wrong"] + 1e-9
    emit("Ablation: predictor choice", "\n".join(lines))
    benchmark(
        lambda: simulate(
            tr, model, LearningAugmentedReplication(SlidingWindowPredictor(5), 0.25)
        ).total_cost
    )
