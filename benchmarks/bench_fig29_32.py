"""Figures 29-32: the adapted Algorithm 1 with robustness target 2+beta.

Grid: lambda in {1000, 10000} x beta in {0.1, 1}, following Appendix J
(the lambda in {10, 100} cases coincide with the original algorithm and
are covered by Figures 25-26).  Following the paper, the first 100
requests run the original Algorithm 1 as warm-up.

Both grids resolve through the experiment registry (``fig29`` ..
``fig32`` for the adapted algorithm, ``fig27`` / ``fig28`` for the plain
baseline at the same lambda) and run through the parallel
:class:`ExperimentRunner`, scaled down to the bench axes.

Asserted shape: the adapted algorithm's ratio never exceeds the target
``2 + beta`` by more than the warm-up contribution, and wherever plain
Algorithm 1 already respected the target the two coincide closely.
"""

from __future__ import annotations

import pytest

from repro import AdaptiveReplication, CostModel, simulate
from repro.analysis.sweep import accuracy_predictor
from repro.analysis.theory import adaptive_robustness_bound
from repro.experiments import ExperimentRunner, get_scenario

from conftest import WORKERS, emit

ALPHAS = (0.0, 0.2, 0.5, 1.0)
ACCURACIES = (0.0, 0.5, 1.0)
_GRIDS: dict[str, object] = {}
_PLAIN_SCENARIO = {1000.0: "fig27", 10000.0: "fig28"}


def _grid(name):
    if name not in _GRIDS:
        scenario = get_scenario(name).with_grid(
            alphas=ALPHAS, accuracies=ACCURACIES
        )
        _GRIDS[name] = ExperimentRunner(workers=WORKERS).run(
            scenario
        ).sweep_result()
    return _GRIDS[name]


@pytest.mark.parametrize(
    "figure,lam,beta",
    [
        ("Figure 29", 1000.0, 0.1),
        ("Figure 30", 10000.0, 0.1),
        ("Figure 31", 1000.0, 1.0),
        ("Figure 32", 10000.0, 1.0),
    ],
)
def test_fig29_32_adaptive(benchmark, paper_trace, figure, lam, beta):
    adaptive_name = {
        (1000.0, 0.1): "fig29",
        (10000.0, 0.1): "fig30",
        (1000.0, 1.0): "fig31",
        (10000.0, 1.0): "fig32",
    }[(lam, beta)]
    plain_grid = _grid(_PLAIN_SCENARIO[lam])
    adaptive_grid = _grid(adaptive_name)
    target = adaptive_robustness_bound(beta)

    lines = [
        f"{figure}: lambda = {lam:g}, beta = {beta:g}, target ratio <= {target:g}",
        f"{'alpha':>6} {'acc':>5} {'plain':>8} {'adaptive':>9}",
    ]
    worst = 0.0
    for alpha in ALPHAS:
        for acc in ACCURACIES:
            plain = plain_grid.at(lam, alpha, acc).ratio
            adaptive = adaptive_grid.at(lam, alpha, acc).ratio
            worst = max(worst, adaptive)
            lines.append(
                f"{alpha:>6.1f} {acc:>5.0%} {plain:>8.3f} {adaptive:>9.3f}"
            )
            # the paper's claim: the adapted algorithm prevents the ratio
            # from growing beyond the target (modulo warm-up prefix)
            assert adaptive <= target * 1.25 + 0.05, (figure, alpha, acc)
            # and it never does worse than plain when plain is in budget
            if plain <= target:
                assert adaptive <= max(plain * 1.1, target * 1.05)
    lines.append(f"worst adaptive ratio: {worst:.3f} (target {target:g})")
    # the registry grid reports costs only; re-run the most adversarial
    # cell (small alpha, 0% accuracy) directly to keep the monitor's
    # forced-fallback fraction observable in the emitted results
    probe = AdaptiveReplication(
        accuracy_predictor(paper_trace, 0.0, 0), 0.2, beta=beta, warmup=100
    )
    model = CostModel(lam=lam, n=paper_trace.n)
    simulate(paper_trace, model, probe)
    forced = sum(1 for (_, _, f) in probe.monitor_history if f) / max(
        1, len(probe.monitor_history)
    )
    lines.append(
        f"monitor forced-fallback fraction at (alpha=0.2, acc=0%): {forced:.1%}"
    )
    emit(figure, "\n".join(lines))

    def unit():
        pol = AdaptiveReplication(
            accuracy_predictor(paper_trace, 0.5, 0), 0.2, beta=beta, warmup=100
        )
        return simulate(paper_trace, model, pol).total_cost

    benchmark(unit)
