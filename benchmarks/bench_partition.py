"""Partition-level verification of the Section 5 analysis at scale.

Not a paper figure, but the paper's *proof structure*: every partition of
the request sequence (induced by the optimal strategy) must satisfy the
consistency bound with perfect predictions.  Running it on the full
evaluation workload (m = 11,688, each lambda of Figures 25-28, each alpha
of :data:`PARTITION_ALPHAS`) turns the proof into a measurement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostModel,
    LearningAugmentedReplication,
    OraclePredictor,
    optimal_cost,
    optimal_schedule,
    simulate,
)
from repro.analysis.partition import partition_report
from repro.analysis.theory import consistency_bound

from conftest import LAMBDAS, emit

#: the distrust levels checked at each lambda, from the near-trusting end
#: of Figures 25-28 to the conventional algorithm (alpha = 1)
PARTITION_ALPHAS = (0.1, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("alpha", PARTITION_ALPHAS)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_partition_bounds_at_scale(benchmark, paper_trace, lam, alpha):
    model = CostModel(lam=lam, n=paper_trace.n)
    pol = LearningAugmentedReplication(OraclePredictor(paper_trace), alpha)
    res = simulate(paper_trace, model, pol)
    parts = partition_report(paper_trace, model, res, pol.classifications)

    ratios = np.array([p.ratio for p in parts if p.opt > 0])
    bound = consistency_bound(alpha)
    assert ratios.max() <= bound + 1e-7
    # the partitions split the optimal strategy's cost without overlap
    assert sum(p.opt for p in parts) == pytest.approx(
        optimal_cost(paper_trace, model), rel=1e-9
    )
    emit(
        "Section 5 partition analysis (perfect predictions, "
        f"lambda={lam:g}, alpha={alpha:g})",
        "\n".join(
            [
                f"{len(parts)} partitions over {len(paper_trace)} requests",
                f"per-partition ratio: max {ratios.max():.4f}, "
                f"mean {ratios.mean():.4f}, median {np.median(ratios):.4f}",
                f"consistency bound (5+alpha)/3 = {bound:.4f} — "
                "holds for every partition",
            ]
        ),
    )

    benchmark(lambda: len(optimal_schedule(paper_trace, model)[1]))
