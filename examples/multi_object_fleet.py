#!/usr/bin/env python3
"""Fleet scenario: replicating many objects with heterogeneous sizes.

A storage service hosts many objects; each object's transfer cost scales
with its size, and each has its own access pattern (hot/warm/cold).  The
paper's footnote justifies per-object decomposition; this example runs
the whole fleet through :class:`repro.system.MultiObjectSystem` with a
weighted-majority ensemble of learned predictors per object, and reports
per-object and fleet-level competitive ratios.

Run:  python examples/multi_object_fleet.py [--engine auto|reference]

The learned ensembles observe requests one at a time, so they are never
streamable and ``auto`` falls back to the reference engine per object.
(The strict ``kernel`` engine would refuse them outright; it becomes
useful when you swap in oracle/noisy/fixed predictors and want
cost-only fleets.)
"""

import argparse

import numpy as np

from repro import LearningAugmentedReplication
from repro.predictions import (
    EwmaPredictor,
    LastGapPredictor,
    SlidingWindowPredictor,
    WeightedMajorityPredictor,
)
from repro.system import MultiObjectSystem, ObjectSpec
from repro.workloads import bursty_trace, poisson_trace


def ensemble_factory(alpha: float):
    """A fresh learned-predictor ensemble per object (no state leaks)."""

    def factory(trace, model):
        ensemble = WeightedMajorityPredictor(
            [EwmaPredictor(decay=0.4), LastGapPredictor(), SlidingWindowPredictor(5)],
            eta=0.3,
        )
        return LearningAugmentedReplication(ensemble, alpha)

    return factory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine", choices=("auto", "reference"), default="reference",
        help="simulation engine for per-object runs (default: reference, "
        "which keeps full telemetry in the report; the ensembles here "
        "are not streamable, so the strict kernel engine would refuse "
        "them)",
    )
    args = parser.parse_args()

    n = 10
    rng = np.random.default_rng(7)
    specs = []

    # hot objects: frequent bursty access, small size (cheap transfers)
    for k in range(4):
        trace = bursty_trace(
            n=n,
            n_bursts=120,
            burst_size=6,
            burst_spread=20.0,
            quiet_gap=600.0,
            seed=100 + k,
        )
        specs.append(
            ObjectSpec(f"hot-{k}", trace, lam=60.0, policy_factory=ensemble_factory(0.25))
        )

    # warm objects: steady Poisson access, medium size
    for k in range(3):
        trace = poisson_trace(n=n, rate=0.004, horizon=200_000.0, seed=200 + k)
        specs.append(
            ObjectSpec(f"warm-{k}", trace, lam=800.0, policy_factory=ensemble_factory(0.25))
        )

    # cold objects: rare access, large size (expensive transfers)
    for k in range(3):
        trace = poisson_trace(n=n, rate=0.0004, horizon=200_000.0, seed=300 + k)
        specs.append(
            ObjectSpec(f"cold-{k}", trace, lam=5_000.0, policy_factory=ensemble_factory(0.25))
        )

    system = MultiObjectSystem(n, specs)
    report = system.run(engine=args.engine)
    print(report.summary_table())
    print(
        f"\nfleet-level ratio {report.fleet_ratio:.3f}; worst object "
        f"{report.worst_object_ratio:.3f}"
    )
    print(
        "per-object guarantees compose: the fleet ratio is a cost-weighted "
        "average of per-object ratios, so no object class can silently "
        "subsidise another."
    )


if __name__ == "__main__":
    main()
