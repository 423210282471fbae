"""Engine-tier scaling sweep: trace size x engine, per-cell wall clock.

Runs the cost-only tiers (plus the reference simulator at the smallest
sizes) through the slab dispatcher every layer above uses,
:func:`repro.core.engine.run_slab` with a forced ``engine=``, and
records two views of the ``auto`` slab crossover:

* ``rows`` — a compact 12-cell Algorithm-1 slab over growing IBM-like
  traces, on both sides of :data:`repro.core.engine.KERNEL_SLAB_MIN_M`;
* ``wide_slab`` — the shape of one ``(trace, lambda)`` slab of
  ``bench_fleet.py``'s template fleet (64 requests on 8 servers, about
  800 cells), the short-and-wide corner the batch tier is kept for;

and one view of the adapted algorithm (Figures 29-32):

* ``adaptive`` — the 9-cell coarse fig29 grid (alpha and accuracy at
  0, 0.5 and 1; the scenario's own policy factory and lambda) at
  :data:`REFERENCE_MAX_M` requests, on the reference simulator and both
  cost-only tiers.

Every timing is the min (``total_s``, ``per_cell_ms``) and median
(``median_s``) of :data:`REPEATS` runs, and the report records the core
count.  Per-cell costs are asserted bit-identical across every tier in
every view; the reference simulator runs only up to
:data:`REFERENCE_MAX_M` (it anchors correctness, not throughput).

Standalone use (the CI smoke step runs this via ``repro bench``)::

    python benchmarks/bench_scaling.py [--out benchmarks/BENCH_scaling.json]
                                       [--sizes 128,512,2000,20000,200000]
                                       [--gate 2.0] [--strict]

The gate requires the kernel tier to beat the batch tier per cell on
the 12-cell slab at the largest size by the given factor (default
:data:`MIN_SPEEDUP`); it only fails the process under ``--strict`` — CI
runs ``--gate 1.0 --strict``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

try:
    import pytest
except ImportError:  # pragma: no cover - `repro bench` without test deps
    pytest = None

SCALE_LAMBDA = 10.0
SMOKE_N = 10
SMOKE_SEED = 0
#: KERNEL_SLAB_MIN_M (1024) falls between the second and third sizes
DEFAULT_SIZES = (128, 512, 2_000, 20_000, 200_000)
REPEATS = 3

#: the compact grid: enough cells to amortise slab passes, small enough
#: that per-cell tiers stay affordable at every size
SCALE_ALPHAS = (0.2, 0.5, 0.8, 1.0)
SCALE_ACCURACIES = (0.0, 0.6, 1.0)

#: one (trace, lambda) slab of bench_fleet.py's template fleet: 64
#: requests on 8 servers; 67 seeds of the 12-cell grid give 804 cells,
#: about the ~830 objects per slab of its 20k-object quick fleet
WIDE_M = 64
WIDE_N = 8
WIDE_SEEDS = 67
WIDE_LAMBDA = 50.0

#: reference-tier ceiling: the event simulator only runs at sizes
#: at or below this (one cell of it costs more than a whole slab above)
REFERENCE_MAX_M = 2_000

#: kernel-over-batch per-cell gate at the largest swept size; recorded
#: in BENCH_scaling.json (narrow 12-cell slabs amortise the batch
#: engine's shared trace pass poorly — on the full 121-cell fig25 grid
#: the same comparison is ~5x, see BENCH_kernel.json)
MIN_SPEEDUP = 2.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "kernel_vs_batch_at_largest"

#: quick profile appended by `repro bench --quick` (the CI smoke step)
QUICK_ARGS = ["--sizes", "128,512,2000,20000,50000"]


def _cells(seeds=(SMOKE_SEED,)):
    return [
        (alpha, acc, seed)
        for seed in seeds
        for alpha in SCALE_ALPHAS
        for acc in SCALE_ACCURACIES
    ]


def _time_tiers(trace, model, cells, engines, repeats, factory=None):
    """One row per engine tier: ``run_slab`` over ``cells`` (policies
    from ``factory``, Algorithm 1's by default) timed ``repeats`` times,
    costs asserted bit-identical across tiers."""
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.engine import run_slab

    factory = factory or algorithm1_factory
    rows, costs = [], None
    for name in engines:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            runs = run_slab(trace, model, cells, factory, engine=name)
            samples.append(time.perf_counter() - t0)
        got = [(r.storage_cost, r.transfer_cost) for r in runs]
        if costs is None:
            costs = got
        else:
            assert got == costs, f"cost mismatch: {name} at m={len(trace)}"
        rows.append(
            {
                "m": len(trace),
                "engine": name,
                "cells": len(cells),
                "total_s": min(samples),
                "median_s": statistics.median(samples),
                "per_cell_ms": min(samples) / len(cells) * 1e3,
            }
        )
    return rows


def _per_cell(rows, engine):
    return next(r["per_cell_ms"] for r in rows if r["engine"] == engine)


def run_scaling_sweep(sizes=DEFAULT_SIZES, repeats=REPEATS) -> dict:
    """Sweep trace size x engine tier; returns the report dict."""
    from repro.core.costs import CostModel
    from repro.experiments import get_scenario
    from repro.workloads import ibm_like_trace, uniform_random_trace

    cells = _cells()
    rows = []
    for m in sizes:
        trace = ibm_like_trace(n=SMOKE_N, m=m, seed=SMOKE_SEED)
        model = CostModel(lam=SCALE_LAMBDA, n=trace.n)
        engines = ["batch", "kernel"]
        if m <= REFERENCE_MAX_M:
            engines.insert(0, "reference")
        rows += _time_tiers(trace, model, cells, engines, repeats)
    wide_trace = uniform_random_trace(
        WIDE_N, WIDE_M, horizon=float(WIDE_M), seed=SMOKE_SEED
    )
    wide = _time_tiers(
        wide_trace,
        CostModel(lam=WIDE_LAMBDA, n=WIDE_N),
        _cells(range(WIDE_SEEDS)),
        ["batch", "kernel"],
        repeats,
    )
    fig29 = get_scenario("fig29")
    coarse = (0.0, 0.5, 1.0)
    adaptive_trace = ibm_like_trace(n=SMOKE_N, m=REFERENCE_MAX_M, seed=SMOKE_SEED)
    adaptive = _time_tiers(
        adaptive_trace,
        CostModel(lam=fig29.lambdas[0], n=SMOKE_N),
        [(a, acc, fig29.seeds[0]) for a in coarse for acc in coarse],
        ["reference", "batch", "kernel"],
        repeats,
        fig29.policy_factory,
    )
    top = [r for r in rows if r["m"] == max(sizes)]
    return {
        "grid": {
            "lam": SCALE_LAMBDA,
            "alphas": SCALE_ALPHAS,
            "accuracies": SCALE_ACCURACIES,
        },
        "trace": {"workload": "ibm_like", "n": SMOKE_N, "seed": SMOKE_SEED},
        "sizes": list(sizes),
        "cpu_count": os.cpu_count() or 1,
        "repeats": repeats,
        "rows": rows,
        "wide_slab": {
            "trace": {"workload": "uniform_random", "n": WIDE_N, "m": WIDE_M,
                      "seed": SMOKE_SEED},
            "lam": WIDE_LAMBDA,
            "rows": wide,
        },
        "adaptive": {
            "scenario": "fig29",
            "alphas": coarse,
            "accuracies": coarse,
            "trace": {"workload": "ibm_like", "n": SMOKE_N,
                      "m": REFERENCE_MAX_M, "seed": SMOKE_SEED},
            "lam": fig29.lambdas[0],
            "rows": adaptive,
        },
        "kernel_vs_batch_at_largest": _per_cell(top, "batch") / _per_cell(top, "kernel"),
        "batch_vs_kernel_wide": _per_cell(wide, "kernel") / _per_cell(wide, "batch"),
        "kernel_vs_reference_adaptive": (
            _per_cell(adaptive, "reference") / _per_cell(adaptive, "kernel")
        ),
    }


def format_rows(report: dict) -> str:
    lines = ["view          m     engine  cells     best   median    per-cell"]
    views = (
        ("slab", report["rows"]),
        ("wide", report["wide_slab"]["rows"]),
        ("adapt", report["adaptive"]["rows"]),
    )
    for view, rows in views:
        for r in rows:
            lines.append(
                f"{view:<6} {r['m']:>8d} {r['engine']:>10s} {r['cells']:>6d} "
                f"{r['total_s']:>7.3f}s {r['median_s']:>7.3f}s "
                f"{r['per_cell_ms']:>9.3f}ms"
            )
    return "\n".join(lines)


def test_engine_tier_scaling(benchmark):
    """Every tier agrees bit for bit; kernel wins per cell at scale."""
    from conftest import emit
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import run_slab
    from repro.workloads import ibm_like_trace

    report = run_scaling_sweep(sizes=(2_000, 20_000), repeats=1)
    emit("Engine tier scaling (size x tier, per-cell)", format_rows(report))
    assert report["kernel_vs_batch_at_largest"] >= 1.0

    trace = ibm_like_trace(n=SMOKE_N, m=20_000, seed=SMOKE_SEED)
    model = CostModel(lam=SCALE_LAMBDA, n=trace.n)
    cells = _cells()
    benchmark(
        lambda: run_slab(trace, model, cells, algorithm1_factory, engine="kernel")
    )


if pytest is not None:
    @pytest.mark.parametrize("m", [1_000, 10_000, 40_000])
    def test_offline_dp_scaling(benchmark, m):
        """The offline DP stays near-linear at growing trace sizes
        (carried over from the pre-registry version of this file)."""
        from repro import CostModel, optimal_cost
        from repro.workloads import poisson_trace

        trace = poisson_trace(n=10, rate=1.0, horizon=float(m), seed=2)
        model = CostModel(lam=50.0, n=10)
        result = benchmark(lambda: optimal_cost(trace, model))
        assert result > 0


def test_end_to_end_ratio_paper_scale(benchmark, paper_trace):
    """One complete experiment cell at the paper's full trace size keeps
    the 2-competitive bound (carried over from the pre-registry
    version of this file); the cell runs on the kernel tier."""
    from repro import (
        CostModel,
        KernelCostEngine,
        LearningAugmentedReplication,
        OraclePredictor,
        optimal_cost,
    )

    model = CostModel(lam=1000.0, n=paper_trace.n)
    opt = optimal_cost(paper_trace, model)
    kernel = KernelCostEngine()

    def unit():
        pol = LearningAugmentedReplication(OraclePredictor(paper_trace), 0.2)
        return kernel.run(paper_trace, model, pol).total_cost / opt

    ratio = benchmark(unit)
    assert 1.0 <= ratio <= 2.0


def main(argv=None) -> int:
    from benchcli import flag_value, gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_scaling.json"),
        MIN_SPEEDUP,
    )
    raw = flag_value(args, "--sizes")
    sizes = (
        tuple(int(s) for s in raw.split(",")) if raw is not None
        else DEFAULT_SIZES
    )
    report = run_scaling_sweep(sizes=sizes)
    write_report(report, out)
    print(format_rows(report))
    speedup = report["kernel_vs_batch_at_largest"]
    print(
        f"kernel vs batch per-cell at m={max(sizes)}: {speedup:.2f}x; wide "
        f"m={WIDE_M} slab: batch {report['batch_vs_kernel_wide']:.2f}x "
        f"over kernel; adaptive fig29 grid at m={REFERENCE_MAX_M}: kernel "
        f"{report['kernel_vs_reference_adaptive']:.1f}x over reference -> {out}"
    )
    return gate_exit(
        speedup, gate, strict, label="kernel-over-batch speedup"
    )


if __name__ == "__main__":
    sys.exit(main())
