"""Batch engine benchmark: per-cell fast replay vs one slab pass.

Runs the *fig25 smoke grid* — Algorithm 1 with noisy-oracle predictions
over the paper's full ``alpha x accuracy`` = 11 x 11 axes at
``lambda = 10`` on a 2000-request IBM-like trace — once per engine:
the PR 2 fast path replays the trace once per cell (121 scalar passes),
the batch engine replays it once for the whole slab.  Per-cell cost
equality between the engines is always asserted bit for bit; wall-clock
and speedup are recorded per lambda (the fig26-28 lambdas ride along as
secondary rows).

Standalone use (the CI smoke step)::

    python benchmarks/bench_batch.py [--out benchmarks/BENCH_batch.json]
                                     [--gate 1.0] [--strict]

writes ``BENCH_batch.json``:
``{"speedup": ..., "fast_s": ..., "batch_s": ..., "lambdas": [...]}``.
The wall-clock gate (default :data:`MIN_SPEEDUP`, override with
``--gate``) only fails the process under ``--strict`` — CI runs
``--gate 1.0 --strict`` (batch must beat fast even on a contended shared
runner), while the pytest entry point keeps the full gate for dedicated
perf runs.
"""

from __future__ import annotations

import os
import sys
import time

FIG25_LAMBDA = 10.0
SECONDARY_LAMBDAS = (100.0, 1000.0, 10000.0)
SMOKE_M = 2000
SMOKE_N = 10
SMOKE_SEED = 0

#: gate on the fig25 grid; locally measured speedups are ~3.2x
#: (see BENCH_batch.json), the gate leaves headroom for noisy runners
MIN_SPEEDUP = 3.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "speedup"


def _smoke_trace():
    from repro.workloads import ibm_like_trace

    return ibm_like_trace(n=SMOKE_N, m=SMOKE_M, seed=SMOKE_SEED)


def _grid_cells():
    from repro.analysis.sweep import PAPER_ACCURACIES, PAPER_ALPHAS

    return [
        (alpha, acc, SMOKE_SEED)
        for alpha in PAPER_ALPHAS
        for acc in PAPER_ACCURACIES
    ]


def run_batch_grid(trace=None, repeats: int = 3) -> dict:
    """Time fast-per-cell vs one batch slab per lambda; best of repeats.

    Each timed unit covers what the engines actually do per grid: the
    fast path builds one policy + prediction stream and replays the
    trace per cell; the batch path builds policies, one prediction
    matrix, and replays the trace once for the slab.
    """
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import BatchCostEngine, FastCostEngine, run_slab

    if trace is None:
        trace = _smoke_trace()
    cells = _grid_cells()
    fast = FastCostEngine()
    batch = BatchCostEngine()
    rows = []
    for lam in (FIG25_LAMBDA,) + SECONDARY_LAMBDAS:
        model = CostModel(lam=lam, n=trace.n)
        best_fast = best_batch = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fast_runs = [
                fast.run(
                    trace, model,
                    algorithm1_factory(trace, lam, alpha, acc, seed),
                )
                for alpha, acc, seed in cells
            ]
            best_fast = min(best_fast, time.perf_counter() - t0)

            t0 = time.perf_counter()
            batch_runs = run_slab(
                trace, model, cells, algorithm1_factory, engine=batch
            )
            best_batch = min(best_batch, time.perf_counter() - t0)

            for cell, f, b in zip(cells, fast_runs, batch_runs):
                assert b.storage_cost == f.storage_cost, (lam, cell)
                assert b.transfer_cost == f.transfer_cost, (lam, cell)
                assert b.n_transfers == f.n_transfers, (lam, cell)
        rows.append(
            {
                "lam": lam,
                "cells": len(cells),
                "fast_s": best_fast,
                "batch_s": best_batch,
                "speedup": best_fast / best_batch,
                "total_costs": [round(r.total_cost, 6) for r in batch_runs],
            }
        )
    fig25 = rows[0]
    return {
        "grid": "fig25-smoke",
        "trace": {"workload": "ibm_like", "n": SMOKE_N, "m": SMOKE_M,
                  "seed": SMOKE_SEED},
        "cells": fig25["cells"],
        "fast_s": fig25["fast_s"],
        "batch_s": fig25["batch_s"],
        "speedup": fig25["speedup"],
        "lambdas": rows,
    }


def test_batch_speedup(benchmark, paper_trace):
    """Batch engine: identical costs, >= MIN_SPEEDUP x on the fig25 grid."""
    from conftest import emit
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import BatchCostEngine, run_slab

    report = run_batch_grid()
    lines = [
        f"{r['lam']:>8g} {r['cells']:>5d} {r['fast_s'] * 1e3:>9.1f}ms "
        f"{r['batch_s'] * 1e3:>8.1f}ms {r['speedup']:>6.1f}x"
        for r in report["lambdas"]
    ]
    emit(
        "Batch engine (fast per-cell vs one slab pass, 11x11 grid)",
        "  lambda cells      fast    batch  speedup\n"
        + "\n".join(lines)
        + f"\nfig25: fast {report['fast_s']:.3f}s  batch "
        f"{report['batch_s']:.3f}s  speedup {report['speedup']:.1f}x",
    )
    assert report["speedup"] >= MIN_SPEEDUP

    # timed unit: the full 121-cell fig25 slab on the full-length trace
    model = CostModel(lam=FIG25_LAMBDA, n=paper_trace.n)
    batch = BatchCostEngine()
    cells = _grid_cells()
    benchmark(
        lambda: run_slab(
            paper_trace, model, cells, algorithm1_factory, engine=batch
        )
    )


def main(argv=None) -> int:
    from benchcli import gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_batch.json"),
        MIN_SPEEDUP,
    )
    report = run_batch_grid()
    write_report(report, out)
    print(
        f"fig25 smoke grid ({report['cells']} cells, m={SMOKE_M}): "
        f"fast {report['fast_s']:.3f}s, batch {report['batch_s']:.3f}s, "
        f"speedup {report['speedup']:.1f}x -> {out}"
    )
    return gate_exit(report["speedup"], gate, strict, label="speedup")


if __name__ == "__main__":
    sys.exit(main())
