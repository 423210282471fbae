"""Kernel engine benchmark: segment-scan replays vs the batch slab pass.

Runs the paper's *fig25 grid* — Algorithm 1 with noisy-oracle
predictions over the full ``alpha x accuracy`` = 11 x 11 axes at
``lambda = 10`` — on a long IBM-like trace (default one million
requests), once per engine tier: the batch engine walks the trace with
one vectorized Python-loop step per request for the whole slab, the
kernel engine evaluates each cell with pure array passes and no
per-request loop at all.  Per-cell cost equality between the tiers is
always asserted bit for bit (and spot-checked against the scalar fast
engine); wall-clock per cell and the kernel-over-batch speedup are
recorded.

Wang's baseline runs on the same trace through the kernel tier's
cascade factorisation vs the batch tier (whose Wang path *is* the
scalar ``_fast_wang`` heap replay), so ``wang_speedup`` measures the
cascade kernel directly against the heap loop it replaced — with
bit-identity against the fast engine asserted in-bench before the
number is recorded.

Standalone use (the CI smoke step runs this via ``repro bench``)::

    python benchmarks/bench_kernel.py [--out benchmarks/BENCH_kernel.json]
                                      [--requests 1000000]
                                      [--gate 5.0] [--strict]

writes ``BENCH_kernel.json``:
``{"speedup": ..., "batch_s": ..., "kernel_s": ..., "per_cell_batch_ms":
..., "per_cell_kernel_ms": ..., "wang_batch_s": ..., "wang_kernel_s":
..., "wang_speedup": ...}``.  The wall-clock gate (default
:data:`MIN_SPEEDUP`, override with ``--gate``) only fails the process
under ``--strict`` — CI runs the quick profile with ``--gate 1.0
--strict`` (the kernel must beat batch even on a contended shared
runner), while the recorded full-size run keeps the 5x bar.
"""

from __future__ import annotations

import os
import sys
import time

FIG25_LAMBDA = 10.0
FULL_M = 1_000_000
SMOKE_N = 10
SMOKE_SEED = 0

#: single-cell spot checks against the scalar fast engine (full-grid
#: fast replays would dominate the runtime at a million requests)
FAST_CHECK_CELLS = 5

#: gate at the recorded full size; locally measured speedups are ~5.2x
#: (see BENCH_kernel.json)
MIN_SPEEDUP = 5.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "speedup"

#: quick profile appended by `repro bench --quick` (the CI smoke step):
#: a short trace and the CI gate handled by the step's own --gate
QUICK_ARGS = ["--requests", "150000"]


def _grid_cells():
    from repro.analysis.sweep import PAPER_ACCURACIES, PAPER_ALPHAS

    return [
        (alpha, acc, SMOKE_SEED)
        for alpha in PAPER_ALPHAS
        for acc in PAPER_ACCURACIES
    ]


def run_kernel_grid(requests: int = FULL_M, repeats: int | None = None) -> dict:
    """Time one batch slab pass vs kernel segment-scan replays; best of
    ``repeats`` (default: 1 at full size, 2 below).

    Each timed unit covers what the engines actually do per grid:
    policy construction, prediction materialisation, and the replay —
    for the whole 121-cell fig25 slab.
    """
    from repro.algorithms.wang import WangReplication
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import (
        BatchCostEngine,
        FastCostEngine,
        KernelCostEngine,
        run_slab,
    )
    from repro.workloads import ibm_like_trace

    if repeats is None:
        repeats = 1 if requests >= 500_000 else 2
    trace = ibm_like_trace(n=SMOKE_N, m=requests, seed=SMOKE_SEED)
    cells = _grid_cells()
    model = CostModel(lam=FIG25_LAMBDA, n=trace.n)
    batch = BatchCostEngine()
    kernel = KernelCostEngine()
    fast = FastCostEngine()

    best_batch = best_kernel = float("inf")
    batch_runs = kernel_runs = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel_runs = run_slab(
            trace, model, cells, algorithm1_factory, engine=kernel
        )
        best_kernel = min(best_kernel, time.perf_counter() - t0)

        t0 = time.perf_counter()
        batch_runs = run_slab(
            trace, model, cells, algorithm1_factory, engine=batch
        )
        best_batch = min(best_batch, time.perf_counter() - t0)

    # bit-identity across the whole grid, plus scalar spot checks
    for cell, k, b in zip(cells, kernel_runs, batch_runs):
        assert k.storage_cost == b.storage_cost, cell
        assert k.transfer_cost == b.transfer_cost, cell
        assert k.n_transfers == b.n_transfers, cell
    step = max(1, len(cells) // FAST_CHECK_CELLS)
    for idx in range(0, len(cells), step):
        cell = cells[idx]
        f = fast.run(
            trace, model, algorithm1_factory(trace, FIG25_LAMBDA, *cell)
        )
        assert kernel_runs[idx].storage_cost == f.storage_cost, cell
        assert kernel_runs[idx].transfer_cost == f.transfer_cost, cell
        assert kernel_runs[idx].n_transfers == f.n_transfers, cell

    # Wang's baseline: cascade kernel vs the scalar heap replay (the
    # batch tier's Wang path is _fast_wang itself), identity vs the
    # fast engine asserted before the speedup is recorded
    best_wang_batch = best_wang_kernel = float("inf")
    wang_kernel_run = wang_batch_run = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        wang_kernel_run = kernel.run(trace, model, WangReplication())
        best_wang_kernel = min(best_wang_kernel, time.perf_counter() - t0)

        t0 = time.perf_counter()
        wang_batch_run = batch.run(trace, model, WangReplication())
        best_wang_batch = min(best_wang_batch, time.perf_counter() - t0)
    wang_fast_run = fast.run(trace, model, WangReplication())
    for label, other in (("batch", wang_batch_run), ("fast", wang_fast_run)):
        assert wang_kernel_run.storage_cost == other.storage_cost, label
        assert wang_kernel_run.transfer_cost == other.transfer_cost, label
        assert wang_kernel_run.n_transfers == other.n_transfers, label

    n_cells = len(cells)
    return {
        "grid": "fig25",
        "lam": FIG25_LAMBDA,
        "trace": {"workload": "ibm_like", "n": SMOKE_N, "m": requests,
                  "seed": SMOKE_SEED},
        "cells": n_cells,
        "batch_s": best_batch,
        "kernel_s": best_kernel,
        "per_cell_batch_ms": best_batch / n_cells * 1e3,
        "per_cell_kernel_ms": best_kernel / n_cells * 1e3,
        "speedup": best_batch / best_kernel,
        "wang_batch_s": best_wang_batch,
        "wang_kernel_s": best_wang_kernel,
        "wang_speedup": best_wang_batch / best_wang_kernel,
    }


def test_kernel_speedup(benchmark, paper_trace):
    """Kernel engine: identical costs, faster than batch per cell."""
    from conftest import emit
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import KernelCostEngine, run_slab

    report = run_kernel_grid(requests=100_000, repeats=2)
    emit(
        "Kernel engine (batch slab vs segment-scan replays, 11x11 grid)",
        f"m={report['trace']['m']}: batch {report['batch_s']:.2f}s "
        f"({report['per_cell_batch_ms']:.1f}ms/cell)  kernel "
        f"{report['kernel_s']:.2f}s ({report['per_cell_kernel_ms']:.1f}"
        f"ms/cell)  speedup {report['speedup']:.1f}x  wang cascade "
        f"{report['wang_speedup']:.1f}x over heap",
    )
    # the 5x bar is the full-size (1M) recorded number; at 100k the
    # kernel must still clearly win.  The Wang cascade's edge over the
    # scalar heap replay grows with trace length (~1.2x at 30k, ~3x at
    # 500k) because the chains build is a fixed cost — at 100k it only
    # has to be not-slower
    assert report["speedup"] >= 2.0
    assert report["wang_speedup"] >= 1.0

    # timed unit: the full fig25 slab on the paper-scale trace
    model = CostModel(lam=FIG25_LAMBDA, n=paper_trace.n)
    kernel = KernelCostEngine()
    cells = _grid_cells()
    benchmark(
        lambda: run_slab(
            paper_trace, model, cells, algorithm1_factory, engine=kernel
        )
    )


def main(argv=None) -> int:
    from benchcli import flag_value, gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_kernel.json"),
        MIN_SPEEDUP,
    )
    raw = flag_value(args, "--requests")
    requests = int(raw) if raw is not None else FULL_M
    report = run_kernel_grid(requests=requests)
    write_report(report, out)
    print(
        f"fig25 grid ({report['cells']} cells, m={requests}): "
        f"batch {report['batch_s']:.2f}s "
        f"({report['per_cell_batch_ms']:.1f}ms/cell), "
        f"kernel {report['kernel_s']:.2f}s "
        f"({report['per_cell_kernel_ms']:.1f}ms/cell), "
        f"speedup {report['speedup']:.2f}x; wang cascade "
        f"{report['wang_kernel_s']:.2f}s vs heap "
        f"{report['wang_batch_s']:.2f}s "
        f"({report['wang_speedup']:.2f}x) -> {out}"
    )
    return gate_exit(report["speedup"], gate, strict, label="speedup")


if __name__ == "__main__":
    sys.exit(main())
