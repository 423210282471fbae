"""Engine scaling sweep: trace size x slab shape, per-cell wall clock.

Runs the kernel (plus the reference simulator at the smallest sizes)
through the slab dispatcher every layer above uses,
:func:`repro.core.engine.run_slab` with a forced ``engine=``, and
records two views of the kernel's multi-row passes:

* ``rows`` — a compact 12-cell Algorithm-1 slab (4 alphas, so 4
  passes) over growing IBM-like traces;
* ``wide_slab`` — the shape of one ``(trace, lambda)`` slab of
  ``bench_fleet.py``'s template fleet (64 requests on 8 servers, 804
  cells, 4 alphas), as one slab call (``slab``) and as one kernel call
  per cell (``cells``); ``slab_vs_cells_wide`` is the per-cell ratio;

one view of the row-chunk bound:

* ``row_chunk`` — the 121-cell fig25 grid (11 passes of 11 rows) at
  :data:`ROW_CHUNK_SIZES` requests, with the kernel's private
  ``_ROW_CHUNK_ELEMS`` set to each of :data:`ROW_CHUNK_BOUNDS`: the
  rows-per-pass bound its value is chosen from;

one view of the adapted algorithm (Figures 29-32):

* ``adaptive`` — the 9-cell coarse fig29 grid (alpha and accuracy at
  0, 0.5 and 1; the scenario's own policy factory and lambda) at
  :data:`REFERENCE_MAX_M` requests, on the reference simulator and the
  kernel;

and one view of the Wang et al. baseline:

* ``wang`` — single kernel cells on the :data:`WANG_SIZES`-request
  prefixes (the same sizes under ``--quick``) of the paper-size
  IBM-like trace on :data:`WANG_N` servers at lambda = 100,
  Wang against Algorithm 1 over a noisy oracle (alpha 0.5, accuracy
  0.7), timed :data:`WANG_REPEATS` times each; ``wang_vs_algorithm1``
  is the per-cell ratio at each size.

Every other timing is the min (``total_s``, ``per_cell_ms``) and median
(``median_s``) of :data:`REPEATS` runs of a serial slab (thread budget
1), and the report records the core count.  Per-cell costs are asserted
bit-identical across every engine and call shape in every view; the
reference simulator runs only up to :data:`REFERENCE_MAX_M` (it anchors
correctness, not throughput).

Standalone use (the CI smoke step runs this via ``repro bench``)::

    python benchmarks/bench_scaling.py [--out benchmarks/BENCH_scaling.json]
                                       [--sizes 128,512,2000,20000,200000]
                                       [--gate 2.0] [--strict]

The gate requires one slab call to beat one kernel call per cell, per
cell, on the wide slab by the given factor (default
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

#: the row_chunk view: trace sizes, and the pass bounds (prediction
#: matrix entries) swept at each
ROW_CHUNK_SIZES = (2_000, 11_688)
ROW_CHUNK_BOUNDS = (1 << 12, 1 << 14, 1 << 16, 1 << 18)

#: reference-tier ceiling: the event simulator only runs at sizes
#: at or below this (one cell of it costs more than a whole slab above)
REFERENCE_MAX_M = 2_000

#: the Wang view: trace prefix sizes (up to the paper's object size),
#: server count, lambda, Algorithm 1's comparison cell (alpha,
#: accuracy, seed — the seed also seeds the trace), and repeats —
#: single cells take milliseconds, so they need more samples
WANG_SIZES = (1_024, 4_096, 11_688)
WANG_N = 8
WANG_LAMBDA = 100.0
WANG_CELL = (0.5, 0.7, 3)
WANG_REPEATS = 20

#: slab-over-per-cell-calls gate on the wide slab, per cell
MIN_SPEEDUP = 2.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "slab_vs_cells_wide"

#: quick profile appended by `repro bench --quick` (the CI smoke step)
QUICK_ARGS = ["--sizes", "128,512,2000,20000,50000"]


def _cells(seeds=(SMOKE_SEED,)):
    return [
        (alpha, acc, seed)
        for seed in seeds
        for alpha in SCALE_ALPHAS
        for acc in SCALE_ACCURACIES
    ]


def _timed_row(label, trace, cells, repeats, run):
    """``run()`` timed ``repeats`` times; returns its report row and
    the ``(storage, transfer)`` costs of its last run."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        runs = run()
        samples.append(time.perf_counter() - t0)
    row = {
        "m": len(trace),
        "engine": label,
        "cells": len(cells),
        "total_s": min(samples),
        "median_s": statistics.median(samples),
        "per_cell_ms": min(samples) / len(cells) * 1e3,
    }
    return row, [(r.storage_cost, r.transfer_cost) for r in runs]


def _time_tiers(trace, model, cells, engines, repeats, factory=None):
    """One row per engine: ``run_slab`` over ``cells`` (policies from
    ``factory``, Algorithm 1's by default) timed ``repeats`` times,
    costs asserted bit-identical across engines."""
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.engine import run_slab

    factory = factory or algorithm1_factory
    rows, costs = [], None
    for name in engines:
        row, got = _timed_row(
            name, trace, cells, repeats,
            lambda: run_slab(trace, model, cells, factory, engine=name),
        )
        assert costs is None or got == costs, (
            f"cost mismatch: {name} at m={len(trace)}"
        )
        costs = got
        rows.append(row)
    return rows


def _wide_view(repeats) -> list[dict]:
    """The wide slab as one slab call and as one kernel call per cell
    (``run_slab`` over a lone cell, as the runner runs one), costs
    asserted equal."""
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import run_slab
    from repro.workloads import uniform_random_trace

    trace = uniform_random_trace(
        WIDE_N, WIDE_M, horizon=float(WIDE_M), seed=SMOKE_SEED
    )
    model = CostModel(lam=WIDE_LAMBDA, n=WIDE_N)
    cells = _cells(range(WIDE_SEEDS))
    slab, slab_costs = _timed_row(
        "slab", trace, cells, repeats,
        lambda: run_slab(trace, model, cells, algorithm1_factory, "kernel"),
    )
    per_cell, cell_costs = _timed_row(
        "cells", trace, cells, repeats,
        lambda: [
            run_slab(trace, model, [c], algorithm1_factory, "kernel")[0]
            for c in cells
        ],
    )
    assert slab_costs == cell_costs, "cost mismatch: wide slab vs cells"
    return [slab, per_cell]


def _row_chunk_view(repeats) -> list[dict]:
    """The fig25 grid per cell at each row-chunk bound, costs asserted
    equal across bounds."""
    import repro.core.engine as engine
    from repro.analysis.sweep import (
        PAPER_ACCURACIES,
        PAPER_ALPHAS,
        algorithm1_factory,
    )
    from repro.core.costs import CostModel
    from repro.workloads import ibm_like_trace

    cells = [(a, acc, SMOKE_SEED) for a in PAPER_ALPHAS for acc in PAPER_ACCURACIES]
    bound0 = engine._ROW_CHUNK_ELEMS
    rows = []
    try:
        for m in ROW_CHUNK_SIZES:
            trace = ibm_like_trace(n=SMOKE_N, m=m, seed=SMOKE_SEED)
            model = CostModel(lam=SCALE_LAMBDA, n=SMOKE_N)
            costs = None
            for bound in ROW_CHUNK_BOUNDS:
                engine._ROW_CHUNK_ELEMS = bound
                row, got = _timed_row(
                    "kernel", trace, cells, repeats,
                    lambda: engine.run_slab(
                        trace, model, cells, algorithm1_factory, "kernel"
                    ),
                )
                assert costs is None or got == costs, (
                    f"cost mismatch: row chunk {bound} at m={m}"
                )
                costs = got
                rows.append({**row, "row_chunk_elems": bound})
    finally:
        engine._ROW_CHUNK_ELEMS = bound0
    return rows


def _per_cell(rows, engine):
    return next(r["per_cell_ms"] for r in rows if r["engine"] == engine)


def _wang_factory(trace, lam, alpha, accuracy, seed):
    from repro import WangReplication

    return WangReplication()


def _wang_view(repeats=WANG_REPEATS) -> dict:
    """Single kernel cells, Wang against Algorithm 1 over a noisy
    oracle, each through ``run_slab`` as the runner runs a lone cell;
    costs asserted equal to the reference simulator's up to
    :data:`REFERENCE_MAX_M` requests."""
    from repro import Trace
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import run_slab
    from repro.workloads import ibm_like_trace

    full = ibm_like_trace(n=WANG_N, m=max(WANG_SIZES), seed=WANG_CELL[2])
    model = CostModel(lam=WANG_LAMBDA, n=WANG_N)
    cell = [WANG_CELL]
    rows, ratios = [], {}
    for m in WANG_SIZES:
        trace = Trace.from_arrays(full.times[:m], full.servers[:m], n=WANG_N)
        best = {}
        for policy, factory in (
            ("wang", _wang_factory), ("algorithm1", algorithm1_factory)
        ):
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run = run_slab(trace, model, cell, factory, engine="kernel")[0]
                samples.append(time.perf_counter() - t0)
            if m <= REFERENCE_MAX_M:
                ref = run_slab(trace, model, cell, factory, engine="reference")[0]
                assert (run.storage_cost, run.transfer_cost) == (
                    ref.storage_cost, ref.transfer_cost
                ), f"cost mismatch: {policy} kernel vs reference at m={m}"
            best[policy] = min(samples) * 1e3
            rows.append(
                {
                    "m": m,
                    "engine": "kernel",
                    "policy": policy,
                    "cells": 1,
                    "total_s": min(samples),
                    "median_s": statistics.median(samples),
                    "per_cell_ms": best[policy],
                }
            )
        ratios[str(m)] = best["wang"] / best["algorithm1"]
    return {
        "trace": {"workload": "ibm_like prefixes", "n": WANG_N,
                  "m": max(WANG_SIZES), "seed": WANG_CELL[2]},
        "lam": WANG_LAMBDA,
        "algorithm1_cell": {"alpha": WANG_CELL[0], "accuracy": WANG_CELL[1]},
        "repeats": repeats,
        "rows": rows,
        "wang_vs_algorithm1": ratios,
    }


def run_scaling_sweep(sizes=DEFAULT_SIZES, repeats=REPEATS) -> dict:
    """Sweep trace size x slab shape; returns the report dict."""
    from repro.core.backends import set_thread_budget
    from repro.core.costs import CostModel
    from repro.experiments import get_scenario
    from repro.workloads import ibm_like_trace

    prev = set_thread_budget(1)
    try:
        cells = _cells()
        rows = []
        for m in sizes:
            trace = ibm_like_trace(n=SMOKE_N, m=m, seed=SMOKE_SEED)
            model = CostModel(lam=SCALE_LAMBDA, n=trace.n)
            engines = ["kernel"]
            if m <= REFERENCE_MAX_M:
                engines.insert(0, "reference")
            rows += _time_tiers(trace, model, cells, engines, repeats)
        wide = _wide_view(repeats)
        row_chunk = _row_chunk_view(repeats)
        fig29 = get_scenario("fig29")
        coarse = (0.0, 0.5, 1.0)
        adaptive_trace = ibm_like_trace(
            n=SMOKE_N, m=REFERENCE_MAX_M, seed=SMOKE_SEED
        )
        adaptive = _time_tiers(
            adaptive_trace,
            CostModel(lam=fig29.lambdas[0], n=SMOKE_N),
            [(a, acc, fig29.seeds[0]) for a in coarse for acc in coarse],
            ["reference", "kernel"],
            repeats,
            fig29.policy_factory,
        )
        wang = _wang_view()
    finally:
        set_thread_budget(prev)
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
        "row_chunk": {
            "grid": "fig25 (11 alphas x 11 accuracies)",
            "trace": {"workload": "ibm_like", "n": SMOKE_N, "seed": SMOKE_SEED},
            "lam": SCALE_LAMBDA,
            "rows": row_chunk,
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
        "wang": wang,
        "slab_vs_cells_wide": _per_cell(wide, "cells") / _per_cell(wide, "slab"),
        "kernel_vs_reference_adaptive": (
            _per_cell(adaptive, "reference") / _per_cell(adaptive, "kernel")
        ),
    }


def format_rows(report: dict) -> str:
    lines = ["view          m     engine  cells     best   median    per-cell"]
    views = (
        ("slab", report["rows"]),
        ("wide", report["wide_slab"]["rows"]),
        ("chunk", report["row_chunk"]["rows"]),
        ("adapt", report["adaptive"]["rows"]),
        ("wang", report["wang"]["rows"]),
    )
    for view, rows in views:
        for r in rows:
            label = r.get("policy", r["engine"])
            if "row_chunk_elems" in r:
                label = f"2^{r['row_chunk_elems'].bit_length() - 1}"
            lines.append(
                f"{view:<6} {r['m']:>8d} {label:>10s} {r['cells']:>6d} "
                f"{r['total_s']:>7.3f}s {r['median_s']:>7.3f}s "
                f"{r['per_cell_ms']:>9.3f}ms"
            )
    return "\n".join(lines)


def test_engine_tier_scaling(benchmark):
    """Every engine and call shape agrees bit for bit; one slab call
    beats per-cell kernel calls on the wide slab."""
    from conftest import emit
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.costs import CostModel
    from repro.core.engine import run_slab
    from repro.workloads import ibm_like_trace

    report = run_scaling_sweep(sizes=(2_000, 20_000), repeats=1)
    emit("Engine scaling (size x slab shape, per-cell)", format_rows(report))
    assert report["slab_vs_cells_wide"] >= 1.0

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
    speedup = report["slab_vs_cells_wide"]
    wang = ", ".join(
        f"{m}: {r:.2f}x"
        for m, r in report["wang"]["wang_vs_algorithm1"].items()
    )
    print(
        f"wide m={WIDE_M} slab: one slab call {speedup:.2f}x over per-cell "
        f"kernel calls; adaptive fig29 grid at m={REFERENCE_MAX_M}: kernel "
        f"{report['kernel_vs_reference_adaptive']:.1f}x over reference; "
        f"Wang over Algorithm 1 per kernel cell ({wang}) -> {out}"
    )
    return gate_exit(
        speedup, gate, strict, label="slab-over-per-cell speedup"
    )


if __name__ == "__main__":
    sys.exit(main())
