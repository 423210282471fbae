"""Kernel execution benchmark: serial vs thread-parallel slabs.

Runs the paper's *fig25 grid* (Algorithm 1 with noisy-oracle
predictions over the full ``alpha x accuracy`` axes at ``lambda = 10``)
through the default kernel engine, plus a heterogeneous-lambda
*mixed-policy* fleet slab (Conventional + Wang cells, all on the kernel
tier) through :func:`run_policy_slab`, once per thread budget
(:func:`set_thread_budget`), which is what decides the execution path
(``core/backends.py``):

* ``numpy`` — budget 1: the cells run serially (speedup 1.0 by
  definition);
* ``threads[t]`` — budget ``t``: cells fanned over ``t`` threads, swept
  across 2 .. cpu_count; the sweep is empty on a single-core box
  (oversubscribed threads would record a bogus crossover), and each
  swept budget records whether it actually beat the serial baseline on
  this core count.

Per-cell cost equality against the serial run is asserted bit for bit
for every budget and both slab shapes — the threaded path's whole value
proposition is speed at *zero* numeric drift, so the benchmark fails
rather than record a fast-but-wrong number.

Standalone use (the CI smoke step runs this via ``repro bench``)::

    python benchmarks/bench_backends.py [--out benchmarks/BENCH_backends.json]
                                        [--requests 1000000]
                                        [--gate 2.0] [--strict]

writes ``BENCH_backends.json``: per-budget median wall clock over
``repeats`` runs and speedups over serial plus the measurement
environment (``cpu_count``, ``thread_counts``) — a recorded speedup is
meaningless without the core count it was measured on.  The gated
metric is the best any budget achieves over serial; serial itself
anchors it at 1.0, so the default CI gate (``--gate 1.0 --strict``)
asserts "threading never regresses the suite" on single-core runners
while multi-core boxes must show threads actually winning before the
recorded full-size run clears :data:`MIN_SPEEDUP`.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

FIG25_LAMBDA = 10.0
FULL_M = 1_000_000
SMOKE_N = 10
SMOKE_SEED = 0

#: fleet slab shape: objects with heterogeneous per-object lambdas
FLEET_CELLS = 64

#: gate at the recorded full size on a multi-core box (threads >= 2x
#: over serial on 8 cores); single-core boxes record best_speedup ~= 1.0
#: and the CI quick profile gates at 1.0
MIN_SPEEDUP = 2.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "best_speedup"

#: quick profile appended by `repro bench --quick` (the CI smoke step)
QUICK_ARGS = ["--requests", "60000"]


def _grid_cells():
    from repro.analysis.sweep import PAPER_ACCURACIES, PAPER_ALPHAS

    return [
        (alpha, acc, SMOKE_SEED)
        for alpha in PAPER_ALPHAS
        for acc in PAPER_ACCURACIES
    ]


def _thread_counts() -> list[int]:
    """Thread budgets to sweep: 2 and the box's core count, but never
    more threads than there are cores.  On a single-core box the sweep
    is empty — threads cannot win there, and forcing a budget of 2 (as
    this helper once did) records a bogus oversubscribed "crossover"
    into BENCH_backends.json; ``auto`` never picks threads at budget 1
    for the same reason."""
    cores = os.cpu_count() or 1
    return [t for t in sorted({2, cores}) if 2 <= t <= cores]


def _assert_identical(cells, base, other, label):
    for cell, a, b in zip(cells, base, other):
        assert a.storage_cost == b.storage_cost, (label, cell)
        assert a.transfer_cost == b.transfer_cost, (label, cell)
        assert a.n_transfers == b.n_transfers, (label, cell)


def run_backend_grid(requests: int = FULL_M, repeats: int = 3) -> dict:
    """Time the fig25 kernel slab and a fleet slab per thread budget;
    median of ``repeats`` runs."""
    from repro.algorithms.conventional import ConventionalReplication
    from repro.algorithms.wang import WangReplication
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.backends import get_backend, set_thread_budget
    from repro.core.costs import CostModel
    from repro.core.engine import run_policy_slab, run_slab
    from repro.workloads import ibm_like_trace

    trace = ibm_like_trace(n=SMOKE_N, m=requests, seed=SMOKE_SEED)
    cells = _grid_cells()
    model = CostModel(lam=FIG25_LAMBDA, n=trace.n)
    # mixed-policy fleet: every fourth object runs the Wang baseline,
    # which is kernel-eligible and shares the single-tier slab
    fleet = [
        (
            CostModel(lam=5.0 + i, n=trace.n),
            WangReplication() if i % 4 == 3 else ConventionalReplication(),
        )
        for i in range(FLEET_CELLS)
    ]

    def median_of(run) -> tuple[float, list]:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            runs = run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), runs

    def time_budget(t: int, expected: str):
        """``(grid, fleet)`` median timings and runs at thread budget ``t``."""
        prev = set_thread_budget(t)
        try:
            # the timed leg must be the path it is reported as
            for n_cells in (len(cells), len(fleet)):
                assert get_backend().resolve(n_cells, requests).name == expected
            return (
                median_of(
                    lambda: run_slab(
                        trace, model, cells, algorithm1_factory, engine="kernel"
                    )
                ),
                median_of(lambda: run_policy_slab(trace, fleet, "kernel")),
            )
        finally:
            set_thread_budget(prev)

    (serial_s, base_grid), (serial_fleet_s, base_fleet) = time_budget(1, "numpy")
    report: dict[str, dict] = {
        "numpy": {
            "grid_s": serial_s,
            "fleet_s": serial_fleet_s,
            "speedup": 1.0,
        }
    }
    for t in _thread_counts():
        label = f"threads[{t}]"
        (grid_s, grid_runs), (fleet_s, fleet_runs) = time_budget(t, "threads")
        _assert_identical(cells, base_grid, grid_runs, label)
        _assert_identical(range(FLEET_CELLS), base_fleet, fleet_runs,
                          f"{label}-fleet")
        report[label] = {
            "grid_s": grid_s,
            "fleet_s": fleet_s,
            "speedup": serial_s / grid_s,
            # per-core-count crossover record: does this thread budget
            # actually beat the serial baseline on this box?
            "thread_count": t,
            "wins": serial_s / grid_s > 1.0,
        }

    return {
        "grid": "fig25",
        "lam": FIG25_LAMBDA,
        "trace": {"workload": "ibm_like", "n": SMOKE_N, "m": requests,
                  "seed": SMOKE_SEED},
        "cells": len(cells),
        "fleet_cells": FLEET_CELLS,
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "thread_counts": _thread_counts(),
        "backends": report,
        "best_speedup": max(b["speedup"] for b in report.values()),
    }


def test_backend_grid(benchmark, paper_trace):
    """Serial vs threaded: identical costs on the fig25 slab, the
    threaded path timed."""
    from conftest import emit
    from repro.analysis.sweep import algorithm1_factory
    from repro.core.backends import set_thread_budget
    from repro.core.costs import CostModel
    from repro.core.engine import run_slab

    report = run_backend_grid(requests=100_000, repeats=2)
    lines = [
        f"{name}: grid {b['grid_s']:.2f}s fleet {b['fleet_s']:.2f}s "
        f"speedup {b['speedup']:.2f}x"
        for name, b in report["backends"].items()
    ]
    emit(
        "Kernel execution paths (fig25 slab + fleet slab, bit-identical)",
        f"m={report['trace']['m']} cores={report['cpu_count']}\n"
        + "\n".join(lines),
    )
    assert report["best_speedup"] >= 1.0

    # timed unit: the fig25 slab at the paper's trace size, all cores
    model = CostModel(lam=FIG25_LAMBDA, n=paper_trace.n)
    cells = _grid_cells()
    prev = set_thread_budget(os.cpu_count() or 1)
    try:
        benchmark(
            lambda: run_slab(
                paper_trace, model, cells, algorithm1_factory, engine="kernel"
            )
        )
    finally:
        set_thread_budget(prev)


def main(argv=None) -> int:
    from benchcli import flag_value, gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_backends.json"),
        MIN_SPEEDUP,
    )
    raw = flag_value(args, "--requests")
    requests = int(raw) if raw is not None else FULL_M
    report = run_backend_grid(requests=requests)
    write_report(report, out)
    print(
        f"fig25 grid ({report['cells']} cells, m={requests}, "
        f"{report['cpu_count']} cores):"
    )
    for name, b in report["backends"].items():
        print(
            f"  {name:<12s} grid {b['grid_s']:.2f}s  "
            f"fleet {b['fleet_s']:.2f}s  speedup {b['speedup']:.2f}x"
        )
    print(f"best speedup {report['best_speedup']:.2f}x -> {out}")
    return gate_exit(report["best_speedup"], gate, strict, label="best_speedup")


if __name__ == "__main__":
    sys.exit(main())
