"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 12 --trace 0

Generated input files are written first, by a child process.
``--trace 0`` is the measured run: set-up is timed in fresh processes,
then a fresh measured process sets up once and runs closed-loop passes
(one caller, back to back) for ``--seconds`` and at least a few passes,
and every output is checked; its peak RSS is the program's alone.
``--trace 1`` is the traced run: one untraced runner pass, then the
same work serially in-process with spans around each layer call, then
the layer probes.  Either way the last stdout line is the JSON result,
the run record goes to ``perfbench/out/`` (with the span file for
``--trace 1``), and the exit code is non-zero if any output check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: fresh-process set-ups per run (at least the first, until their total
#: passes the budget, at most the second); setup_s is their median
SETUP_SAMPLES = (3, 9)
SETUP_BUDGET_S = 3.0


def parse_args(argv=None) -> argparse.Namespace:
    sys.path.insert(0, str(ROOT))
    from perfbench.layers import WORKLOAD_NAMES

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-scale shapes for the benchmark's tests")
    # internal child-process roles, each given the run's work directory
    p.add_argument("--write-inputs", metavar="WORKDIR", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    p.add_argument("--measure", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_repro():
    """Import the program from this checkout's ``src``, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0     # Linux reports KiB


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"        # a plain source checkout carries no history


def run_record(args, wl, passes: int) -> dict:
    import numpy as np
    from repro.core import get_backend, numba_available, set_thread_budget
    from perfbench.workloads import workers

    nproc = os.cpu_count() or 1
    w = workers()
    # the runner caps the kernel's threads at cores // workers in its
    # forked workers; resolve the backend under that budget
    budget = max(1, nproc // w) if w > 1 else nproc
    prev = set_thread_budget(budget)
    try:
        backend = get_backend().resolve(*wl.slab_shape()).name
    finally:
        set_thread_budget(prev)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": nproc,
        "workers": w,
        "kernel_backend": backend,
        "thread_budget": budget,
        "numba": numba_available(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "passes": passes,
        "run_seconds": args.seconds,
    }


def describe(record: dict) -> str:
    """The run record's scalar fields on one comment line."""
    return "# " + " ".join(
        f"{k}={v}" for k, v in record.items() if not isinstance(v, (dict, list))
    )


def reference_sample(wl, cells, seed: int, tracer=None) -> dict[tuple, float]:
    """Re-run a seeded sample of cells through the reference simulator."""
    keys = [c.key for c in cells]
    sample = random.Random(seed).sample(keys, min(wl.reference_sample, len(keys)))
    by_key = {c.key: c for c in cells}
    out = {}
    for key in sample:
        if tracer is None:
            out[key] = wl.reference_cost(key)
        else:
            with tracer.span("reference.check", m=by_key[key].requests):
                out[key] = wl.reference_cost(key)
    return out


def child(args, role: str, workdir: Path, capture: bool = True, timeout: float = 60):
    """Run this script in a fresh process in one of its internal roles."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--size", args.size,
         f"--{role}", str(workdir)],
        cwd=ROOT, capture_output=capture, text=True, timeout=timeout,
    )


def setup_samples(args, workdir: Path) -> list[float]:
    out: list[float] = []
    lo, hi = SETUP_SAMPLES
    while len(out) < lo or (sum(out) < SETUP_BUDGET_S and len(out) < hi):
        proc = child(args, "setup-probe", workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def print_result(correct: bool, check, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))


def write_record(args, record: dict) -> Path:
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


# ----------------------------------------------------------------------
def measured_run(args, size, workdir: Path) -> int:
    """The measured process: one set-up, the passes, the checks."""
    from perfbench.checks import check_passes
    from perfbench.layers import END_TO_END, FAILED_FRAC
    from perfbench.tracing import NullTracer
    from perfbench.workloads import make_workload

    setups = json.loads((workdir / "setup_s.json").read_text())
    wl = make_workload(args.workload)
    wl.setup(args.seed, size, workdir, NullTracer())

    walls, cpus, passes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < size.min_passes or time.perf_counter() < deadline:
        pass_dir = workdir / f"pass{len(passes)}"
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            cells = wl.run_pass(pass_dir)
        except Exception:      # a raising pass counts as failed; keep going
            traceback.print_exc()
            cells = None
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        passes.append(cells)
        shutil.rmtree(pass_dir, ignore_errors=True)
    rss = peak_rss_mb()

    baseline = next((p for p in passes if p is not None), [])
    requests = sum(c.requests for c in baseline)
    ref = reference_sample(wl, baseline, args.seed)
    check = check_passes(passes, wl.n_cells, ref)
    for reason in check.reasons:
        print(f"check failed: {reason}", file=sys.stderr)

    stats = {
        "wall_s": summarize(walls),
        "requests_per_s": summarize([requests / w for w in walls]),
        "cpu_s": summarize(cpus),
        "setup_s": summarize(setups),
        "peak_rss_mb": summarize([rss]),
    }
    record = run_record(args, wl, len(passes))
    record["metrics"] = {
        name: {**stats[name], "unit": unit} for name, unit in END_TO_END
    }
    record["samples"] = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}
    record["failed_frac"] = check.failed_frac
    record["requests_per_pass"] = requests
    path = write_record(args, record)

    print(describe(record))
    for name, unit in END_TO_END:
        s = stats[name]
        print(f"{name:<16} {s['median']:>14.6g} {unit:<6} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    name, unit = FAILED_FRAC
    print(f"{name:<16} {check.failed_frac:>14.6g} {unit:<6} "
          f"({check.failed} of {check.attempted})")
    print(f"# record: {path.relative_to(ROOT)}")
    ok = check.failed == 0
    print_result(
        ok,
        check,
        {name: {"value": stats[name]["median"], "unit": unit}
         for name, unit in END_TO_END},
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
def median_time(tracer, name: str, fn, reps: int, **tags) -> float:
    out = []
    for _ in range(reps):
        with tracer.span(name, **tags):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return statistics.median(out)


def traced_run(args, size, workdir: Path) -> int:
    from repro import CostModel, PredictionStream, ResultCache
    from repro.analysis import algorithm1_factory
    from repro.core import run_slab
    from repro.system import load_trace_npz, save_trace_npz
    from perfbench.checks import check_passes
    from perfbench.layers import ENGINE_TIERS, PER_LAYER
    from perfbench.tracing import Tracer
    from perfbench.workloads import make_workload, workers

    wl = make_workload(args.workload)
    tr = Tracer(args.workload)
    with tr.span("setup"):
        wl.setup(args.seed, size, workdir, tr)

    # one untraced runner pass: the wall time the layers are held against
    t0 = time.perf_counter()
    measured = wl.run_pass(workdir / "pass0")
    run_wall = time.perf_counter() - t0

    with tr.span("pass"):
        cells = wl.traced_pass(tr, ResultCache(workdir / "pass-cache"))
    root = tr.named("pass")[0]
    wl.check_payloads(workdir / "pass0")

    with tr.span("probes"):
        for trace, lam, preds in wl.stream_slabs():
            with tr.span("predictions.stream", cells=len(preds), m=len(trace)):
                PredictionStream.batch_for_predictors(preds, trace, lam, cell_major=True)

        trace, lam, grid = wl.probe_slab()
        model = CostModel(lam=lam, n=trace.n)
        fixed = median_time(
            tr, "engine.kernel.probe",
            lambda: run_slab(trace, model, grid[:1], algorithm1_factory, engine="kernel"),
            reps=5, cells=1,
        )
        full = median_time(
            tr, "engine.kernel.probe",
            lambda: run_slab(trace, model, grid, algorithm1_factory, engine="kernel"),
            reps=3, cells=len(grid),
        )

        main = wl.main_trace()
        npz = workdir / "probe.npz"
        with tr.span("system.npz_save", m=len(main)):
            save_trace_npz(main, npz)
        with tr.span("system.npz_load", m=len(main)):
            load_trace_npz(npz, mmap=True, validate=False)

        cache = ResultCache(workdir / "probe-cache")
        for p in wl.payloads:
            with tr.span("experiments.cache.put"):
                cache.put(p, {"online_cost": 1.0})
        for p in wl.payloads:
            with tr.span("experiments.cache.get"):
                cache.get(p)
        entries = len(cache)

        ref = reference_sample(wl, cells, args.seed, tracer=tr)

    # traced pass against the untraced one: bit-identical costs required
    check = check_passes([measured, cells], wl.n_cells, ref)
    for reason in check.reasons:
        print(f"check failed: {reason}", file=sys.stderr)

    root_idx = tr.spans.index(root)
    in_pass = [s for s in tr.spans if s.parent == root_idx]
    layer = ("offline.dp", "engine", "experiments.cache.get", "experiments.cache.put")
    busy = sum(s.duration for s in in_pass if s.name in layer)
    dp = [s for s in in_pass if s.name == "offline.dp"]
    eng = [s for s in in_pass if s.name == "engine"]
    tier_busy = dict.fromkeys(ENGINE_TIERS, 0.0)
    tier_cells = dict.fromkeys(ENGINE_TIERS, 0)
    for s in eng:
        n = sum(s.tags["tiers"].values())
        for tier, k in s.tags["tiers"].items():
            tier_busy[tier] += s.duration * k / n
            tier_cells[tier] += k
    probe_puts = [s for s in tr.named("experiments.cache.put") if s.parent != root_idx]
    probe_gets = [s for s in tr.named("experiments.cache.get") if s.parent != root_idx]
    refs = tr.named("reference.check")
    ingest = tr.total("system.ingest")
    ingest_rows = sum(s.tags.get("rows", 0) for s in tr.named("system.ingest"))
    w = workers()
    values = {
        "workloads.trace_s": tr.total("workloads.trace"),
        "system.ingest_s": ingest,
        "system.ingest_rows_per_s": ingest_rows / ingest if ingest else 0.0,
        "system.npz_save_s": tr.total("system.npz_save"),
        "system.npz_load_s": tr.total("system.npz_load"),
        "offline.dp_s": sum(s.duration for s in dp),
        "offline.dp_calls": len(dp),
        "offline.dp_share": sum(s.duration for s in dp) / root.duration,
        "predictions.stream_s": tr.total("predictions.stream"),
        "engine.kernel.fixed_ms": fixed * 1e3,
        "engine.kernel.cell_ms": (full - fixed) / max(1, len(grid) - 1) * 1e3,
        "engine.reference.requests_per_s": (
            sum(s.tags["m"] for s in refs) / sum(s.duration for s in refs)
        ),
        "engine.busy_s": sum(s.duration for s in eng),
        "engine.cells": sum(s.tags["cells"] for s in eng),
        "experiments.cache.put_ms": statistics.fmean(s.duration for s in probe_puts) * 1e3,
        "experiments.cache.get_ms": statistics.fmean(s.duration for s in probe_gets) * 1e3,
        "experiments.cache.entries": entries,
        "experiments.runner.parallel_eff": busy / (w * run_wall),
        "experiments.runner.overhead_s": run_wall - busy / w,
        "trace.wall_s": root.duration,
        "trace.unattributed_s": root.duration - tr.children_total(root),
    }
    for tier in ENGINE_TIERS:
        values[f"engine.{tier}.busy_s"] = tier_busy[tier]
        values[f"engine.{tier}.cells"] = tier_cells[tier]

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write(spans_path)
    record = run_record(args, wl, 1)
    record["runner_pass_wall_s"] = run_wall
    record["metrics"] = {
        name: {"value": values[name], "unit": unit, "should_move": move}
        for name, unit, move, _ in PER_LAYER
    }
    record["self_time_s"] = {k: v for k, (v, _) in tr.self_times().items()}
    path = write_record(args, record)

    print(describe(record))
    print(f"{'metric':<34} {'value':>12} {'unit':<7} should move")
    for name, unit, move, _ in PER_LAYER:
        print(f"{name:<34} {values[name]:>12.6g} {unit:<7} {move}")
    print(f"\n{'span (self time)':<34} {'seconds':>12} {'count':>7}")
    for name, (self_s, count) in sorted(
        tr.self_times().items(), key=lambda kv: -kv[1][0]
    ):
        print(f"{name:<34} {self_s:>12.6g} {count:>7}")
    print(f"# spans: {spans_path.relative_to(ROOT)}  record: {path.relative_to(ROOT)}")
    ok = check.failed == 0
    print_result(
        ok,
        check,
        {name: {"value": values[name], "unit": unit}
         for name, unit, _, in_json in PER_LAYER if in_json},
    )
    return 0 if ok else 1


def setup_probe(args) -> int:
    """One set-up in this fresh process: import, inputs, runner."""
    t0 = time.perf_counter()
    import_repro()
    from perfbench.inputs import SIZES
    from perfbench.tracing import NullTracer
    from perfbench.workloads import make_workload

    make_workload(args.workload).setup(
        args.seed, SIZES[args.size], Path(args.setup_probe), NullTracer()
    )
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_repro()
    from perfbench.inputs import SIZES
    from perfbench.workloads import make_workload

    size = SIZES[args.size]
    if args.write_inputs:
        make_workload(args.workload).prepare(args.seed, size, Path(args.write_inputs))
        return 0
    if args.measure:
        return measured_run(args, size, Path(args.measure))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    # keep every temporary file (the runner's spool among them) in the
    # checkout; child processes inherit TMPDIR
    tmp = workdir / "tmp"
    tmp.mkdir()
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        # inputs are generated outside every measured process, so no
        # generator memory lands in peak_rss_mb
        if make_workload(args.workload).writes_inputs:
            proc = child(args, "write-inputs", workdir)
            if proc.returncode != 0:
                raise RuntimeError(f"input generation failed:\n{proc.stderr[-4000:]}")
        if args.trace:
            return traced_run(args, size, workdir)
        (workdir / "setup_s.json").write_text(json.dumps(setup_samples(args, workdir)))
        return child(args, "measure", workdir, capture=False, timeout=150).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
