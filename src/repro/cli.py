"""Command-line interface for running the paper's experiments.

Subcommands
-----------
``sweep``
    The Appendix J grid (Figures 25-28): online-to-optimal cost ratios
    over (alpha, accuracy) for one or more lambdas.
``adaptive``
    The adapted algorithm grid (Figures 29-32).
``tight``
    The tight examples (Figures 5 and 6) and their limit ratios.
``wang``
    The Wang et al. counterexample (Figure 9).
``adversary``
    The Section 9 lower-bound adversary.
``experiments``
    The scenario registry: ``list`` the registered experiment
    configurations or ``run`` one in parallel with result caching.
``fleet``
    Multi-object fleets: ``run`` simulates every object of a fleet —
    built from a combined ``time,server,object`` access log or from a
    registered scenario's workload templates — with cross-object slab
    dispatch, sharded workers, and streaming aggregates (totals, worst
    objects, ratio quantiles) that scale to millions of objects.
``trace``
    Trace file utilities: ``info`` prints the detected format and
    summary statistics; ``convert`` rewrites a trace between the
    supported formats (csv / csv.gz / jsonl / jsonl.gz / npz), detected
    from the path suffixes.
``bench``
    Discover and run the ``benchmarks/bench_*.py`` suites that expose a
    ``main()`` entry point — one invocation replaces the per-benchmark
    CI steps (``--gate``/``--strict`` thread through to every suite,
    ``--quick`` applies each suite's declared smoke profile, and
    ``--regress PCT`` diffs each suite's declared ``GATE_METRIC``
    against the committed ``BENCH_*.json`` history, failing any suite
    that fell more than PCT percent below its baseline).
``obs``
    Telemetry utilities: ``summary`` pretty-prints a metrics snapshot
    written by ``--metrics-out``.

The ``sweep``, ``experiments run``, and ``bench`` subcommands accept
``--metrics-out`` / ``--spans-out``; either flag switches the telemetry
substrate on for the invocation and exports the collected registry when
the command finishes (Prometheus text for ``.prom``/``.txt`` metric
paths, the JSON snapshot otherwise; spans as Chrome trace-event JSON
loadable in Perfetto).  The global ``--log-level`` / ``--log-json``
flags attach a structured-logging handler to the library's ``repro``
logger hierarchy, which is silent by default.

Examples::

    repro-replication sweep --lambda 1000 --requests 2000
    repro-replication tight --alpha 0.5
    repro-replication wang --m 500
    repro-replication experiments run fig25 --workers 8
    repro-replication experiments run smoke --metrics-out m.json --spans-out s.json
    repro-replication obs summary m.json
    repro-replication trace info workload.csv.gz
    repro-replication trace convert workload.csv workload.npz
    repro-replication bench --quick --gate 1.0 --strict --out-dir .
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .algorithms import (
    AdaptiveReplication,
    LearningAugmentedReplication,
    WangReplication,
)
from .analysis.sweep import (
    PAPER_ACCURACIES,
    PAPER_ALPHAS,
    format_table,
    sweep_grid,
)
from .analysis.theory import consistency_bound, robustness_bound
from .core import CostModel, simulate
from .core.engine import ENGINE_NAMES, run_policy_slab
from .offline import optimal_cost
from .predictions import FixedPredictor, NoisyOraclePredictor, OraclePredictor
from .workloads import (
    LowerBoundAdversary,
    consistency_tight_trace,
    ibm_like_trace,
    robustness_tight_trace,
    wang_counterexample_trace,
)

__all__ = ["main", "build_parser"]

#: the paper commands, whose bad inputs surface as ValueError (a
#: TraceError among them) from the library's constructors
_PAPER_COMMANDS = ("sweep", "adaptive", "tight", "wang", "adversary")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Telemetry export flags shared by sweep / experiments run / bench."""
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable telemetry and write the metrics snapshot to PATH "
        "when the command finishes (.prom/.txt = Prometheus text, "
        "anything else = JSON snapshot)")
    parser.add_argument(
        "--spans-out", default=None, metavar="PATH",
        help="enable telemetry and write the recorded spans to PATH as "
        "Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine-tier flag shared by sweep / experiments run / fleet
    run."""
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default="auto",
        help="simulation engine: 'kernel' = loop-free segment-scan "
        "replay (one multi-row pass per (lambda, alpha) of a slab), "
        "'reference' = full-telemetry event loop, 'auto' (default) = "
        "kernel where it supports the policy, reference otherwise")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro-replication",
        description="Experiments for 'Cost-Driven Data Replication with "
        "Predictions' (SPAA 2024)",
    )
    p.add_argument("--log-level", default=None, metavar="LEVEL",
                   help="attach a stderr logging handler to the library's "
                   "'repro' logger at LEVEL (debug/info/warning/error); "
                   "the library is silent without it")
    p.add_argument("--log-json", action="store_true",
                   help="emit log records as JSON lines instead of "
                   "key=value text (implies --log-level info unless set)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sweep", help="Figures 25-28 grid")
    s.add_argument("--lambda", dest="lam", type=float, action="append",
                   help="transfer cost (repeatable; default 1000)")
    s.add_argument("--requests", type=int, default=2000,
                   help="trace length (default 2000; paper uses 11688)")
    s.add_argument("--servers", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--coarse", action="store_true",
                   help="6x6 grid instead of the paper's 11x11")
    s.add_argument("--heatmap", action="store_true",
                   help="also render an ASCII heat map per lambda")
    _add_engine_flags(s)
    _add_obs_flags(s)

    a = sub.add_parser("adaptive", help="Figures 29-32 grid")
    a.add_argument("--lambda", dest="lam", type=float, default=1000.0)
    a.add_argument("--beta", type=float, default=0.1)
    a.add_argument("--requests", type=int, default=2000)
    a.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("tight", help="Figures 5-6 tight examples")
    t.add_argument("--alpha", type=float, default=0.5)
    t.add_argument("--lambda", dest="lam", type=float, default=100.0)
    t.add_argument("--m", type=int, default=2001)

    w = sub.add_parser("wang", help="Figure 9 counterexample")
    w.add_argument("--lambda", dest="lam", type=float, default=100.0)
    w.add_argument("--m", type=int, default=1000)

    v = sub.add_parser("adversary", help="Section 9 lower-bound adversary")
    v.add_argument("--alpha", type=float, default=0.5)
    v.add_argument("--lambda", dest="lam", type=float, default=100.0)
    v.add_argument("--requests", type=int, default=500)

    e = sub.add_parser("experiments", help="scenario registry: list / run")
    esub = e.add_subparsers(dest="exp_command", required=True)
    el = esub.add_parser("list", help="registered experiment scenarios")
    el.add_argument("--tag", default=None, help="filter by tag")
    er = esub.add_parser("run", help="run scenarios in parallel with caching")
    er.add_argument("names", nargs="+", metavar="name",
                    help="registered scenario name(s); see 'experiments list'")
    er.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: CPU count; 1 = serial)")
    er.add_argument("--cache-dir", default=None,
                    help="result cache directory (default: "
                    "$REPRO_CACHE_DIR or ~/.cache/repro-experiments)")
    er.add_argument("--no-cache", action="store_true",
                    help="disable result caching entirely")
    er.add_argument("--out", default=None, metavar="DIR",
                    help="also save JSON/CSV artifacts under DIR")
    er.add_argument("--coarse", action="store_true",
                    help="subsample every grid axis to at most 3 values")
    er.add_argument("--quiet", action="store_true",
                    help="suppress incremental progress output")
    _add_engine_flags(er)
    _add_obs_flags(er)

    f = sub.add_parser("fleet", help="multi-object fleets: run")
    fsub = f.add_subparsers(dest="fleet_command", required=True)
    fr = fsub.add_parser(
        "run",
        help="simulate a fleet of objects with cross-object slab "
        "dispatch and streaming aggregates",
    )
    fsrc = fr.add_mutually_exclusive_group(required=True)
    fsrc.add_argument("--access-log", default=None, metavar="PATH",
                      help="combined access log CSV with time,server,object "
                      "rows (header optional); split into per-object traces")
    fsrc.add_argument("--scenario", default=None, metavar="NAME",
                      help="registered scenario whose workload seeds the "
                      "fleet's trace templates; see 'experiments list'")
    fr.add_argument("--n", type=int, default=None,
                    help="server count (required with --access-log)")
    fr.add_argument("--objects", type=int, default=1000,
                    help="fleet size with --scenario (default 1000)")
    fr.add_argument("--templates", type=int, default=8,
                    help="distinct trace templates with --scenario; objects "
                    "cycle over them, so objects sharing a template "
                    "evaluate as one cross-object slab (default 8)")
    fr.add_argument("--lambda", dest="lam", type=float, default=100.0,
                    help="transfer cost for every object (default 100)")
    fr.add_argument("--alpha", type=float, default=0.5,
                    help="Algorithm 1 trust parameter (default 0.5)")
    fr.add_argument("--accuracy", type=float, default=1.0,
                    help="predictor accuracy; 1.0 = oracle (default 1.0)")
    fr.add_argument("--seed", type=int, default=0,
                    help="base seed for templates and noisy predictors")
    _add_engine_flags(fr)
    fr.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: CPU count; 1 = serial)")
    fr.add_argument("--top-k", type=int, default=16,
                    help="worst objects kept in the offenders table "
                    "(default 16)")
    fr.add_argument("--stream", action="store_true",
                    help="streaming aggregates only: never materialize "
                    "per-object outcomes (for very large fleets)")
    fr.add_argument("--no-optimal", action="store_true",
                    help="skip the offline optima (online costs only)")
    fr.add_argument("--quiet", action="store_true",
                    help="suppress incremental progress output")
    _add_obs_flags(fr)

    tr = sub.add_parser("trace", help="trace files: info / convert")
    tsub = tr.add_subparsers(dest="trace_command", required=True)
    ti = tsub.add_parser("info", help="detected format + summary statistics")
    ti.add_argument("path", help="trace file (csv/csv.gz/jsonl/jsonl.gz/npz)")
    ti.add_argument("--mmap", action="store_true",
                    help="memory-map the columns of an .npz trace "
                    "instead of reading them into memory")
    tc = tsub.add_parser("convert",
                         help="rewrite a trace in another format "
                         "(formats detected from the path suffixes)")
    tc.add_argument("src", help="input trace file")
    tc.add_argument("dst", help="output trace file")

    b = sub.add_parser("bench",
                       help="discover and run the bench_*.py suites")
    b.add_argument("names", nargs="*", metavar="name",
                   help="suite names (e.g. 'scaling' for bench_scaling.py); "
                   "default: every runnable suite")
    b.add_argument("--list", action="store_true", dest="list_suites",
                   help="list the discovered suites and exit")
    b.add_argument("--dir", default="benchmarks", metavar="DIR",
                   help="directory to discover bench_*.py in "
                   "(default: ./benchmarks)")
    b.add_argument("--out-dir", default=None, metavar="DIR",
                   help="write each suite's BENCH_<name>.json under DIR "
                   "(default: each suite's own default, next to the "
                   "benchmark sources)")
    b.add_argument("--gate", type=float, default=None,
                   help="pass this wall-clock gate to every suite "
                   "(default: each suite's own recorded gate)")
    b.add_argument("--strict", action="store_true",
                   help="suites fail the process when below the gate")
    b.add_argument("--quick", action="store_true",
                   help="apply each suite's declared QUICK_ARGS smoke "
                   "profile (the CI configuration)")
    b.add_argument("--regress", type=float, default=None, metavar="PCT",
                   help="persistent regression gate: fail any suite whose "
                   "gated metric (its GATE_METRIC report key) falls more "
                   "than PCT percent below the committed "
                   "BENCH_<name>.json history in --dir; suites without a "
                   "committed baseline or recorded metric pass with a note")
    _add_obs_flags(b)

    o = sub.add_parser("obs", help="telemetry snapshots: summary")
    osub = o.add_subparsers(dest="obs_command", required=True)
    os_ = osub.add_parser("summary",
                          help="pretty-print a --metrics-out JSON snapshot")
    os_.add_argument("path", help="snapshot file written by --metrics-out")
    return p


def _cmd_sweep(args: argparse.Namespace) -> int:
    lams = args.lam or [1000.0]
    trace = ibm_like_trace(n=args.servers, m=args.requests, seed=args.seed)
    if args.coarse:
        alphas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        accs = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    else:
        alphas, accs = PAPER_ALPHAS, PAPER_ACCURACIES
    result = sweep_grid(
        trace, lams, alphas, accs, seed=args.seed,
        engine=getattr(args, "engine", "auto"),
    )
    for lam in lams:
        print(format_table(result, lam))
        if getattr(args, "heatmap", False):
            from .analysis.plotting import render_sweep_heatmap

            print(render_sweep_heatmap(result, lam))
        print()
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    trace = ibm_like_trace(m=args.requests, seed=args.seed)
    model = CostModel(lam=args.lam, n=trace.n)
    opt = optimal_cost(trace, model)
    grid = [
        (alpha, acc) for alpha in (0.1, 0.5, 1.0) for acc in (0.0, 0.5, 1.0)
    ]
    cells = [
        (
            model,
            AdaptiveReplication(
                OraclePredictor(trace)
                if acc >= 1.0
                else NoisyOraclePredictor(trace, acc, seed=args.seed),
                alpha=alpha,
                beta=args.beta,
            ),
        )
        for alpha, acc in grid
    ]
    runs = run_policy_slab(trace, cells, "auto")
    print(f"lambda={args.lam:g} beta={args.beta:g} target<={2 + args.beta:g}")
    print("alpha  accuracy  ratio")
    for (alpha, acc), run in zip(grid, runs):
        print(f"{alpha:5.1f}  {acc:8.0%}  {run.total_cost / opt:6.3f}")
    return 0


def _cmd_tight(args: argparse.Namespace) -> int:
    lam, alpha = args.lam, args.alpha
    model = CostModel(lam=lam, n=2)

    tr = robustness_tight_trace(lam, alpha, args.m)
    pol = LearningAugmentedReplication(FixedPredictor(False), alpha)
    run = simulate(tr, model, pol)
    opt = optimal_cost(tr, model)
    print(
        f"Figure 5 (robustness):  ratio={run.total_cost / opt:.4f}  "
        f"limit 1+1/alpha={robustness_bound(alpha):.4f}"
    )

    cycles = max(1, args.m // 3)
    tr = consistency_tight_trace(lam, cycles=cycles)
    pol = LearningAugmentedReplication(OraclePredictor(tr), alpha)
    run = simulate(tr, model, pol)
    opt = optimal_cost(tr, model)
    print(
        f"Figure 6 (consistency): ratio={run.total_cost / opt:.4f}  "
        f"limit (5+alpha)/3={consistency_bound(alpha):.4f}"
    )
    return 0


def _cmd_wang(args: argparse.Namespace) -> int:
    tr = wang_counterexample_trace(args.lam, m=args.m)
    model = CostModel(lam=args.lam, n=2)
    run = simulate(tr, model, WangReplication())
    opt = optimal_cost(tr, model)
    print(
        f"Figure 9 (Wang et al.): ratio={run.total_cost / opt:.4f}  "
        "limit 5/2=2.5 (claimed 2 is refuted)"
    )
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    adv = LowerBoundAdversary(lam=args.lam)
    pol = LearningAugmentedReplication(FixedPredictor(False), args.alpha)
    out = adv.run(pol, n_requests=args.requests)
    opt = optimal_cost(out.trace, CostModel(lam=args.lam, n=2))
    print(
        f"Section 9 adversary vs alpha={args.alpha:g}: "
        f"ratio={out.result.total_cost / opt:.4f} (lower bound 1.5)"
    )
    return 0


def _coarsen(values: tuple, keep: int = 3) -> tuple:
    """At most ``keep`` values spread over the axis, endpoints included."""
    if len(values) <= keep:
        return values
    idx = sorted({round(i * (len(values) - 1) / (keep - 1)) for i in range(keep)})
    return tuple(values[i] for i in idx)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import (
        ArtifactStore,
        ConsoleProgress,
        ExperimentRunner,
        NullProgress,
        ResultCache,
        WorkerCrashError,
        get_scenario,
        list_scenarios,
        summary_table,
    )

    if args.exp_command == "list":
        scenarios = list_scenarios(tag=args.tag)
        if not scenarios:
            print("no scenarios registered" +
                  (f" with tag {args.tag!r}" if args.tag else ""))
            return 1
        width = max(len(s.name) for s in scenarios)
        for s in scenarios:
            tags = f" [{', '.join(s.tags)}]" if s.tags else ""
            print(f"{s.name:<{width}}  {s.n_jobs:>6} jobs{tags}  "
                  f"{s.description}")
        return 0

    if args.no_cache:
        cache = None
    else:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_CACHE_DIR",
            os.path.join("~", ".cache", "repro-experiments"),
        )
        cache = ResultCache(os.path.expanduser(cache_dir))
    runner = ExperimentRunner(
        workers=args.workers,
        cache=cache,
        progress=NullProgress() if args.quiet else ConsoleProgress(),
        engine=getattr(args, "engine", "auto"),
    )
    store = ArtifactStore(args.out) if args.out else None
    for name in args.names:
        try:
            scenario = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if args.coarse:
            scenario = scenario.with_grid(
                lambdas=_coarsen(scenario.lambdas),
                alphas=_coarsen(scenario.alphas),
                accuracies=_coarsen(scenario.accuracies),
            )
        try:
            result = runner.run(scenario)
        except WorkerCrashError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(summary_table(result))
        if store is not None:
            path = store.save(result)
            print(f"artifacts saved to {path}")
        print()
    return 0


def _read_fleet_log(path: str) -> list[tuple[float, int, str]]:
    """Parse a combined access log CSV into ``(time, server, object)``
    rows.  A non-numeric first field (a header) is skipped."""
    import csv

    rows: list[tuple[float, int, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.reader(fh):
            if len(rec) < 3:
                continue
            try:
                t = float(rec[0])
            except ValueError:
                continue
            rows.append((t, int(rec[1]), rec[2].strip()))
    return rows


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from .analysis.sweep import algorithm1_factory
    from .core.trace import TraceError
    from .experiments import (
        ConsoleProgress,
        ExperimentRunner,
        NullProgress,
        get_scenario,
    )
    from .system.multi_object import (
        MultiObjectSystem,
        ObjectSpec,
        split_trace_by_object,
    )

    lam, alpha, accuracy, seed = args.lam, args.alpha, args.accuracy, args.seed

    def policy_factory(trace, model):
        return algorithm1_factory(trace, model.lam, alpha, accuracy, seed)

    specs = []
    if args.access_log:
        if args.n is None:
            print("--n is required with --access-log", file=sys.stderr)
            return 2
        try:
            rows = _read_fleet_log(args.access_log)
            traces = split_trace_by_object(rows, args.n)
        except (TraceError, OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not traces:
            print(f"no usable rows in {args.access_log}", file=sys.stderr)
            return 2
        n = args.n
        for obj, tr in sorted(traces.items()):
            specs.append(ObjectSpec(obj, tr, lam, policy_factory))
    else:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        templates = [
            scenario.build_trace(lam, alpha, accuracy, seed + t)
            for t in range(max(1, args.templates))
        ]
        n = templates[0].n
        width = len(str(max(0, args.objects - 1)))
        for i in range(args.objects):
            specs.append(
                ObjectSpec(
                    f"obj-{i:0{width}d}",
                    templates[i % len(templates)],
                    lam,
                    policy_factory,
                )
            )
    system = MultiObjectSystem(n, specs)
    runner = ExperimentRunner(
        workers=args.workers,
        progress=NullProgress() if args.quiet else ConsoleProgress(),
    )
    t0 = time.perf_counter()
    report = runner.run_fleet(
        system,
        compute_optimal=not args.no_optimal,
        engine=args.engine,
        materialize=not args.stream,
        top_k=args.top_k,
    )
    elapsed = time.perf_counter() - t0
    print(report.summary_table(top_k=args.top_k))
    rate = len(specs) / elapsed if elapsed > 0 else float("inf")
    line = (
        f"\n{len(specs)} objects, n={n}, engine={args.engine} "
        f"in {elapsed:.2f}s ({rate:,.0f} objects/s)"
    )
    if not args.no_optimal:
        line += (
            f"\nfleet ratio {report.fleet_ratio:.4f}, worst object "
            f"{report.worst_object_ratio:.4f}, ratio p50/p90/p99 "
            f"{report.ratio_quantile(0.5):.3f}/"
            f"{report.ratio_quantile(0.9):.3f}/"
            f"{report.ratio_quantile(0.99):.3f}"
        )
    print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.trace import TraceError
    from .system.trace_io import detect_trace_format, load_trace, save_trace

    try:
        if args.trace_command == "info":
            fmt = detect_trace_format(args.path)
            trace = load_trace(args.path, fmt=fmt, mmap=args.mmap)
            s = trace.summary()
            print(f"path            {args.path}")
            print(f"format          {fmt}"
                  + (" (memory-mapped)" if args.mmap and fmt == "npz" else ""))
            print(f"file size       {os.path.getsize(args.path)} bytes")
            print(f"servers (n)     {trace.n}")
            print(f"requests (m)    {len(trace)}")
            print(f"span            {s['span']:g}")
            print(f"servers touched {int(s['servers_touched'])}")
            print(f"mean local gap  {s['mean_local_gap']:g}")
            print(f"median local gap {s['median_local_gap']:g}")
            return 0
        # convert
        src_fmt = detect_trace_format(args.src)
        dst_fmt = detect_trace_format(args.dst)
        trace = load_trace(args.src, fmt=src_fmt, mmap=src_fmt == "npz")
        save_trace(trace, args.dst, fmt=dst_fmt)
        print(
            f"{args.src} ({src_fmt}) -> {args.dst} ({dst_fmt}): "
            f"n={trace.n} m={len(trace)}"
        )
        return 0
    except (TraceError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _discover_bench_suites(bench_dir: str) -> dict[str, str]:
    """Map suite name -> path for every ``bench_*.py`` with a ``main()``.

    Membership is decided from the source text (``def main(``) so that
    pytest-only figure benchmarks are never imported here.
    """
    suites: dict[str, str] = {}
    try:
        entries = sorted(os.listdir(bench_dir))
    except OSError:
        return suites
    for fname in entries:
        if not (fname.startswith("bench_") and fname.endswith(".py")):
            continue
        path = os.path.join(bench_dir, fname)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue
        if "\ndef main(" in source:
            suites[fname[len("bench_"):-len(".py")]] = path
    return suites


def _cmd_bench(args: argparse.Namespace) -> int:
    import importlib.util

    suites = _discover_bench_suites(args.dir)
    if not suites:
        print(f"no runnable bench_*.py suites found in {args.dir!r}",
              file=sys.stderr)
        return 2
    if args.list_suites:
        width = max(len(n) for n in suites)
        for name, path in suites.items():
            print(f"{name:<{width}}  {path}")
        return 0
    names = args.names or list(suites)
    unknown = [n for n in names if n not in suites]
    if unknown:
        print(f"unknown suite(s) {unknown}; available: {sorted(suites)}",
              file=sys.stderr)
        return 2
    # suites import their shared helpers (benchcli) as siblings, which
    # works when run as scripts; mirror that here, restoring sys.path
    # afterwards so a long-lived caller's imports are not shadowed
    bench_dir = os.path.abspath(args.dir)
    inserted = bench_dir not in sys.path
    if inserted:
        sys.path.insert(0, bench_dir)
    failed: list[str] = []
    try:
        for name in names:
            path = suites[name]
            spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            argv: list[str] = []
            out_path = os.path.join(bench_dir, f"BENCH_{name}.json")
            if args.out_dir:
                os.makedirs(args.out_dir, exist_ok=True)
                out_path = os.path.join(args.out_dir, f"BENCH_{name}.json")
                argv += ["--out", out_path]
            if args.gate is not None:
                argv += ["--gate", str(args.gate)]
            if args.strict:
                argv.append("--strict")
            if args.quick:
                argv += list(getattr(module, "QUICK_ARGS", ()))
            metric = getattr(module, "GATE_METRIC", "speedup")
            baseline = None
            if args.regress is not None:
                import benchcli  # sibling helper; bench_dir is on sys.path

                # read the committed history BEFORE the suite runs —
                # with --out-dir pointing at the bench dir, the fresh
                # report overwrites the baseline file
                baseline = benchcli.read_metric(
                    os.path.join(bench_dir, f"BENCH_{name}.json"), metric
                )
            print(f"=== bench {name} {' '.join(argv)}")
            code = module.main(argv)
            if code:
                failed.append(name)
            elif args.regress is not None:
                import benchcli

                new_value = benchcli.read_metric(out_path, metric)
                if baseline is None or new_value is None:
                    print(
                        f"bench {name}: no committed {metric} history; "
                        "regression gate skipped"
                    )
                elif benchcli.regressed(new_value, baseline, args.regress):
                    print(
                        f"FAIL: bench {name}: {metric} {new_value:.3f} is "
                        f"more than {args.regress:g}% below the committed "
                        f"baseline {baseline:.3f}",
                        file=sys.stderr,
                    )
                    failed.append(name)
                else:
                    print(
                        f"bench {name}: {metric} {new_value:.3f} vs "
                        f"committed {baseline:.3f} (within "
                        f"{args.regress:g}%)"
                    )
    finally:
        if inserted:
            try:
                sys.path.remove(bench_dir)
            except ValueError:
                pass
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"{len(names)} suite(s) passed")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import exporters

    try:
        snap = exporters.load_snapshot_json(args.path)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(exporters.summarize(snap))
    return 0


def _export_obs(args: argparse.Namespace) -> None:
    """Write the registry collected during this invocation to the paths
    given by ``--metrics-out`` / ``--spans-out``."""
    from .obs import exporters, metrics

    snap = metrics.get_registry().snapshot()
    if args.metrics_out:
        exporters.write_metrics(snap, args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.spans_out:
        exporters.write_chrome_trace(snap, args.spans_out)
        print(f"spans written to {args.spans_out}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None or args.log_json:
        from .obs import logging as obs_logging

        obs_logging.configure(
            level=args.log_level or "info", json_output=args.log_json
        )
    want_obs = bool(
        getattr(args, "metrics_out", None) or getattr(args, "spans_out", None)
    )
    if want_obs:
        from .obs import metrics

        metrics.enable()
    handlers = {
        "sweep": _cmd_sweep,
        "adaptive": _cmd_adaptive,
        "tight": _cmd_tight,
        "wang": _cmd_wang,
        "adversary": _cmd_adversary,
        "experiments": _cmd_experiments,
        "fleet": _cmd_fleet,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "obs": _cmd_obs,
    }
    try:
        code = handlers[args.command](args)
        if want_obs:
            _export_obs(args)
        return code
    except ValueError as exc:
        if args.command not in _PAPER_COMMANDS:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        resumable = (
            args.command == "experiments"
            and getattr(args, "exp_command", "") == "run"
            and not getattr(args, "no_cache", False)
        )
        print(
            "\ninterrupted — completed cells are cached and the next run "
            "resumes from them" if resumable else "\ninterrupted",
            file=sys.stderr,
        )
        return 130
    finally:
        if want_obs:
            # leave no global state behind for in-process callers
            from .obs import metrics

            metrics.disable()
            metrics.reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
