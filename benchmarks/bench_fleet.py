"""Fleet benchmark: cross-object slab dispatch vs the per-object loop.

Builds a million-object *mixed-policy* fleet (default) from a handful
of workload templates — Algorithm 1 (oracle and noisy), the
conventional baseline, and Wang et al. interleaved across objects, the
deployment shape that makes cross-object slabs pay: objects sharing a
``(trace, lambda)`` group evaluate together in one kernel slab — one
multi-row pass per alpha — instead of one engine call each (Wang cells
ride the same kernel slab via the cascade factorisation; equal-model
Wang cells deduplicate through its memoised replay).  Three paths are
timed:

* **serial** — this bench's per-object loop: one ``run_policy_slab``
  call on ``auto`` and one memoised ``optimal_cost`` per object, the
  calls perfbench's fleet-log traced pass makes (measured on a
  subsample, reported as objects/sec);
* **grouped** — cross-object slabs in-process
  (``ExperimentRunner(workers=1).run_fleet(materialize=False)``);
* **sharded** — ``ExperimentRunner.run_fleet`` across worker processes
  with work-sized chunks, streaming aggregates, and no per-object IPC.

Bit-identity of the grouped, sharded, and streaming paths against the
per-object loop on the reference simulator is always asserted on a
small fleet of the same mixed-policy shape before any timing.  The
vectorized ``split_trace_by_object`` is benchmarked against the per-row
reference loop on the same log.

Standalone use (the CI smoke step runs this via ``repro bench``)::

    python benchmarks/bench_fleet.py [--out benchmarks/BENCH_fleet.json]
                                     [--objects 1000000] [--workers N]
                                     [--gate 3.0] [--strict]

writes ``BENCH_fleet.json``:
``{"speedup": ..., "serial_objects_per_s": ..., "grouped_objects_per_s":
..., "sharded_objects_per_s": ..., "split_speedup": ...}``.  The gate
(sharded over serial, default :data:`MIN_SPEEDUP`) only fails the
process under ``--strict`` — CI runs the quick profile with ``--gate
1.0 --strict``.
"""

from __future__ import annotations

import os
import sys
import time

FULL_OBJECTS = 1_000_000
N_TEMPLATES = 8
TEMPLATE_M = 64
N_SERVERS = 8
FLEET_LAMBDAS = (25.0, 50.0, 100.0)
SEED = 0

#: serial per-object baseline is measured on at most this many objects
#: and reported as a rate (a million-object serial run would dominate)
SERIAL_SAMPLE = 20_000

#: objects in the pre-timing bit-identity fleet (mixed policies)
IDENTITY_OBJECTS = 256

#: rows in the split_trace_by_object comparison (the per-row reference
#: loop would dominate the full fleet's 64M-row log)
SPLIT_MAX_ROWS = 400_000

#: full-size sharded-over-serial bar; CI smoke uses --gate 1.0
MIN_SPEEDUP = 3.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "speedup"

#: quick profile appended by `repro bench --quick` (the CI smoke step)
QUICK_ARGS = ["--objects", "20000", "--serial-sample", "4000"]


#: the timed fleet's policy mix — every fourth object runs Wang's
#: baseline, the rest split across Algorithm 1 variants and the
#: conventional baseline; all four ride the kernel slab tier
def _mixed_factories():
    return [
        _la_policy_factory,
        _noisy_policy_factory,
        _conventional_factory,
        _wang_factory,
    ]


def _la_policy_factory(trace, model):
    from repro.analysis.sweep import algorithm1_factory

    return algorithm1_factory(trace, model.lam, 0.5, 1.0, SEED)


def _noisy_policy_factory(trace, model):
    from repro.analysis.sweep import algorithm1_factory

    return algorithm1_factory(trace, model.lam, 0.25, 0.8, SEED)


def _conventional_factory(trace, model):
    from repro.algorithms.conventional import ConventionalReplication

    return ConventionalReplication()


def _wang_factory(trace, model):
    from repro.algorithms.wang import WangReplication

    return WangReplication()


def _templates(n_templates: int = N_TEMPLATES):
    from repro.workloads import uniform_random_trace

    return [
        uniform_random_trace(
            N_SERVERS, TEMPLATE_M, horizon=float(TEMPLATE_M), seed=SEED + k
        )
        for k in range(n_templates)
    ]


def _build_fleet(n_objects: int, templates, factories=None):
    from repro.system.multi_object import MultiObjectSystem, ObjectSpec

    factories = factories or [_la_policy_factory]
    specs = [
        ObjectSpec(
            f"obj-{i:07d}",
            templates[i % len(templates)],
            FLEET_LAMBDAS[i % len(FLEET_LAMBDAS)],
            factories[i % len(factories)],
        )
        for i in range(n_objects)
    ]
    return MultiObjectSystem(N_SERVERS, specs)


def _per_object(system, engine: str = "auto") -> list[tuple[float, float]]:
    """The per-object loop: one ``run_policy_slab`` call and one memoised
    ``optimal_cost`` per object; ``(online, optimal)`` per object."""
    from repro.core.costs import CostModel
    from repro.core.engine import run_policy_slab
    from repro.offline.dp import optimal_cost

    optima: dict = {}
    rows = []
    for spec in system.specs:
        model = CostModel(lam=spec.lam, n=system.n)
        policy = spec.policy_factory(spec.trace, model)
        (run,) = run_policy_slab(spec.trace, [(model, policy)], engine)
        key = (id(spec.trace), spec.lam)
        if key not in optima:
            optima[key] = optimal_cost(spec.trace, model)
        rows.append((run.total_cost, optima[key]))
    return rows


def check_bit_identity(workers: int = 2) -> None:
    """The per-object loop on the reference simulator vs the grouped /
    sharded / streaming paths on a small mixed-policy fleet."""
    from repro.experiments import ExperimentRunner

    system = _build_fleet(IDENTITY_OBJECTS, _templates(4),
                          factories=_mixed_factories())
    reference = _per_object(system, engine="reference")
    grouped = ExperimentRunner(workers=1).run_fleet(system, engine="auto")
    runner = ExperimentRunner(workers=workers)
    sharded = runner.run_fleet(system, engine="auto")
    streaming = runner.run_fleet(system, engine="auto", materialize=False)
    for report in (grouped, sharded):
        for (online, optimal), o in zip(reference, report.outcomes):
            assert o.online == online, (o.object_id, o.online, online)
            assert o.optimal == optimal, o.object_id
    assert streaming.online_total == sum(on for on, _ in reference)
    assert streaming.optimal_total == sum(opt for _, opt in reference)
    assert streaming.worst_object_ratio == max(
        on / opt for on, opt in reference
    )


def _split_reference(accesses, n):
    """The pre-vectorization per-row loop, kept as the comparison and
    correctness baseline for ``split_trace_by_object``."""
    from repro.core.trace import Trace

    per_object: dict = {}
    for t, s, o in accesses:
        per_object.setdefault(o, []).append((t, s))
    out = {}
    for o in sorted(per_object):
        items = per_object[o]
        items.sort()
        out[o] = Trace(n, items)
    return out


def run_split_bench(n_objects: int) -> dict:
    """Vectorized vs reference split on a shuffled combined log."""
    import numpy as np

    from repro.system.multi_object import split_trace_by_object

    templates = _templates()
    k_objects = max(1, min(n_objects, SPLIT_MAX_ROWS // TEMPLATE_M))
    rows = [
        (t, s, f"obj-{i:07d}")
        for i in range(k_objects)
        for t, s in zip(
            templates[i % len(templates)].times.tolist(),
            templates[i % len(templates)].servers.tolist(),
        )
    ]
    order = np.random.default_rng(SEED).permutation(len(rows))
    rows = [rows[int(j)] for j in order]

    vec_s = ref_s = float("inf")
    for _ in range(2):  # best-of-2: single-shot timings are too noisy
        t0 = time.perf_counter()
        vec = split_trace_by_object(rows, N_SERVERS)
        vec_s = min(vec_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        ref = _split_reference(rows, N_SERVERS)
        ref_s = min(ref_s, time.perf_counter() - t0)
    assert sorted(vec) == sorted(ref)
    for o, tr in vec.items():
        assert tr.times.tolist() == ref[o].times.tolist(), o
        assert tr.servers.tolist() == ref[o].servers.tolist(), o
    return {
        "rows": len(rows),
        "objects": k_objects,
        "vectorized_s": vec_s,
        "reference_s": ref_s,
        "split_speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
    }


def run_fleet_bench(
    n_objects: int = FULL_OBJECTS,
    workers: int | None = None,
    serial_sample: int = SERIAL_SAMPLE,
) -> dict:
    """Time serial vs grouped vs sharded fleet execution.

    The serial baseline runs on ``serial_sample`` objects of the same
    fleet shape and is reported as objects/sec; grouped and sharded run
    the full ``n_objects`` with streaming aggregates, and their totals
    are asserted equal to each other (the serial equivalence itself is
    covered pre-timing by :func:`check_bit_identity`).
    """
    from repro.experiments import ExperimentRunner

    if workers is None:
        workers = os.cpu_count() or 1
    check_bit_identity(workers=min(2, workers))

    templates = _templates()
    sample = min(n_objects, serial_sample)
    serial_system = _build_fleet(sample, templates,
                                 factories=_mixed_factories())
    t0 = time.perf_counter()
    serial_rows = _per_object(serial_system)
    serial_s = time.perf_counter() - t0
    serial_rate = sample / serial_s

    system = _build_fleet(n_objects, templates, factories=_mixed_factories())
    t0 = time.perf_counter()
    grouped_report = ExperimentRunner(workers=1).run_fleet(
        system, engine="auto", materialize=False
    )
    grouped_s = time.perf_counter() - t0

    runner = ExperimentRunner(workers=workers)
    t0 = time.perf_counter()
    sharded_report = runner.run_fleet(system, engine="auto", materialize=False)
    sharded_s = time.perf_counter() - t0

    assert sharded_report.online_total == grouped_report.online_total
    assert sharded_report.optimal_total == grouped_report.optimal_total
    if sample == n_objects:
        assert sum(on for on, _ in serial_rows) == grouped_report.online_total

    split = run_split_bench(n_objects)
    return {
        "objects": n_objects,
        "templates": N_TEMPLATES,
        "m_per_object": TEMPLATE_M,
        "lambdas": list(FLEET_LAMBDAS),
        "policies": ["la-oracle", "la-noisy", "conventional", "wang"],
        "workers": workers,
        "serial_sample": sample,
        "serial_s": serial_s,
        "grouped_s": grouped_s,
        "sharded_s": sharded_s,
        "serial_objects_per_s": serial_rate,
        "grouped_objects_per_s": n_objects / grouped_s,
        "sharded_objects_per_s": n_objects / sharded_s,
        "grouped_speedup": (n_objects / grouped_s) / serial_rate,
        "speedup": (n_objects / sharded_s) / serial_rate,
        "fleet_ratio": sharded_report.fleet_ratio,
        "split": split,
        "split_speedup": split["split_speedup"],
    }


def test_fleet_speedup(benchmark):
    """Fleet slabs: identical costs, faster than the per-object loop."""
    from conftest import emit

    report = run_fleet_bench(n_objects=20_000, workers=2, serial_sample=4_000)
    emit(
        "Fleet dispatch (per-object loop vs cross-object slabs)",
        f"{report['objects']} objects: serial "
        f"{report['serial_objects_per_s']:,.0f} obj/s, grouped "
        f"{report['grouped_objects_per_s']:,.0f} obj/s, sharded "
        f"{report['sharded_objects_per_s']:,.0f} obj/s "
        f"(speedup {report['speedup']:.1f}x; split "
        f"{report['split_speedup']:.1f}x)",
    )
    assert report["grouped_speedup"] >= 1.0
    # the vectorized split wins on memory and determinism; its time is
    # near parity with the dict loop on small logs, so only guard
    # against a gross regression here
    assert report["split_speedup"] >= 0.5

    from repro.experiments import ExperimentRunner

    system = _build_fleet(2_000, _templates(), factories=_mixed_factories())
    runner = ExperimentRunner(workers=1)
    benchmark(
        lambda: runner.run_fleet(system, engine="auto", materialize=False)
    )


def main(argv=None) -> int:
    from benchcli import flag_value, gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_fleet.json"),
        MIN_SPEEDUP,
    )
    raw = flag_value(args, "--objects")
    n_objects = int(raw) if raw is not None else FULL_OBJECTS
    raw = flag_value(args, "--workers")
    workers = int(raw) if raw is not None else None
    raw = flag_value(args, "--serial-sample")
    serial_sample = int(raw) if raw is not None else SERIAL_SAMPLE
    report = run_fleet_bench(
        n_objects=n_objects, workers=workers, serial_sample=serial_sample
    )
    write_report(report, out)
    print(
        f"fleet ({report['objects']} objects, m={TEMPLATE_M}, "
        f"{report['workers']} workers): serial "
        f"{report['serial_objects_per_s']:,.0f} obj/s, grouped "
        f"{report['grouped_objects_per_s']:,.0f} obj/s, sharded "
        f"{report['sharded_objects_per_s']:,.0f} obj/s, split "
        f"{report['split_speedup']:.1f}x -> {out}"
    )
    return gate_exit(report["speedup"], gate, strict, label="speedup")


if __name__ == "__main__":
    sys.exit(main())
