"""The benchmark's four workloads, all driven through the public API.

Each workload has a set-up (timed as ``setup_s``), a measured pass
(closed loop: one caller, passes back to back), a traced pass that
replays the same work serially in-process with a span around every
call into a layer, and the probes the per-layer metrics need.

Why these four: dropping any one leaves a layer unmeasured.

* ``paper-grid`` -- per-cell fixed work, runner dispatch and result
  cache writes (484 cells, 4 DP solves at the paper's m = 11,688);
* ``long-grid`` -- per-request kernel work, the DP at scale and the
  runner's npz spool hand-off (121 cells at m = 200k);
* ``adaptive-grid`` -- the reference simulator, the only tier the
  adapted algorithm (Figures 29-32) runs on;
* ``fleet-log`` -- access-log ingest, one DP solve and one engine call
  per object, engine-selection crossovers and per-task dispatch.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from collections import Counter
from pathlib import Path

from repro import (
    ConventionalReplication,
    CostModel,
    ExperimentRunner,
    LearningAugmentedReplication,
    MultiObjectSystem,
    NoisyOraclePredictor,
    ObjectSpec,
    OraclePredictor,
    ResultCache,
    WangReplication,
    get_scenario,
    load_access_log_csv,
    optimal_cost,
    robustness_bound,
    run_slab,
    simulate,
)
from repro.core.engine import run_policy_slab
from repro.experiments import trace_digest
from repro.predictions import FixedPredictor
from repro.workloads import ibm_like_trace

from .checks import Cell
from .inputs import Size, write_access_log

#: the CLI's ``experiments run --coarse`` sub-grid of alpha x accuracy
COARSE = (0.0, 0.5, 1.0)
PAPER_SERVERS = 10
FLEET_SERVERS = 8
FLEET_LAM = 100.0
FLEET_ALPHA = 0.5
FLEET_ACCURACY = 0.7


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def tiers(runs) -> dict[str, int]:
    """Cells per engine tier, read from each result's ``engine`` field
    (reference-simulator results carry none)."""
    return dict(Counter(getattr(r, "engine", "reference") for r in runs))


class Workload:
    """Interface shared by the grid and fleet workloads."""

    name: str
    #: cells re-run through the reference simulator per run
    reference_sample: int
    #: whether ``prepare`` writes input files
    writes_inputs = False

    def prepare(self, seed: int, size: Size, workdir: Path) -> None:
        """Write benchmark-generated input files (not timed)."""

    def check_payloads(self, pass_dir: Path) -> None:
        """Raise unless the traced pass's cache payloads are the keys a
        runner pass wrote into ``pass_dir``."""

    def setup(self, seed, size, workdir, tracer) -> None:
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> list[Cell]:
        raise NotImplementedError

    def traced_pass(self, tracer, cache: ResultCache) -> list[Cell]:
        raise NotImplementedError

    def reference_cost(self, key: tuple) -> float:
        raise NotImplementedError


# ----------------------------------------------------------------------
# grid workloads
# ----------------------------------------------------------------------
class GridWorkload(Workload):
    """Registered figure scenarios on one seeded IBM-like trace."""

    def __init__(
        self,
        name: str,
        figures: tuple[str, ...],
        long: bool,
        coarse: bool,
        algorithm1: bool,
        reference_sample: int,
    ):
        self.name = name
        self.figures = figures
        self.long = long
        self.coarse = coarse
        self.algorithm1 = algorithm1
        self.reference_sample = reference_sample

    def setup(self, seed, size, workdir, tracer) -> None:
        m = size.long_m if self.long else size.paper_m
        kwargs = {} if m is None else {"m": m}
        with tracer.span("workloads.trace", m=m):
            self.trace = ibm_like_trace(n=PAPER_SERVERS, seed=seed, **kwargs)
        self.seed = seed
        coarse = self.coarse or size.coarse_paper
        trace = self.trace
        self.scenarios = {}
        for fig in self.figures:
            sc = get_scenario(fig)
            # the benchmark hands the runner its generated trace; the
            # seed also drives the noisy-oracle predictions
            self.scenarios[fig] = dataclasses.replace(
                sc,
                trace_factory=lambda: trace,
                trace_params=(),
                seeds=(seed,),
                alphas=COARSE if coarse else sc.alphas,
                accuracies=COARSE if coarse else sc.accuracies,
            )
        self.runner = ExperimentRunner(workers=workers())

    @property
    def n_cells(self) -> int:
        return sum(sc.n_jobs for sc in self.scenarios.values())

    def _cell(self, fig, alpha, accuracy, online, optimal) -> Cell:
        bound = robustness_bound(alpha) if self.algorithm1 and alpha > 0 else None
        return Cell((fig, alpha, accuracy), online, optimal, bound, len(self.trace))

    def run_pass(self, pass_dir: Path) -> list[Cell]:
        # a cold cache per pass, as a first `repro experiments run` sees
        self.runner.cache = ResultCache(pass_dir / "cache")
        cells = []
        for fig, sc in self.scenarios.items():
            for r in self.runner.run(sc).results:
                cells.append(
                    self._cell(
                        fig, r.job.alpha, r.job.accuracy, r.online_cost, r.optimal_cost
                    )
                )
        return cells

    def _grid(self, sc) -> list[tuple[float, float, int]]:
        return [(a, acc, self.seed) for a in sc.alphas for acc in sc.accuracies]

    def traced_pass(self, tracer, cache: ResultCache) -> list[Cell]:
        """The runner's work for every figure, serially: cache lookups,
        one DP per lambda, one engine slab, cache writes."""
        digest = trace_digest(self.trace)
        self.payloads = []
        cells = []
        for fig, sc in self.scenarios.items():
            lam = sc.lambdas[0]
            model = CostModel(lam=lam, n=self.trace.n)
            opt_payload = {"kind": "opt", "trace": digest, "lam": lam}
            with tracer.span("experiments.cache.get"):
                cache.get(opt_payload)
            with tracer.span("offline.dp", m=len(self.trace)):
                opt = optimal_cost(self.trace, model)
            with tracer.span("experiments.cache.put"):
                cache.put(opt_payload, {"optimal_cost": opt})
            grid = self._grid(sc)
            payloads = [
                {
                    "kind": "sim",
                    "scenario": sc.name,
                    "scenario_version": sc.version,
                    "salt": sc.cache_salt,
                    "trace": digest,
                    "lam": lam,
                    "alpha": a,
                    "accuracy": acc,
                    "seed": seed,
                }
                for a, acc, seed in grid
            ]
            for p in payloads:
                with tracer.span("experiments.cache.get"):
                    cache.get(p)
            with tracer.span("engine", cells=len(grid), m=len(self.trace)) as tags:
                runs = run_slab(self.trace, model, grid, sc.policy_factory, engine="auto")
            tags["tiers"] = tiers(runs)
            for p, run, (a, acc, _) in zip(payloads, runs, grid):
                with tracer.span("experiments.cache.put"):
                    cache.put(p, {"online_cost": run.total_cost})
                cells.append(self._cell(fig, a, acc, run.total_cost, opt))
            self.payloads += [opt_payload] + payloads
        return cells

    def check_payloads(self, pass_dir: Path) -> None:
        written = ResultCache(pass_dir / "cache")
        missing = [p for p in self.payloads if written.get(p) is None]
        if missing:
            raise RuntimeError(
                f"{len(missing)} traced cache payloads were never written by "
                f"the runner, e.g. {missing[0]}"
            )

    def reference_cost(self, key: tuple) -> float:
        fig, alpha, accuracy = key
        sc = self.scenarios[fig]
        lam = sc.lambdas[0]
        policy = sc.policy_factory(self.trace, lam, alpha, accuracy, self.seed)
        return simulate(self.trace, CostModel(lam=lam, n=self.trace.n), policy).total_cost

    # probes -----------------------------------------------------------
    def probe_slab(self):
        """Algorithm-1 kernel probe: the first figure's trace, lambda and
        cells (the adapted algorithm has no kernel path)."""
        sc = next(iter(self.scenarios.values()))
        return self.trace, sc.lambdas[0], self._grid(sc)

    def stream_slabs(self):
        for sc in self.scenarios.values():
            lam = sc.lambdas[0]
            preds = [
                sc.policy_factory(self.trace, lam, a, acc, seed).predictor
                for a, acc, seed in self._grid(sc)
            ]
            yield self.trace, lam, preds

    def main_trace(self):
        return self.trace

    def slab_shape(self) -> tuple[int, int]:
        """(cells, requests) of one runner chunk, for backend resolution."""
        sc = next(iter(self.scenarios.values()))
        return -(-sc.n_jobs // (workers() * 2)), len(self.trace)


# ----------------------------------------------------------------------
# fleet workload
# ----------------------------------------------------------------------
def _oracle_policy(trace, model):
    return LearningAugmentedReplication(OraclePredictor(trace), FLEET_ALPHA)


def _noisy_policy(trace, model, seed):
    return LearningAugmentedReplication(
        NoisyOraclePredictor(trace, FLEET_ACCURACY, seed=seed), FLEET_ALPHA
    )


def _conventional_policy(trace, model):
    return ConventionalReplication()


def _wang_policy(trace, model):
    return WangReplication()


#: robustness bound per policy slot (conventional is Algorithm 1 at
#: alpha = 1; Wang has no bound of the paper's to check)
FLEET_BOUNDS = (
    robustness_bound(FLEET_ALPHA),
    robustness_bound(FLEET_ALPHA),
    robustness_bound(1.0),
    None,
)


class FleetWorkload(Workload):
    """Per-object fleet ingested from a seeded IBM-format access log."""

    name = "fleet-log"
    reference_sample = 32
    writes_inputs = True

    def prepare(self, seed, size, workdir) -> None:
        log = write_access_log(workdir / "access.log", seed, size)
        (workdir / "access.json").write_text(
            json.dumps({"objects": log.objects, "reads": log.reads, "rows": log.rows})
        )

    def setup(self, seed, size, workdir, tracer) -> None:
        with tracer.span("system.ingest") as tags:
            traces = load_access_log_csv(
                workdir / "access.log", n=FLEET_SERVERS, seed=seed
            )
        log = json.loads((workdir / "access.json").read_text())
        tags["rows"] = log["rows"]
        reads = sum(len(t) for t in traces.values())
        if len(traces) != log["objects"] or reads != log["reads"]:
            raise RuntimeError(
                f"ingested {len(traces)} objects / {reads} reads, "
                f"generated {log['objects']} / {log['reads']}"
            )
        factories = (
            _oracle_policy,
            functools.partial(_noisy_policy, seed=seed),
            _conventional_policy,
            _wang_policy,
        )
        # objects take turns among the policies in order of (requests,
        # span), so each policy gets the same mix of sizes and spans
        # whatever the seed; the fleet keeps the log's object order
        by_shape = sorted(
            traces, key=lambda o: (len(traces[o]), traces[o].times[-1], o)
        )
        self.slots = {oid: k % 4 for k, oid in enumerate(by_shape)}
        self.specs = [
            ObjectSpec(oid, trace, FLEET_LAM, factories[self.slots[oid]])
            for oid, trace in traces.items()
        ]
        self.seed = seed
        self.system = MultiObjectSystem(FLEET_SERVERS, self.specs)
        self.by_id = {s.object_id: s for s in self.specs}
        self.runner = ExperimentRunner(workers=workers())

    @property
    def n_cells(self) -> int:
        return len(self.specs)

    def _cell(self, i, online, optimal) -> Cell:
        spec = self.specs[i]
        bound = FLEET_BOUNDS[self.slots[spec.object_id]]
        return Cell((spec.object_id,), online, optimal, bound, len(spec.trace))

    def run_pass(self, pass_dir: Path) -> list[Cell]:
        report = self.runner.run_fleet(self.system, compute_optimal=True, engine="auto")
        return [
            self._cell(i, o.online, o.optimal) for i, o in enumerate(report.outcomes)
        ]

    def traced_pass(self, tracer, cache: ResultCache) -> list[Cell]:
        """One DP and one engine call per object, as the runner's
        per-object groups make them (run_fleet caches nothing)."""
        cells = []
        for i, spec in enumerate(self.specs):
            model = CostModel(lam=spec.lam, n=FLEET_SERVERS)
            with tracer.span("offline.dp", m=len(spec.trace)):
                opt = optimal_cost(spec.trace, model)
            policy = spec.policy_factory(spec.trace, model)
            with tracer.span("engine", cells=1, m=len(spec.trace)) as tags:
                runs = run_policy_slab(spec.trace, [(model, policy)], "auto")
            tags["tiers"] = tiers(runs)
            cells.append(self._cell(i, runs[0].total_cost, opt))
        # the cache probe stores one payload per object, as many as a
        # paper-grid pass writes
        self.payloads = [
            {"kind": "object", "object": s.object_id, "lam": s.lam}
            for s in self.specs[:488]
        ]
        return cells

    def reference_cost(self, key: tuple) -> float:
        spec = self.by_id[key[0]]
        model = CostModel(lam=spec.lam, n=FLEET_SERVERS)
        return simulate(spec.trace, model, spec.policy_factory(spec.trace, model)).total_cost

    # probes -----------------------------------------------------------
    def main_trace(self):
        return max((s.trace for s in self.specs), key=len)

    def probe_slab(self):
        grid = [(a, acc, self.seed) for a in COARSE for acc in COARSE]
        return self.main_trace(), FLEET_LAM, grid

    def stream_slabs(self):
        for spec in self.specs:
            model = CostModel(lam=spec.lam, n=FLEET_SERVERS)
            policy = spec.policy_factory(spec.trace, model)
            if type(policy) is ConventionalReplication:
                pred = FixedPredictor(False)
            elif type(policy) is LearningAugmentedReplication:
                pred = policy.predictor
            else:
                continue
            yield spec.trace, spec.lam, [pred]

    def slab_shape(self) -> tuple[int, int]:
        return 1, len(self.main_trace())


def make_workload(name: str) -> Workload:
    if name == "fleet-log":
        return FleetWorkload()
    grids = {
        "paper-grid": (("fig25", "fig26", "fig27", "fig28"), False, False, True, 4),
        "long-grid": (("fig25",), True, False, True, 1),
        "adaptive-grid": (("fig29",), False, True, False, 2),
    }
    return GridWorkload(name, *grids[name])

