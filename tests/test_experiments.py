"""Tests for the ``repro.experiments`` orchestration subsystem."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from dataclasses import replace

import pytest

from repro import CostModel, optimal_cost, simulate
from repro.analysis.sweep import SweepPoint, algorithm1_factory, sweep_grid
from repro.experiments import (
    ArtifactStore,
    ConsoleProgress,
    ExperimentRunner,
    NullCache,
    ResultCache,
    Scenario,
    WorkerCrashError,
    content_key,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
    summary_table,
    trace_digest,
    unregister_scenario,
)
from repro.workloads import uniform_random_trace

from conftest import fleet_reference

LAMS = (5.0, 50.0)
ALPHAS = (0.2, 0.5, 1.0)
ACCS = (0.0, 0.5, 1.0)


def small_trace_factory(seed: int):
    return uniform_random_trace(n=3, m=40, horizon=300.0, seed=seed)


def make_scenario(name="tmp-scenario", **overrides) -> Scenario:
    defaults = dict(
        name=name,
        description="test scenario",
        trace_factory=small_trace_factory,
        policy_factory=__import__(
            "repro.analysis.sweep", fromlist=["algorithm1_factory"]
        ).algorithm1_factory,
        lambdas=LAMS,
        alphas=ALPHAS,
        accuracies=ACCS,
        seeds=(7,),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


@pytest.fixture
def scenario():
    return make_scenario()


#: the one job ``crashing_factory`` kills its worker on
CRASH_CELL = (LAMS[1], ALPHAS[1], ACCS[1])


def crashing_factory(trace, lam, alpha, accuracy, seed):
    """``algorithm1_factory``, except that a pool worker building the
    :data:`CRASH_CELL` policy dies on the spot (never the test process)."""
    from repro.analysis.sweep import algorithm1_factory

    if (
        (lam, alpha, accuracy) == CRASH_CELL
        and multiprocessing.parent_process() is not None
    ):
        os._exit(1)
    return algorithm1_factory(trace, lam, alpha, accuracy, seed)


def rewrite_segments(cache_dir, edit) -> None:
    """Rewrite every result-cache segment under ``cache_dir`` line by
    line: ``edit(entry)`` gives the parsed line's replacement text (a
    newline is appended), or None to delete the line.  Each rewritten
    segment is dated a minute back, as an earlier run's segment would
    be: readers take segments in modification order, and a later run's
    lines must not tie with these on a coarse file clock."""
    segments = list(cache_dir.glob("*.jsonl"))
    assert segments
    for path in segments:
        lines = [
            edit(json.loads(line))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        path.write_text(
            "".join(f"{line}\n" for line in lines if line is not None),
            encoding="utf-8",
        )
        past = path.stat().st_mtime_ns - 60 * 10**9
        os.utime(path, ns=(past, past))


def _cost_field(entry: dict) -> str:
    return "optimal_cost" if entry["key"]["kind"] == "opt" else "online_cost"


def _with_cost(cost):
    """A segment edit that keeps each line's id but stores ``cost`` as
    its cost field."""
    return lambda e: json.dumps({**e, "value": {_cost_field(e): cost}})


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for expected in ("fig25", "fig28", "fig29", "fig32", "ablation-alpha",
                         "tight-robustness", "tight-consistency",
                         "wang-counterexample", "adversarial-lower-bound",
                         "smoke"):
            assert expected in names

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="fig25"):
            get_scenario("no-such-scenario")

    def test_register_round_trip(self):
        sc = make_scenario("tmp-round-trip")
        register_scenario(sc)
        try:
            assert get_scenario("tmp-round-trip") is sc
            assert "tmp-round-trip" in scenario_names()
        finally:
            unregister_scenario("tmp-round-trip")
        assert "tmp-round-trip" not in scenario_names()

    def test_register_decorator(self):
        @register_scenario
        def tmp_decorated() -> Scenario:
            return make_scenario("tmp-decorated")

        try:
            assert get_scenario("tmp-decorated").description == "test scenario"
        finally:
            unregister_scenario("tmp-decorated")

    def test_duplicate_registration_rejected(self):
        register_scenario(make_scenario("tmp-dup"))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(make_scenario("tmp-dup"))
        finally:
            unregister_scenario("tmp-dup")

    def test_tag_filter(self):
        figures = list_scenarios(tag="figures")
        assert {s.name for s in figures} >= {"fig25", "fig32"}
        assert all("figures" in s.tags for s in figures)

    def test_with_grid_rescales(self):
        sc = get_scenario("fig25").with_grid(alphas=(0.0, 1.0), accuracies=(1.0,))
        assert sc.alphas == (0.0, 1.0)
        assert sc.accuracies == (1.0,)
        assert sc.lambdas == get_scenario("fig25").lambdas
        assert sc.n_jobs == 2

    def test_invalid_trace_params_rejected(self):
        with pytest.raises(ValueError, match="trace_params"):
            make_scenario("tmp-bad", trace_params=("bogus",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="alphas"):
            make_scenario("tmp-empty", alphas=())

    def test_n_jobs(self, scenario):
        assert scenario.n_jobs == len(LAMS) * len(ALPHAS) * len(ACCS)


# ----------------------------------------------------------------------
# runner: parallel == serial
# ----------------------------------------------------------------------
def reference_points(trace, lambdas, alphas, accuracies, seed):
    """Each grid cell simulated alone on the reference simulator, in
    ``sweep_grid`` order, with its own offline optimum."""
    points = []
    for lam in lambdas:
        model = CostModel(lam=lam, n=trace.n)
        opt = optimal_cost(trace, model)
        for alpha in alphas:
            for acc in accuracies:
                policy = algorithm1_factory(trace, lam, alpha, acc, seed)
                online = simulate(trace, model, policy).total_cost
                points.append(SweepPoint(lam, alpha, acc, online, opt))
    return points


class TestEquivalence:
    def test_run_grid_matches_reference_cells(self):
        trace = small_trace_factory(7)
        reference = reference_points(trace, LAMS, ALPHAS, ACCS, seed=7)
        default = sweep_grid(trace, LAMS, ALPHAS, ACCS, seed=7)
        assert default.points == reference
        for workers in (1, 2):
            got = sweep_grid(
                trace, LAMS, ALPHAS, ACCS, seed=7,
                runner=ExperimentRunner(workers=workers),
            )
            assert got.points == reference

    def test_scenario_parallel_matches_serial(self, scenario):
        serial = ExperimentRunner(workers=1).run(scenario)
        parallel = ExperimentRunner(workers=2).run(scenario)
        assert [r.online_cost for r in serial.results] == [
            r.online_cost for r in parallel.results
        ]
        assert [r.optimal_cost for r in serial.results] == [
            r.optimal_cost for r in parallel.results
        ]
        assert serial.sweep_result(7).points == parallel.sweep_result(7).points

    def test_multi_seed_scenario(self, scenario):
        multi = replace(scenario, seeds=(1, 2))
        result = ExperimentRunner(workers=2).run(multi)
        assert len(result) == 2 * scenario.n_jobs
        assert result.seeds() == [1, 2]
        with pytest.raises(ValueError, match="seeds"):
            result.sweep_result()
        s1 = result.sweep_result(1)
        assert len(s1.points) == scenario.n_jobs


class TestFig25Acceptance:
    """The acceptance grid: fig25 rows identical across execution modes
    (2 workers == 1 worker == ``sweep_grid``) and to the reference
    simulator cell by cell."""

    def test_fig25_parallel_serial_and_legacy_agree(self):
        scenario = get_scenario("fig25").with_grid(
            alphas=(0.0, 0.5, 1.0), accuracies=(0.0, 1.0)
        )
        serial = ExperimentRunner(workers=1).run(scenario)
        parallel = ExperimentRunner(workers=2).run(scenario)
        assert [r.as_row() for r in serial.results] == [
            r.as_row() for r in parallel.results
        ]
        trace = scenario.build_trace(lam=10.0, alpha=0.0, accuracy=0.0, seed=0)
        legacy = sweep_grid(
            trace, scenario.lambdas, scenario.alphas, scenario.accuracies,
            seed=0,
        )
        reference = reference_points(
            trace, scenario.lambdas, scenario.alphas, scenario.accuracies, 0
        )
        assert legacy.points == parallel.sweep_result().points == reference


# ----------------------------------------------------------------------
# dispatch: one packer, one pool task per chunk
# ----------------------------------------------------------------------
def _shape(chunks):
    """Each chunk as ``[(trace, cells, with_optimum)]`` per sub-slab."""
    return [[(d, len(cells), opt) for d, _, cells, opt in c] for c in chunks]


def _group(d, cells, with_optimum=True):
    return (d, 10.0, [(i, 0.5, 1.0, 0) for i in range(cells)], with_optimum)


class TestDispatch:
    @pytest.mark.parametrize(
        "workers,groups,lengths,shape",
        [
            # long-grid: a split group's optimum goes alone, and its
            # cells split into workers x 2 sub-slabs of at most 31
            (2, [_group("g", 121)], {"g": 200_000},
             [[("g", 0, True)]] + [[("g", 31, False)]] * 3
             + [[("g", 28, False)]]),
            # adaptive-grid: 9 cells, at most workers x 2 sub-slabs
            (2, [_group("g", 9)], {"g": 11_688},
             [[("g", 0, True)]] + [[("g", 3, False)]] * 3),
            # fleet-log: one-object groups pack by the budget, each
            # carrying its optimum
            (1, [_group(f"o{i}", 1) for i in range(16)],
             {f"o{i}": 16 for i in range(16)},
             [[(f"o{4 * k + j}", 1, True) for j in range(4)]
              for k in range(4)]),
            # an optimum whose cells all hit the cache runs alone, once
            (2, [_group("a", 0), _group("b", 6, False)],
             {"a": 500, "b": 500},
             [[("a", 0, True)]] + [[("b", 2, False)]] * 3),
        ],
        ids=["long-grid", "adaptive-grid", "fleet-log", "cached-cells"],
    )
    def test_packer_rules(self, workers, groups, lengths, shape):
        chunks = ExperimentRunner(workers=workers)._chunks(groups, lengths)
        assert _shape(chunks) == shape

    def test_grid_run_is_one_task_per_chunk(self, scenario):
        """Each (trace, lambda) group of 9 cells on 2 workers: the
        optimum alone plus 3 three-cell sub-slabs, one pool task each."""
        from repro.obs import metrics

        with metrics.enabled_scope():
            metrics.reset()
            ExperimentRunner(workers=2).run(scenario)
            snap = metrics.drain()
        spans = [
            s["tags"] for s in snap["spans"] if s["name"] == "runner.chunk"
        ]
        assert [t["kind"] for t in spans] == ["sim"] * 8
        assert sorted(t["cells"] for t in spans) == [0] * 2 + [3] * 6

    def test_cached_cells_optimum_runs_alone_once(
        self, scenario, tmp_path, monkeypatch
    ):
        import repro.experiments.runner as runner_mod
        from repro.obs import metrics

        cold = ExperimentRunner(workers=1, cache=ResultCache(tmp_path)).run(
            scenario
        )
        rewrite_segments(
            tmp_path,
            lambda e: None if e["key"]["kind"] == "opt" else json.dumps(e),
        )
        calls = []
        real = runner_mod.optimal_cost

        def counting(trace, model):
            calls.append(model.lam)
            return real(trace, model)

        monkeypatch.setattr(runner_mod, "optimal_cost", counting)
        with metrics.enabled_scope():
            metrics.reset()
            runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
            warm = runner.run(scenario)
            snap = metrics.drain()
        assert warm.cached == scenario.n_jobs
        assert warm.opt_executed == len(LAMS)
        assert calls == list(LAMS)
        cells = [
            s["tags"]["cells"]
            for s in snap["spans"]
            if s["name"] == "runner.chunk"
        ]
        assert cells == [0] * len(LAMS)
        assert [r.as_row() for r in warm.results] == [
            {**r.as_row(), "cached": True} for r in cold.results
        ]


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
class TestCache:
    def test_hit_miss_and_zero_resim(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = ExperimentRunner(workers=2, cache=cache).run(scenario)
        assert first.executed == scenario.n_jobs
        assert first.cached == 0
        second = ExperimentRunner(workers=2, cache=ResultCache(tmp_path / "cache")).run(
            scenario
        )
        assert second.executed == 0
        assert second.cached == scenario.n_jobs
        assert second.opt_executed == 0
        assert [r.online_cost for r in first.results] == [
            r.online_cost for r in second.results
        ]

    def test_version_bump_invalidates(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(workers=1, cache=cache).run(scenario)
        bumped = replace(scenario, version=scenario.version + 1)
        rerun = ExperimentRunner(workers=1, cache=cache).run(bumped)
        assert rerun.executed == scenario.n_jobs
        assert rerun.cached == 0

    def test_trace_content_invalidates(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(workers=1, cache=cache).run(scenario)
        other = replace(scenario, seeds=(8,))  # different trace content
        rerun = ExperimentRunner(workers=1, cache=cache).run(other)
        assert rerun.executed == scenario.n_jobs

    def test_resume_after_interrupt(self, scenario, tmp_path):
        """A partial run's cache entries are reused by the full grid."""
        cache_dir = tmp_path / "cache"
        partial = scenario.with_grid(alphas=ALPHAS[:1])
        ExperimentRunner(workers=2, cache=ResultCache(cache_dir)).run(partial)
        full = ExperimentRunner(workers=2, cache=ResultCache(cache_dir)).run(
            scenario
        )
        assert full.cached == partial.n_jobs
        assert full.executed == scenario.n_jobs - partial.n_jobs
        serial = ExperimentRunner(workers=1).run(scenario)
        assert [r.online_cost for r in full.results] == [
            r.online_cost for r in serial.results
        ]

    def test_worker_crash_is_a_clear_error_and_resumes(self, scenario, tmp_path):
        """A killed pool worker surfaces as WorkerCrashError naming the
        task kind and the cache; a re-run on the same cache executes
        exactly the cells not cached before the crash."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        cache_dir = tmp_path / "cache"
        crashing = replace(scenario, policy_factory=crashing_factory)
        runner = ExperimentRunner(workers=2, cache=ResultCache(cache_dir))
        with pytest.raises(WorkerCrashError) as err:
            runner.run(crashing)
        msg = str(err.value)
        assert re.search(
            r"a worker process died while running (opt, )?sim tasks", msg
        )
        assert f"cached in {cache_dir}" in msg
        assert "re-running with the same cache resumes" in msg
        n_sim = len({
            e["id"]
            for path in cache_dir.glob("*.jsonl")
            for e in map(json.loads, path.read_text(encoding="utf-8").splitlines())
            if e["key"]["kind"] == "sim"
        })
        rerun = ExperimentRunner(workers=2, cache=ResultCache(cache_dir)).run(
            scenario
        )
        assert rerun.cached == n_sim
        assert rerun.executed == scenario.n_jobs - n_sim
        clean = ExperimentRunner(workers=1).run(scenario)
        assert [
            (r.job, r.online_cost, r.optimal_cost) for r in rerun.results
        ] == [(r.job, r.online_cost, r.optimal_cost) for r in clean.results]

    def test_closure_factories_never_share_cache_entries(self, tmp_path):
        """Distinct closures share a __qualname__, so run_grid must not
        serve one parameterisation's cached rows to the other."""
        from repro.algorithms import AdaptiveReplication
        from repro.predictions import FixedPredictor

        def make_factory(beta):
            def factory(trace, lam, alpha, accuracy, seed):
                return AdaptiveReplication(
                    FixedPredictor(False), alpha, beta=beta
                )

            return factory

        trace = small_trace_factory(3)
        runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
        args = (trace, (30.0,), (0.4,), (0.0,))
        low = runner.run_grid(*args, factory=make_factory(0.1))
        high = runner.run_grid(*args, factory=make_factory(5.0))
        serial_high = sweep_grid(*args, factory=make_factory(5.0))
        assert high.points == serial_high.points
        serial_low = sweep_grid(*args, factory=make_factory(0.1))
        assert low.points == serial_low.points

    def test_module_level_factory_grid_is_cached(self, tmp_path):
        trace = small_trace_factory(3)
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(workers=1, cache=cache)
        args = (trace, (30.0,), (0.4,), (0.0, 1.0))
        runner.run_grid(*args)  # algorithm1_factory: stable identity
        hits_before = cache.hits
        runner.run_grid(*args)
        assert cache.hits > hits_before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda e: "[]",
            lambda e: json.dumps({**e, "value": {}}),
            _with_cost(True),
            _with_cost("1.5"),
            _with_cost("nan"),
            _with_cost("-inf"),
            _with_cost(float("nan")),
            _with_cost(-1.0),
            _with_cost(10**400),
        ],
        ids=[
            "list", "no-cost", "true", "string", "nan-string",
            "inf-string", "nan", "negative", "huge-int",
        ],
    )
    def test_malformed_entries_are_misses(self, scenario, tmp_path, edit):
        """An entry of the wrong shape, or whose cost is not a finite,
        non-negative number, re-runs its cell (simulation and optimum
        alike) instead of crashing the run or serving a bad cost, and
        the re-run's line supersedes it."""
        cold = ExperimentRunner(workers=1).run(scenario)
        cache_dir = tmp_path / "cache"
        ExperimentRunner(workers=1, cache=ResultCache(cache_dir)).run(scenario)
        rewrite_segments(cache_dir, edit)
        warm = ExperimentRunner(workers=1, cache=ResultCache(cache_dir)).run(
            scenario
        )
        assert warm.executed == scenario.n_jobs and warm.cached == 0
        assert [(r.online_cost, r.optimal_cost) for r in warm.results] == [
            (r.online_cost, r.optimal_cost) for r in cold.results
        ]
        again = ExperimentRunner(workers=1, cache=ResultCache(cache_dir)).run(
            scenario
        )
        assert again.cached == scenario.n_jobs and again.opt_executed == 0

    def test_no_cache_executes_everything(self, scenario):
        runner = ExperimentRunner(workers=1, cache=NullCache())
        r1 = runner.run(scenario)
        r2 = runner.run(scenario)
        assert r1.executed == r2.executed == scenario.n_jobs

    def test_cache_store_primitives(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"kind": "sim", "lam": 10.0}
        assert cache.get(payload) is None
        cache.put(payload, {"online_cost": 3.5})
        assert cache.get(payload) == {"online_cost": 3.5}
        assert cache.contains(payload)
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.clear() == 1
        assert cache.get(payload) is None

    @pytest.mark.parametrize(
        "edit",
        [lambda line: "[]\n", lambda line: line[: len(line) // 2]],
        ids=["list", "truncated"],
    )
    def test_unreadable_entries_are_not_counted(self, tmp_path, edit):
        """``contains`` and ``len()`` agree with ``get`` on an entry it
        cannot read, and only ``get`` moves the hit/miss counters."""
        payload = {"kind": "sim", "lam": 10.0}
        ResultCache(tmp_path).put(payload, {"online_cost": 3.5})
        (path,) = tmp_path.glob("*.jsonl")
        path.write_text(edit(path.read_text()))
        cache = ResultCache(tmp_path)
        assert not cache.contains(payload)
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.get(payload) is None
        assert cache.hits == 0 and cache.misses == 1

    def test_content_key_canonical(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_trace_digest_sensitivity(self):
        t1 = small_trace_factory(1)
        t2 = small_trace_factory(2)
        assert trace_digest(t1) == trace_digest(small_trace_factory(1))
        assert trace_digest(t1) != trace_digest(t2)


# ----------------------------------------------------------------------
# fleet integration
# ----------------------------------------------------------------------
class TestFleet:
    def _system(self):
        from repro import (
            LearningAugmentedReplication,
            MultiObjectSystem,
            ObjectSpec,
            OraclePredictor,
        )

        def factory(trace, model):
            return LearningAugmentedReplication(OraclePredictor(trace), 0.3)

        specs = [
            ObjectSpec(
                object_id=f"obj-{i}",
                trace=uniform_random_trace(n=3, m=30, horizon=200.0, seed=i),
                lam=50.0 * (i + 1),
                policy_factory=factory,
            )
            for i in range(4)
        ]
        return MultiObjectSystem(3, specs)

    def test_fleet_parallel_matches_serial(self):
        system = self._system()
        reference = fleet_reference(system)
        serial = system.run()
        parallel = system.run(runner=ExperimentRunner(workers=2))
        for report in (serial, parallel):
            assert [
                (o.object_id, o.online, o.optimal) for o in report.outcomes
            ] == reference
        assert serial.fleet_ratio == parallel.fleet_ratio

    def test_fleet_skip_optimal(self):
        system = self._system()
        report = system.run(compute_optimal=False,
                            runner=ExperimentRunner(workers=2))
        assert all(o.optimal == 0.0 for o in report.outcomes)


# ----------------------------------------------------------------------
# artifacts and progress
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_save_and_load(self, scenario, tmp_path):
        result = ExperimentRunner(workers=1).run(scenario)
        store = ArtifactStore(tmp_path / "artifacts")
        out_dir = store.save(result)
        assert (out_dir / "result.json").exists()
        assert (out_dir / "rows.csv").exists()
        loaded = store.load(scenario.name)
        assert loaded["scenario"] == scenario.name
        assert len(loaded["rows"]) == scenario.n_jobs
        assert set(loaded["grid"]["lambdas"]) == set(LAMS)
        prov = loaded["provenance"]
        assert "created_at" in prov and "package_version" in prov
        assert store.names() == [scenario.name]
        csv_lines = (out_dir / "rows.csv").read_text().strip().splitlines()
        assert len(csv_lines) == scenario.n_jobs + 1  # header

    def test_result_json_is_valid_json(self, scenario, tmp_path):
        result = ExperimentRunner(workers=1).run(scenario)
        out_dir = ArtifactStore(tmp_path).save(result, name="custom")
        payload = json.loads((out_dir / "result.json").read_text())
        assert payload["stats"]["jobs"] == scenario.n_jobs


class TestProgressAndSummary:
    def test_console_progress_reports(self, scenario, capsys):
        import io

        stream = io.StringIO()
        runner = ExperimentRunner(
            workers=1, progress=ConsoleProgress(stream=stream, min_interval=0.0)
        )
        runner.run(scenario)
        out = stream.getvalue()
        assert f"[{scenario.name}]" in out
        assert "finished" in out

    def test_summary_table_contents(self, scenario):
        result = ExperimentRunner(workers=2).run(scenario)
        table = summary_table(result)
        assert scenario.name in table
        assert "lambda = 5" in table and "lambda = 50" in table
        assert "workers: 2" in table


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_experiments_list(self, capsys):
        from repro.cli import main

        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig25" in out and "smoke" in out

    def test_experiments_list_tag(self, capsys):
        from repro.cli import main

        assert main(["experiments", "list", "--tag", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "fig25" not in out

    def test_experiments_run_smoke(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "experiments", "run", "smoke",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "artifacts"),
            "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario: smoke" in out
        assert "artifacts saved" in out
        assert (tmp_path / "artifacts" / "smoke" / "rows.csv").exists()
        # warm re-run resolves entirely from cache
        assert main([
            "experiments", "run", "smoke",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "executed 0, cached 8" in out

    def test_experiments_run_worker_crash_exits_1(self, capsys, tmp_path):
        from repro.cli import main

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        register_scenario(
            make_scenario("tmp-crash", policy_factory=crashing_factory)
        )
        try:
            rc = main([
                "experiments", "run", "tmp-crash", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"), "--quiet",
            ])
        finally:
            unregister_scenario("tmp-crash")
        assert rc == 1
        err = capsys.readouterr().err
        assert "a worker process died while running" in err
        assert "re-running with the same cache resumes" in err
        assert "Traceback" not in err

    def test_experiments_run_no_cache(self, capsys):
        from repro.cli import main

        assert main(["experiments", "run", "smoke", "--workers", "1",
                     "--no-cache", "--quiet"]) == 0
        assert "executed 8" in capsys.readouterr().out

    def test_experiments_run_unknown_name(self, capsys):
        from repro.cli import main

        assert main(["experiments", "run", "nope", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_experiments_run_coarse(self, capsys):
        from repro.cli import main

        assert main(["experiments", "run", "smoke", "--workers", "1",
                     "--no-cache", "--coarse", "--quiet"]) == 0
        assert "scenario: smoke" in capsys.readouterr().out

    def test_coarsen_helper(self):
        from repro.cli import _coarsen

        assert _coarsen((1, 2, 3, 4, 5, 6, 7), keep=3) == (1, 4, 7)
        assert _coarsen((1, 2), keep=3) == (1, 2)
