"""Fleet-scale dispatch tests: cross-object slabs, sharded workers,
streaming aggregates, chunking, and the fleet CLI.

The load-bearing property is bit-identity: grouped slab evaluation,
sharded worker dispatch, and streaming aggregation must reproduce the
serial per-object reference loop float-for-float, including mixed
Algorithm-1 + Wang fleets, which ride the kernel tier as one slab.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConventionalReplication, Trace, TraceError
from repro.algorithms.wang import WangReplication
from repro.analysis.sweep import algorithm1_factory
from repro.cli import main
from repro.experiments import ExperimentRunner
from repro.experiments.cache import trace_digest
from repro.system import (
    FleetReport,
    FleetStats,
    MultiObjectSystem,
    ObjectSpec,
    split_trace_by_object,
)
from repro.workloads import uniform_random_trace


def la_oracle(trace, model):
    return algorithm1_factory(trace, model.lam, 0.5, 1.0, 0)


def la_noisy(trace, model):
    return algorithm1_factory(trace, model.lam, 0.3, 0.7, 1)


def conventional(trace, model):
    return ConventionalReplication()


def wang(trace, model):
    return WangReplication()


FACTORIES = [la_oracle, la_noisy, conventional, wang]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def fleet_systems(draw, max_objects=8):
    """A small fleet mixing templates, lambdas, and policies (incl.
    Wang, which shares the kernel slab via the cascade replay)."""
    n = draw(st.integers(2, 4))
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 12))
        gaps = draw(
            st.lists(
                st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False),
                min_size=m,
                max_size=m,
            )
        )
        servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        times = np.cumsum(gaps)
        templates.append(Trace(n, list(zip(times.tolist(), servers))))
    k = draw(st.integers(1, max_objects))
    specs = [
        ObjectSpec(
            f"o{i:02d}",
            templates[draw(st.integers(0, len(templates) - 1))],
            draw(st.sampled_from([1.0, 5.0, 25.0])),
            draw(st.sampled_from(FACTORIES)),
        )
        for i in range(k)
    ]
    return MultiObjectSystem(n, specs)


def _mixed_system(n_objects=30, n=4, seed=0):
    templates = [
        uniform_random_trace(n, 20 + 15 * t, horizon=80.0, seed=seed + t)
        for t in range(3)
    ]
    specs = [
        ObjectSpec(
            f"obj-{i:03d}",
            templates[i % 3],
            (5.0, 25.0)[i % 2],
            FACTORIES[i % len(FACTORIES)],
        )
        for i in range(n_objects)
    ]
    return MultiObjectSystem(n, specs)


def _assert_outcomes_equal(a, b):
    assert [o.object_id for o in a.outcomes] == [o.object_id for o in b.outcomes]
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.online == y.online, x.object_id
        assert x.optimal == y.optimal, x.object_id


# ----------------------------------------------------------------------
# bit-identity: grouped slabs / sharded runner / streaming vs serial
# ----------------------------------------------------------------------


class TestFleetBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(fleet_systems())
    def test_grouped_sharded_streaming_match_serial(self, system):
        serial = system.run(engine="reference")
        grouped = system.run(engine="auto", grouped=True)
        _assert_outcomes_equal(serial, grouped)
        runner = ExperimentRunner(workers=1)
        sharded = runner.run_fleet(system, engine="auto")
        _assert_outcomes_equal(serial, sharded)
        streaming = runner.run_fleet(system, engine="auto", materialize=False)
        assert streaming.online_total == serial.online_total
        assert streaming.optimal_total == serial.optimal_total
        assert streaming.worst_object_ratio == serial.worst_object_ratio
        assert streaming.n_objects == serial.n_objects

    @settings(max_examples=10, deadline=None)
    @given(fleet_systems(max_objects=5))
    def test_grouped_kernel_slabs_match_reference(self, system):
        reference = system.run(engine="reference")
        grouped = system.run(engine="kernel", grouped=True)
        _assert_outcomes_equal(reference, grouped)

    def test_kernel_slab_matches_serial(self):
        tr = uniform_random_trace(3, 60, horizon=120.0, seed=2)
        specs = [
            ObjectSpec(f"k{i}", tr, 10.0 * (1 + i % 2), la_oracle)
            for i in range(6)
        ]
        system = MultiObjectSystem(3, specs)
        serial = system.run(engine="reference")
        kernel = system.run(engine="kernel", grouped=True)
        _assert_outcomes_equal(serial, kernel)

    def test_strict_kernel_takes_mixed_wang_fleet(self):
        """A heterogeneous Algorithm-1 + Wang fleet is a single-tier
        kernel slab now — no scalar fallback, bit-identical costs."""
        tr = uniform_random_trace(3, 30, horizon=60.0, seed=0)
        specs = [
            ObjectSpec("a", tr, 5.0, la_oracle),
            ObjectSpec("b", tr, 5.0, wang),
            ObjectSpec("c", tr, 25.0, wang),
            ObjectSpec("d", tr, 25.0, conventional),
        ]
        system = MultiObjectSystem(3, specs)
        serial = system.run(engine="reference")
        kernel = system.run(engine="kernel", grouped=True)
        _assert_outcomes_equal(serial, kernel)
        auto = system.run(engine="auto", grouped=True)
        _assert_outcomes_equal(serial, auto)

    def test_worker_pool_matches_serial(self):
        system = _mixed_system(30)
        serial = system.run(engine="reference")
        runner = ExperimentRunner(workers=2)
        sharded = runner.run_fleet(system, engine="auto")
        _assert_outcomes_equal(serial, sharded)
        streaming = runner.run_fleet(system, engine="auto", materialize=False)
        assert streaming.online_total == serial.online_total
        assert streaming.optimal_total == serial.optimal_total

    def test_skip_optimal(self):
        system = _mixed_system(8)
        runner = ExperimentRunner(workers=1)
        report = runner.run_fleet(system, compute_optimal=False, engine="kernel")
        assert report.optimal_total == 0.0
        serial = system.run(compute_optimal=False, engine="reference")
        assert report.online_total == serial.online_total


# ----------------------------------------------------------------------
# chunking
# ----------------------------------------------------------------------


class TestFleetChunking:
    def _chunk_inputs(self, specs):
        spec_digest = [trace_digest(s.trace) for s in specs]
        spec_f = [0] * len(specs)
        groups: dict = {}
        for i, s in enumerate(specs):
            groups.setdefault((spec_digest[i], s.lam), []).append(i)
        return [(d, lam, idxs) for (d, lam), idxs in groups.items()], spec_f

    def test_skewed_fleet_chunking_deterministic_and_complete(self):
        giant = uniform_random_trace(3, 3000, horizon=6000.0, seed=9)
        tiny = [
            uniform_random_trace(3, 8, horizon=20.0, seed=t) for t in range(4)
        ]
        specs = [
            ObjectSpec(f"t{i:02d}", tiny[i % 4], 5.0, la_oracle)
            for i in range(40)
        ]
        specs.insert(7, ObjectSpec("giant", giant, 5.0, la_oracle))
        runner = ExperimentRunner(workers=4)
        group_items, spec_f = self._chunk_inputs(specs)
        c1, c2 = (
            runner._fleet_chunks(
                group_items, specs, spec_f, compute_optimal=True
            )
            for _ in range(2)
        )
        assert c1 == c2  # same inputs -> byte-identical chunking
        subs = [sub for chunk in c1 for sub in chunk]
        covered = sorted(i for _, _, idxs, _, _ in subs for i in idxs)
        assert covered == list(range(len(specs)))
        assert len(c1) > 1  # the skewed fleet actually splits
        # the giant object dominates the per-chunk cost budget, so the
        # chunk carrying it holds nothing else
        for chunk in c1:
            idxs = [i for _, _, sub, _, _ in chunk for i in sub]
            if 7 in idxs:
                assert idxs == [7]
        # exactly one sub-slab per group is flagged to compute the
        # group's optimum: the one holding the group's first spec index
        flagged = [(d, lam, idxs[0]) for d, lam, idxs, _, f in subs if f]
        assert flagged == [(d, lam, idxs[0]) for d, lam, idxs in group_items]
        assert not any(
            f for chunk in runner._fleet_chunks(
                group_items, specs, spec_f, compute_optimal=False
            ) for *_, f in chunk
        )

    def test_chunk_size_override(self):
        specs = [
            ObjectSpec(
                f"o{i}", uniform_random_trace(2, 4, 10.0, seed=i), 2.0, la_oracle
            )
            for i in range(10)
        ]
        runner = ExperimentRunner(workers=2, chunk_size=3)
        group_items, spec_f = self._chunk_inputs(specs)
        chunks = runner._fleet_chunks(
            group_items, specs, spec_f, compute_optimal=True
        )
        sizes = [sum(len(idxs) for _, _, idxs, _, _ in c) for c in chunks]
        assert all(s <= 3 for s in sizes)
        assert sum(sizes) == len(specs)

    @staticmethod
    def _split_group_system():
        # a six-object (trace, lambda) group, which chunk_size=2 splits
        # across three chunks, plus two single-object groups
        tr = uniform_random_trace(3, 40, horizon=120.0, seed=5)
        other = uniform_random_trace(3, 25, horizon=90.0, seed=6)
        specs = [
            ObjectSpec(f"g{i}", tr, 10.0, FACTORIES[i % len(FACTORIES)])
            for i in range(6)
        ]
        specs += [
            ObjectSpec("h0", other, 10.0, la_oracle),
            ObjectSpec("h1", tr, 25.0, wang),
        ]
        return MultiObjectSystem(3, specs)

    def test_fleet_dispatch_is_one_task_per_chunk(self):
        """Optima ride in their fleet chunk: the pool sees one task per
        chunk and no standalone optimum tasks."""
        from repro.obs import metrics

        system = self._split_group_system()
        specs = list(system.specs)
        runner = ExperimentRunner(workers=2, chunk_size=2)
        group_items, spec_f = self._chunk_inputs(specs)
        chunks = runner._fleet_chunks(
            group_items, specs, spec_f, compute_optimal=True
        )
        with metrics.enabled_scope():
            metrics.reset()
            runner.run_fleet(system, engine="auto")
            snap = metrics.drain()
        kinds = [
            s["tags"]["kind"] for s in snap["spans"] if s["name"] == "runner.chunk"
        ]
        assert kinds == ["fleet"] * len(chunks)

    def test_group_optima_ride_in_their_chunk(self, monkeypatch):
        """A group split across chunks gets the reference optima, and its
        optimum is computed once — by the chunk holding its first object,
        never by a standalone optimum task."""
        import repro.experiments.runner as runner_mod

        system = self._split_group_system()
        serial = system.run(engine="reference")
        split = ExperimentRunner(workers=2, chunk_size=2).run_fleet(
            system, engine="auto"
        )
        _assert_outcomes_equal(serial, split)

        calls = []
        real = runner_mod.optimal_cost

        def counting(trace, model):
            calls.append((trace_digest(trace), model.lam))
            return real(trace, model)

        def no_opt_task(item):
            raise AssertionError("a fleet run queued a standalone optimum task")

        monkeypatch.setattr(runner_mod, "optimal_cost", counting)
        monkeypatch.setattr(runner_mod, "_opt_task", no_opt_task)
        runner = ExperimentRunner(workers=1, chunk_size=2)
        _assert_outcomes_equal(serial, runner.run_fleet(system, engine="auto"))
        groups = [(trace_digest(s.trace), s.lam) for s in system.specs]
        assert calls == list(dict.fromkeys(groups))
        calls.clear()
        runner.run_fleet(system, compute_optimal=False, engine="auto")
        assert calls == []

    def test_end_to_end_deterministic(self):
        system = _mixed_system(20, seed=3)
        runner = ExperimentRunner(workers=2)
        r1 = runner.run_fleet(system, engine="auto", materialize=False)
        r2 = runner.run_fleet(system, engine="auto", materialize=False)
        assert r1.online_total == r2.online_total
        assert r1.optimal_total == r2.optimal_total
        assert r1.worst_object_ratio == r2.worst_object_ratio


# ----------------------------------------------------------------------
# streaming aggregates
# ----------------------------------------------------------------------


class TestStreamingReport:
    def test_fleet_stats_accumulator(self):
        stats = FleetStats(top_k=2)
        stats.observe("a", 10.0, 5.0, 7)
        stats.observe("b", 30.0, 10.0, 3)
        stats.observe("c", 8.0, 8.0, 1)
        assert stats.n_objects == 3
        assert stats.online_total == 48.0
        assert stats.optimal_total == 23.0
        assert stats.n_requests_total == 11
        assert stats.worst_ratio == 3.0
        assert stats.worst_object_id == "b"
        offenders = stats.top_offenders()
        assert [o["object_id"] for o in offenders] == ["b", "a"]
        assert offenders[0]["n_requests"] == 3

    def test_zero_optimal_ratio_convention(self):
        stats = FleetStats()
        stats.observe("z", 0.0, 0.0, 0)
        assert stats.worst_ratio == 1.0
        stats.observe("y", 1.0, 0.0, 1)
        assert stats.worst_ratio == float("inf")

    def test_streaming_report_surface(self):
        system = _mixed_system(30)
        runner = ExperimentRunner(workers=1)
        report = runner.run_fleet(
            system, engine="auto", materialize=False, top_k=4
        )
        assert report.n_objects == 30
        with pytest.raises(ValueError):
            report.by_object()
        offenders = report.top_offenders()
        assert len(offenders) == 4
        ratios = [o["ratio"] for o in offenders]
        assert ratios == sorted(ratios, reverse=True)
        table = report.summary_table()
        assert "(top 4 of 30 objects by ratio)" in table
        assert "TOTAL" in table
        q50, q90, q99 = (
            report.ratio_quantile(0.5),
            report.ratio_quantile(0.9),
            report.ratio_quantile(0.99),
        )
        assert q50 <= q90 <= q99
        assert q99 >= report.worst_object_ratio / 10 ** (1 / 16)

    def test_materialized_table_caps_at_top_k(self):
        system = _mixed_system(12)
        report = system.run(engine="kernel")
        table = report.summary_table(top_k=3)
        assert "(top 3 of 12 objects by ratio)" in table
        full = report.summary_table()
        for outcome in report.outcomes:
            assert outcome.object_id in full

    def test_outcomes_carry_n_requests(self):
        system = _mixed_system(6)
        runner = ExperimentRunner(workers=1)
        report = runner.run_fleet(system, engine="kernel")
        for outcome, spec in zip(report.outcomes, system.specs):
            assert outcome.requests == len(spec.trace)

    def test_streaming_add_rejects_missing_result_when_materialized(self):
        report = FleetReport(materialize=True)
        with pytest.raises(ValueError):
            report.add("a", 1.0, 1.0, 1, result=None)


# ----------------------------------------------------------------------
# split_trace_by_object (vectorized; one global validation pass)
# ----------------------------------------------------------------------


class TestSplitVectorized:
    def _reference(self, rows, n):
        per: dict = {}
        for t, s, o in rows:
            per.setdefault(o, []).append((t, s))
        out = {}
        for o in sorted(per):
            items = sorted(per[o])
            out[o] = Trace(n, items)
        return out

    def test_matches_reference_on_shuffled_log(self):
        rng = np.random.default_rng(7)
        rows = []
        for i in range(40):
            times = np.cumsum(rng.random(15) + 0.01)
            for t in times.tolist():
                rows.append((t, int(rng.integers(0, 4)), f"o{i:03d}"))
        rng.shuffle(rows)
        vec = split_trace_by_object(rows, 4)
        ref = self._reference(rows, 4)
        assert list(vec) == sorted(ref)  # sorted id order
        for o, tr in vec.items():
            assert tr.times.tolist() == ref[o].times.tolist()
            assert tr.servers.tolist() == ref[o].servers.tolist()

    def test_empty_log(self):
        assert split_trace_by_object([], 3) == {}

    @pytest.mark.parametrize(
        "rows,expected",
        [
            (
                [(1.0, 0, "b"), (1.0, 1, "b"), (0.5, 0, "a")],
                "object b: request times must be strictly increasing "
                "and > 0 (violation at index 2: 1.0 <= 1.0)",
            ),
            (
                [(0.0, 0, "a"), (1.0, 1, "a")],
                "object a: request times must be strictly increasing "
                "and > 0 (violation at index 1: 0.0 <= 0.0)",
            ),
            (
                [(1.0, -2, "a"), (2.0, 0, "a")],
                "object a: server index must be >= 0, got -2",
            ),
            (
                [(1.0, 0, "a"), (2.0, 9, "a"), (0.5, 1, "b")],
                "object a: request 2 at server 9 but n=2",
            ),
            (
                [(1.0, 0, "a"), (float("nan"), 1, "a"), (0.5, 0, "b")],
                "object a: request times must be finite "
                "(violation at index 2: nan)",
            ),
            (
                [(0.5, 0, "a"), (1.0, 1, "b"), (float("inf"), 0, "b")],
                "object b: request times must be finite "
                "(violation at index 2: inf)",
            ),
        ],
    )
    def test_error_messages_match_scalar_path(self, rows, expected):
        with pytest.raises(TraceError) as err:
            split_trace_by_object(rows, 2)
        assert str(err.value) == expected

    def test_first_violating_object_in_sorted_order(self):
        # both objects are invalid; the error names the first by id
        rows = [(1.0, 9, "zz"), (2.0, 0, "zz"), (3.0, 9, "aa")]
        with pytest.raises(TraceError, match="^object aa:"):
            split_trace_by_object(rows, 2)


# ----------------------------------------------------------------------
# CLI: repro fleet run
# ----------------------------------------------------------------------


class TestFleetCLI:
    ARGS = ["fleet", "run", "--workers", "1", "--quiet"]

    def test_scenario_run(self, capsys):
        rc = main(
            self.ARGS
            + ["--scenario", "smoke", "--objects", "12", "--templates", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 objects" in out
        assert "fleet ratio" in out
        assert "TOTAL" in out

    def test_scenario_stream_mode(self, capsys):
        rc = main(
            self.ARGS
            + [
                "--scenario",
                "smoke",
                "--objects",
                "10",
                "--stream",
                "--top-k",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(top 3 of 10 objects by ratio)" in out

    def test_access_log_run(self, tmp_path, capsys):
        log = tmp_path / "fleet.csv"
        lines = ["time,server,object"]
        for i in range(4):
            for j in range(5):
                lines.append(f"{0.5 + j + i * 0.01},{(i + j) % 3},obj-{i}")
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(self.ARGS + ["--access-log", str(log), "--n", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 objects" in out
        assert "obj-0" in out

    def test_access_log_requires_n(self, tmp_path, capsys):
        log = tmp_path / "fleet.csv"
        log.write_text("1.0,0,a\n", encoding="utf-8")
        assert main(self.ARGS + ["--access-log", str(log)]) == 2
        assert "--n is required" in capsys.readouterr().err

    def test_access_log_collision_exits_2(self, tmp_path, capsys):
        log = tmp_path / "fleet.csv"
        log.write_text("1.0,0,a\n1.0,1,a\n", encoding="utf-8")
        assert main(self.ARGS + ["--access-log", str(log), "--n", "2"]) == 2
        assert "object a" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(self.ARGS + ["--scenario", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_no_optimal(self, capsys):
        rc = main(
            self.ARGS
            + ["--scenario", "smoke", "--objects", "6", "--no-optimal"]
        )
        assert rc == 0
        assert "fleet ratio" not in capsys.readouterr().out
