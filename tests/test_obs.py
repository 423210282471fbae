"""Tests for the ``repro.obs`` telemetry substrate.

The contracts under test (obs/__init__.py DESIGN):

* **bit-identity neutrality** — enabling instrumentation changes no
  computed result, on any engine tier, for arbitrary instances;
* **deterministic merge** — worker deltas fold into the parent registry
  with counter values independent of scheduling order, so a pooled run
  reports the same integer counters as a serial one;
* **zero global state leakage** — the disabled path allocates nothing
  and records nothing; exporters round-trip snapshots faithfully; the
  CLI flags wire the whole pipeline end to end.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import re
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.engine import run_slab
from repro.core.trace import Trace
from repro.obs import exporters, metrics
from repro.obs import logging as obs_logging


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with obs off and an empty registry."""
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_inc(self):
        c = metrics.counter("x_total", tier="kernel")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert metrics.counter("x_total", tier="kernel") is c
        assert metrics.counter("x_total", tier="batch") is not c

    def test_gauge_set(self):
        g = metrics.gauge("util")
        g.set(0.5)
        g.set(0.25)
        assert g.value == 0.25

    def test_log_buckets_edges(self):
        b = metrics.log_buckets(1e-3, 1e0, per_decade=1)
        assert b == pytest.approx((1e-3, 1e-2, 1e-1, 1e0))
        b2 = metrics.log_buckets(1.0, 100.0, per_decade=2)
        assert len(b2) == 5
        assert b2[0] == pytest.approx(1.0)
        assert b2[-1] == pytest.approx(100.0)
        # geometric spacing: constant ratio between adjacent bounds
        ratios = [b2[i + 1] / b2[i] for i in range(len(b2) - 1)]
        assert all(r == pytest.approx(math.sqrt(10.0)) for r in ratios)

    def test_log_buckets_rejects_bad_range(self):
        with pytest.raises(ValueError):
            metrics.log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            metrics.log_buckets(2.0, 1.0)
        with pytest.raises(ValueError):
            metrics.log_buckets(1.0, 2.0, per_decade=0)

    def test_histogram_bucket_assignment(self):
        h = metrics.histogram("t", bounds=(1.0, 10.0, 100.0))
        # upper bounds are inclusive; one +Inf overflow bucket follows
        for v in (0.5, 1.0):
            h.observe(v)
        h.observe(10.0)
        h.observe(11.0)
        h.observe(1e6)
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(0.5 + 1.0 + 10.0 + 11.0 + 1e6)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            metrics.Histogram("t", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            metrics.Histogram("t", bounds=(2.0, 1.0))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_span_disabled_is_shared_noop(self):
        assert metrics.span("a", x=1) is metrics.NOOP_SPAN
        with metrics.span("a") as sp:
            pass
        assert sp.elapsed == 0.0
        assert metrics.get_registry().spans == []

    def test_span_enabled_records(self):
        with metrics.enabled_scope():
            with metrics.span("engine.cell", tier="kernel"):
                pass
        spans = metrics.get_registry().spans
        assert len(spans) == 1
        assert spans[0].name == "engine.cell"
        assert dict(spans[0].tags) == {"tier": "kernel"}
        assert spans[0].dur_ns >= 0

    def test_timed_span_measures_when_disabled(self):
        with metrics.timed_span("runner.scenario") as sp:
            sum(range(1000))
        assert sp.elapsed > 0.0
        assert metrics.get_registry().spans == []  # not recorded

    def test_traced_decorator(self):
        calls = []

        @metrics.traced("my.op", kind="test")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6  # disabled: plain call
        assert metrics.get_registry().spans == []
        with metrics.enabled_scope():
            assert fn(4) == 8
        assert [s.name for s in metrics.get_registry().spans] == ["my.op"]
        assert calls == [3, 4]

    def test_span_cap_counts_drops(self):
        reg = metrics.Registry()
        for _ in range(metrics.MAX_SPANS + 7):
            reg.record_span("s", {}, 0, 1)
        assert len(reg.spans) == metrics.MAX_SPANS
        assert reg.dropped_spans == 7


# ----------------------------------------------------------------------
# registry merge / drain
# ----------------------------------------------------------------------


class TestMerge:
    def test_counters_add_gauges_max(self):
        a, b = metrics.Registry(), metrics.Registry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(0.7)
        b.gauge("g").set(0.4)
        a.merge(b.snapshot())
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 0.7  # max, not last-write

    def test_histograms_add(self):
        a, b = metrics.Registry(), metrics.Registry()
        for reg, vals in ((a, (0.5, 2.0)), (b, (0.5,))):
            h = reg.histogram("h", bounds=(1.0, 10.0))
            for v in vals:
                h.observe(v)
        a.merge(b.snapshot())
        h = a.histogram("h", bounds=(1.0, 10.0))
        assert h.counts == [2, 1, 0]
        assert h.count == 3

    def test_bounds_mismatch_raises(self):
        a, b = metrics.Registry(), metrics.Registry()
        a.histogram("h", bounds=(1.0, 10.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 100.0)).observe(0.5)
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(b.snapshot())

    def test_merge_rejects_non_snapshot(self):
        with pytest.raises(ValueError):
            metrics.Registry().merge({"counters": []})

    def test_merge_is_order_independent(self):
        deltas = []
        for k in (3, 1, 4):
            r = metrics.Registry()
            r.counter("c", tier="kernel").inc(k)
            r.gauge("g").set(k / 10)
            deltas.append(r.snapshot())
        fwd, rev = metrics.Registry(), metrics.Registry()
        for d in deltas:
            fwd.merge(d)
        for d in reversed(deltas):
            rev.merge(d)
        assert fwd.snapshot() == rev.snapshot()

    def test_drain_none_when_disabled(self):
        assert metrics.drain() is None
        metrics.merge_delta(None)  # no-op

    def test_drain_and_remerge_preserves_values(self):
        with metrics.enabled_scope():
            metrics.counter("c").inc(5)
            delta = metrics.drain()
            assert metrics.counter("c").value == 0  # drained
            metrics.merge_delta(delta)
        assert metrics.counter("c").value == 5

    def test_snapshot_order_independent(self):
        a, b = metrics.Registry(), metrics.Registry()
        a.counter("x").inc()
        a.counter("a").inc()
        b.counter("a").inc()
        b.counter("x").inc()
        assert a.snapshot() == b.snapshot()


# ----------------------------------------------------------------------
# bit-identity: instrumentation must not perturb results
# ----------------------------------------------------------------------


@st.composite
def instances(draw, max_n=4, max_m=40):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    gaps = draw(
        st.lists(
            st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    times = list(itertools.accumulate(gaps))
    return Trace(n, list(zip(times, servers)))


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        instances(),
        st.floats(0.05, 1.0),
        st.sampled_from(["reference", "kernel", "auto"]),
    )
    def test_engine_tiers_unchanged_by_obs(self, trace, alpha, engine):
        from repro.analysis.sweep import algorithm1_factory

        model = CostModel(lam=5.0, n=trace.n)
        cells = [(alpha, 0.5, 0), (alpha, 1.0, 1)]
        with metrics.enabled_scope(False):
            base = run_slab(
                trace, model, cells, algorithm1_factory, engine=engine
            )
        with metrics.enabled_scope(True):
            instrumented = run_slab(
                trace, model, cells, algorithm1_factory, engine=engine
            )
        for off, on in zip(base, instrumented):
            assert off.total_cost == on.total_cost
            assert off.storage_cost == on.storage_cost
            assert off.transfer_cost == on.transfer_cost
            # reference-engine results carry transfers on the ledger
            if hasattr(off, "n_transfers") and hasattr(on, "n_transfers"):
                assert off.n_transfers == on.n_transfers

    def test_sweep_grid_unchanged_by_obs(self):
        from repro.analysis.sweep import sweep_grid
        from repro.workloads import uniform_random_trace

        trace = uniform_random_trace(n=3, m=50, horizon=100.0, seed=0)
        with metrics.enabled_scope(False):
            base = sweep_grid(trace, [10.0], [0.2, 1.0], [0.0, 1.0])
        with metrics.enabled_scope(True):
            instrumented = sweep_grid(trace, [10.0], [0.2, 1.0], [0.0, 1.0])
        assert [p.online_cost for p in base.points] == [
            p.online_cost for p in instrumented.points
        ]


# ----------------------------------------------------------------------
# cross-process determinism: serial == pooled counters
# ----------------------------------------------------------------------


def _job_counters(snapshot) -> dict:
    """The scheduling-independent integer counters of a run.

    Engine cells are summed across tiers: chunking differs between
    serial and pooled dispatch, and tier selection is per chunk, so the
    per-tier split may differ — the total cell count may not.
    """
    out: dict = {}
    for c in snapshot["counters"]:
        if c["name"] in ("repro_runner_jobs_total",
                         "repro_cache_requests_total"):
            out[(c["name"], tuple(sorted(c["tags"].items())))] = c["value"]
        elif c["name"] == "repro_engine_cells_total":
            out["engine_cells"] = out.get("engine_cells", 0) + c["value"]
    return out


class TestCrossProcess:
    def test_serial_equals_pooled_counters(self):
        from repro.experiments.cache import NullCache
        from repro.experiments.runner import ExperimentRunner

        snaps = []
        for workers in (1, 2):
            metrics.reset()
            with metrics.enabled_scope():
                runner = ExperimentRunner(workers=workers, cache=NullCache())
                result = runner.run("smoke")
                snaps.append(metrics.get_registry().snapshot())
            assert result.executed == len(result)
        assert _job_counters(snaps[0]) == _job_counters(snaps[1])
        # worker spans crossed the IPC on the pooled run
        sim_spans = [
            s for s in snaps[1]["spans"] if s["name"] == "runner.chunk"
        ]
        assert sim_spans

    def test_pooled_results_unchanged_by_obs(self):
        from repro.experiments.cache import NullCache
        from repro.experiments.runner import ExperimentRunner

        costs = []
        for on in (False, True):
            with metrics.enabled_scope(on):
                runner = ExperimentRunner(workers=2, cache=NullCache())
                result = runner.run("smoke")
            costs.append(
                [r.online_cost for r in sorted(result.results,
                                               key=lambda r: r.job.index)]
            )
        assert costs[0] == costs[1]

    def test_elapsed_still_measured_when_disabled(self):
        from repro.experiments.cache import NullCache
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(workers=1, cache=NullCache())
        result = runner.run("smoke")
        assert result.elapsed > 0.0
        assert metrics.get_registry().spans == []

    def test_cache_counters(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import ExperimentRunner

        with metrics.enabled_scope():
            runner = ExperimentRunner(
                workers=1, cache=ResultCache(tmp_path / "cache")
            )
            runner.run("smoke")
            first = metrics.counter(
                "repro_cache_requests_total", outcome="hit"
            ).value
            runner.run("smoke")
            hits = metrics.counter(
                "repro_cache_requests_total", outcome="hit"
            ).value
            writes = metrics.counter("repro_cache_writes_total").value
        assert first == 0
        assert hits > 0  # warm re-run served from cache
        assert writes > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _sample_snapshot():
    with metrics.enabled_scope():
        metrics.counter("repro_engine_cells_total", tier="kernel").inc(3)
        metrics.gauge("repro_worker_utilization").set(0.5)
        metrics.histogram(
            "repro_span_seconds", bounds=(0.1, 1.0), le="x\"y"
        ).observe(0.05)
        with metrics.span("engine.slab", tier="batch", cells=4):
            pass
    return metrics.get_registry().snapshot()


class TestExporters:
    def test_json_round_trip(self, tmp_path):
        snap = _sample_snapshot()
        path = tmp_path / "m.json"
        exporters.write_snapshot_json(snap, path)
        assert exporters.load_snapshot_json(path) == snap

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="kind marker"):
            exporters.load_snapshot_json(path)

    def test_prometheus_grammar(self):
        text = exporters.to_prometheus(_sample_snapshot())
        line_re = re.compile(
            r'^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)'
            r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+)$'
        )
        lines = text.strip().split("\n")
        assert lines
        for line in lines:
            assert line_re.match(line), line
        assert 'repro_engine_cells_total{tier="kernel"} 3' in lines
        # histogram series: cumulative buckets, +Inf, _sum, _count
        assert any('le="+Inf"' in ln for ln in lines)
        assert any(ln.startswith("repro_span_seconds_sum") for ln in lines)
        assert any(ln.startswith("repro_span_seconds_count") for ln in lines)
        # label values are escaped, label names sanitised
        assert r'le_2="x\"y"' not in text  # name suffixing not expected
        assert r'\"y' in text

    def test_prometheus_cumulative_buckets(self):
        metrics.reset()
        with metrics.enabled_scope():
            h = metrics.histogram("h_seconds", bounds=(1.0, 10.0))
            for v in (0.5, 5.0, 50.0):
                h.observe(v)
        text = exporters.to_prometheus(metrics.get_registry().snapshot())
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="10.0"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text

    def test_chrome_trace_schema(self, tmp_path):
        snap = _sample_snapshot()
        trace = exporters.to_chrome_trace(snap)
        assert trace["displayTimeUnit"] == "ms"
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1
        (ev,) = xs
        assert ev["name"] == "engine.slab"
        assert ev["cat"] == "engine"
        assert ev["ts"] == 0.0  # normalised to the earliest span
        assert ev["args"] == {"tier": "batch", "cells": 4}
        # file form is valid JSON and loads back
        path = tmp_path / "s.json"
        exporters.write_chrome_trace(snap, path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_write_metrics_dispatches_on_suffix(self, tmp_path):
        snap = _sample_snapshot()
        exporters.write_metrics(snap, tmp_path / "m.prom")
        exporters.write_metrics(snap, tmp_path / "m.json")
        assert "# TYPE" in (tmp_path / "m.prom").read_text()
        assert json.loads((tmp_path / "m.json").read_text())["kind"] == (
            "repro-obs-snapshot"
        )

    def test_summarize(self):
        out = exporters.summarize(_sample_snapshot())
        assert "repro_engine_cells_total" in out
        assert "engine.slab" in out
        assert "span totals" in out


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestCli:
    def test_metrics_and_spans_flags(self, tmp_path, capsys):
        from repro.cli import main

        m, s = tmp_path / "m.json", tmp_path / "s.json"
        code = main([
            "experiments", "run", "smoke", "--no-cache", "--workers", "1",
            "--quiet", "--metrics-out", str(m), "--spans-out", str(s),
        ])
        assert code == 0
        assert not metrics.enabled  # flag restored after the invocation
        snap = exporters.load_snapshot_json(m)
        names = {c["name"] for c in snap["counters"]}
        assert "repro_runner_jobs_total" in names
        assert "repro_engine_cells_total" in names
        span_names = {sp["name"] for sp in snap["spans"]}
        assert {"runner.scenario", "runner.chunk"} <= span_names
        assert span_names & {"engine.cell", "engine.slab"}
        trace = json.loads(s.read_text())
        assert trace["traceEvents"]

    def test_prom_suffix(self, tmp_path, capsys):
        from repro.cli import main

        m = tmp_path / "m.prom"
        code = main([
            "experiments", "run", "smoke", "--no-cache", "--workers", "1",
            "--quiet", "--metrics-out", str(m),
        ])
        assert code == 0
        assert "# TYPE" in m.read_text()

    def test_obs_summary(self, tmp_path, capsys):
        from repro.cli import main

        m = tmp_path / "m.json"
        assert main([
            "experiments", "run", "smoke", "--no-cache", "--workers", "1",
            "--quiet", "--metrics-out", str(m),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(m)]) == 0
        out = capsys.readouterr().out
        assert "obs snapshot" in out
        assert "repro_runner_jobs_total" in out

    def test_obs_summary_rejects_foreign_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "summary", str(bad)]) == 2

    def test_sweep_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main

        m = tmp_path / "m.json"
        code = main([
            "sweep", "--lambda", "10", "--requests", "60", "--coarse",
            "--metrics-out", str(m),
        ])
        assert code == 0
        snap = exporters.load_snapshot_json(m)
        assert any(
            c["name"] == "repro_sweep_cells_total" for c in snap["counters"]
        )

    def test_log_flags(self, capsys):
        from repro.cli import main

        assert main(["--log-level", "info", "obs", "summary", "/nonexistent"]) == 2
        logger = logging.getLogger(obs_logging.LIBRARY_LOGGER)
        assert any(
            h.get_name() == "repro-obs-logging" for h in logger.handlers
        )
        logger.handlers = [
            h for h in logger.handlers if h.get_name() != "repro-obs-logging"
        ]


# ----------------------------------------------------------------------
# progress integration
# ----------------------------------------------------------------------


class TestProgress:
    def test_console_progress_reads_telemetry_counter(self):
        from repro.experiments.progress import ConsoleProgress

        out = StringIO()
        with metrics.enabled_scope():
            p = ConsoleProgress(stream=out, min_interval=0.0)
            p.start(4, cached=0, label="t")
            metrics.counter("repro_runner_jobs_total", source="executed").inc(3)
            p.update()  # local tally says 1; the counter says 3
            p.finish()
        text = out.getvalue()
        assert "[t] 4/4 done" in text or "[t] 4 jobs" in text
        assert "3 executed" in text.splitlines()[-1]
        assert "cells/s" in text

    def test_console_progress_eta(self):
        from repro.experiments.progress import ConsoleProgress

        out = StringIO()
        p = ConsoleProgress(stream=out, min_interval=0.0)
        p.start(10, cached=0, label="t")
        p.update(2)
        assert re.search(r"eta \d+s", out.getvalue())

    def test_console_progress_without_obs(self):
        from repro.experiments.progress import ConsoleProgress

        out = StringIO()
        p = ConsoleProgress(stream=out, min_interval=0.0)
        p.start(2, cached=1, label="t")
        p.update()
        p.finish()
        text = out.getvalue()
        assert "finished: 1 executed, 1 cached" in text


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------


class TestLogging:
    def _fresh(self):
        logger = logging.getLogger(obs_logging.LIBRARY_LOGGER)
        saved = list(logger.handlers)
        logger.handlers = [
            h for h in saved if h.get_name() != "repro-obs-logging"
        ]
        return logger, saved

    def test_library_silent_by_default(self):
        logger = logging.getLogger(obs_logging.LIBRARY_LOGGER)
        assert any(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )

    def test_get_logger_prefixes(self):
        assert obs_logging.get_logger("experiments.runner").name == (
            "repro.experiments.runner"
        )
        assert obs_logging.get_logger().name == "repro"
        assert obs_logging.get_logger("repro.core").name == "repro.core"

    def test_kv_formatter(self):
        logger, saved = self._fresh()
        try:
            stream = StringIO()
            obs_logging.configure(level="info", stream=stream)
            obs_logging.get_logger("t").info(
                "spooled", **obs_logging.kv(bytes=123, fmt="npz")
            )
            line = stream.getvalue().strip()
            assert "repro.t spooled" in line
            assert line.endswith("bytes=123 fmt=npz")
        finally:
            logger.handlers = saved

    def test_json_formatter(self):
        logger, saved = self._fresh()
        try:
            stream = StringIO()
            obs_logging.configure(
                level="info", json_output=True, stream=stream
            )
            obs_logging.get_logger("t").info(
                "spooled", **obs_logging.kv(bytes=123)
            )
            rec = json.loads(stream.getvalue())
            assert rec["msg"] == "spooled"
            assert rec["logger"] == "repro.t"
            assert rec["bytes"] == 123
            assert rec["level"] == "info"
        finally:
            logger.handlers = saved

    def test_configure_idempotent(self):
        logger, saved = self._fresh()
        try:
            obs_logging.configure(level="info")
            obs_logging.configure(level="debug")
            named = [
                h for h in logger.handlers
                if h.get_name() == "repro-obs-logging"
            ]
            assert len(named) == 1
            assert logger.level == logging.DEBUG
        finally:
            logger.handlers = saved

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_logging.configure(level="loud")
