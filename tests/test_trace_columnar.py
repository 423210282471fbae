"""Tests for the columnar trace substrate.

Covers the array-native :class:`Trace` (lazy Request materialisation,
zero-copy ``from_arrays``, vectorized helpers), the binary ``.npz``
format with its mmap load path, gzip text round-trips, the access-log
collision nudge, and the experiment runner's digest + mmap trace
hand-off — each pinned bit-for-bit against the eager/request-built
reference behaviour.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostModel, Request, Trace, TraceError, run_slab
from repro.core.engine import get_engine
from repro.experiments.cache import trace_digest
from repro.system import (
    detect_trace_format,
    load_trace,
    load_trace_npz,
    save_trace,
    save_trace_npz,
)
from repro.workloads import uniform_random_trace

from conftest import registered_scenario_legs


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def trace_columns(draw, max_n=5, max_m=40):
    """Valid (n, times, servers) columns for a trace."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    gaps = draw(
        st.lists(
            st.floats(0.001, 100.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    times = np.cumsum(np.asarray(gaps, dtype=np.float64))
    return n, times, np.asarray(servers, dtype=np.int64)


# ----------------------------------------------------------------------
# lazy Request materialisation == the eager request-built API
# ----------------------------------------------------------------------


class TestLazyRequestEquivalence:
    @given(trace_columns())
    def test_requests_match_eager_construction(self, cols):
        n, times, servers = cols
        lazy = Trace.from_arrays(times, servers, n=n)
        eager = Trace(n, list(zip(times.tolist(), servers.tolist())))
        assert lazy.requests == eager.requests
        assert lazy == eager
        assert hash(lazy) == hash(eager)

    @given(trace_columns())
    def test_iteration_and_indexing_before_materialisation(self, cols):
        n, times, servers = cols
        tr = Trace.from_arrays(times, servers, n=n)
        expected = [
            Request(float(t), int(s), i + 1)
            for i, (t, s) in enumerate(zip(times, servers))
        ]
        # iterate without touching .requests: Requests are built on the fly
        assert list(tr) == expected
        fresh = Trace.from_arrays(times, servers, n=n)
        for i in range(len(expected)):
            assert fresh[i] == expected[i]
        if expected:
            assert fresh[-1] == expected[-1]

    def test_getitem_out_of_range(self):
        tr = Trace.from_arrays([1.0, 2.0], [0, 1], n=2)
        with pytest.raises(IndexError):
            tr[2]
        with pytest.raises(IndexError):
            tr[-3]

    def test_slice_returns_requests(self):
        tr = Trace.from_arrays([1.0, 2.0, 3.0], [0, 1, 0], n=2)
        assert tr[1:] == tr.requests[1:]

    def test_with_dummy_prefixes_r0(self):
        tr = Trace.from_arrays([1.0], [0], n=1)
        seq = tr.with_dummy()
        assert seq[0] == Request(0.0, 0, 0)
        assert seq[1].index == 1

    @given(trace_columns())
    def test_pickle_round_trip(self, cols):
        n, times, servers = cols
        tr = Trace.from_arrays(times, servers, n=n)
        back = pickle.loads(pickle.dumps(tr))
        assert back == tr
        assert back.n == tr.n
        assert back.times.tobytes() == tr.times.tobytes()

    def test_zero_copy_adoption(self):
        times = np.array([1.0, 2.0, 3.0])
        servers = np.array([0, 1, 0], dtype=np.int64)
        tr = Trace.from_arrays(times, servers, n=2)
        # the trace's columns view the caller's buffers (no copy)
        assert tr.times.base is times or tr.times.base is None
        assert np.shares_memory(tr.times, times)
        assert np.shares_memory(tr.servers, servers)
        assert not tr.times.flags.writeable

    def test_validation_still_vectorized_errors(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            Trace.from_arrays([1.0, 1.0], [0, 0], n=1)
        with pytest.raises(TraceError, match="server"):
            Trace.from_arrays([1.0, 2.0], [0, 5], n=2)
        with pytest.raises(TraceError, match="server index must be >= 0"):
            Trace.from_arrays([1.0], [-1], n=2)

    def test_slice_time_shares_storage(self):
        tr = uniform_random_trace(3, 50, 100.0, seed=0)
        sub = tr.slice_time(10.0, 60.0)
        assert np.shares_memory(sub.times, tr.times) or len(sub) == 0

    @given(trace_columns(max_m=25))
    def test_vectorized_helpers_match_request_walk(self, cols):
        """per_server_times / gaps / preceding indices recomputed from a
        plain Request walk must match the vectorized columns exactly."""
        n, times, servers = cols
        tr = Trace.from_arrays(times, servers, n=n)
        # reference: the old per-request implementations
        per: dict[int, list[float]] = {s: [] for s in range(n)}
        per[0].append(0.0)
        last_seen: dict[int, int] = {0: 0}
        last_time: dict[int, float] = {0: 0.0}
        prev_ref: list[int] = []
        gaps_ref: list[float] = []
        for r in tr.requests:
            per[r.server].append(r.time)
            prev_ref.append(last_seen.get(r.server, -1))
            last_seen[r.server] = r.index
            p = last_time.get(r.server)
            gaps_ref.append(float("inf") if p is None else r.time - p)
            last_time[r.server] = r.time
        got = tr.per_server_times()
        assert set(got) == set(per)
        for s in per:
            assert got[s].tolist() == per[s]
        assert tr.preceding_local_index() == prev_ref
        assert tr.inter_request_gaps().tolist() == gaps_ref


# ----------------------------------------------------------------------
# binary format round-trip fidelity
# ----------------------------------------------------------------------


class TestNpzRoundTrip:
    @given(trace_columns())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bit_identical(self, tmp_path_factory, cols):
        n, times, servers = cols
        tr = Trace.from_arrays(times, servers, n=n)
        path = tmp_path_factory.mktemp("npz") / "t.npz"
        save_trace_npz(tr, path)
        for mmap in (False, True):
            back = load_trace_npz(path, mmap=mmap)
            assert back.n == tr.n
            assert back.times.tobytes() == tr.times.tobytes()
            assert back.servers.tobytes() == tr.servers.tobytes()
            assert trace_digest(back) == trace_digest(tr)

    def test_mmap_columns_are_memory_mapped(self, tmp_path):
        tr = uniform_random_trace(4, 512, 1000.0, seed=5)
        path = tmp_path / "t.npz"
        save_trace_npz(tr, path)
        back = load_trace_npz(path, mmap=True)
        base = back.times
        while not isinstance(base, np.memmap) and isinstance(
            base.base, np.ndarray
        ):
            base = base.base
        assert isinstance(base, np.memmap)
        assert not back.times.flags.writeable
        # a memory-mapped trace still computes and pickles like any other
        assert back.summary()["n_requests"] == 512
        assert pickle.loads(pickle.dumps(back)) == tr

    def test_missing_member_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(TraceError, match="missing member"):
            load_trace_npz(path)
        with pytest.raises(TraceError, match="missing member"):
            load_trace_npz(path, mmap=True)

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(TraceError, match="npz"):
            load_trace_npz(path)


class TestFormatAutodetection:
    @pytest.mark.parametrize(
        "ext", ["csv", "csv.gz", "jsonl", "jsonl.gz", "npz"]
    )
    def test_round_trip_every_format(self, tmp_path, ext):
        tr = uniform_random_trace(4, 64, 500.0, seed=2)
        path = tmp_path / f"t.{ext}"
        assert detect_trace_format(path) == ext
        save_trace(tr, path)
        back = load_trace(path)
        assert trace_digest(back) == trace_digest(tr)

    def test_gzip_actually_compresses(self, tmp_path):
        tr = uniform_random_trace(4, 512, 5000.0, seed=3)
        plain = tmp_path / "t.csv"
        gz = tmp_path / "t.csv.gz"
        save_trace(tr, plain)
        save_trace(tr, gz)
        assert gz.stat().st_size < plain.stat().st_size
        assert gz.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="cannot detect"):
            detect_trace_format(tmp_path / "t.parquet")


# ----------------------------------------------------------------------
# engine cost bit-identity: array-built vs request-built traces
# ----------------------------------------------------------------------


def _engine_costs(trace, lam, alpha, accuracy, seed):
    from repro.analysis.sweep import algorithm1_factory

    out = {}
    for name in ("reference", "kernel"):
        policy = algorithm1_factory(trace, lam, alpha, accuracy, seed)
        run = get_engine(name).run(trace, CostModel(lam=lam, n=trace.n), policy)
        out[name] = (run.storage_cost, run.transfer_cost)
    return out


def test_all_registered_scenarios_array_vs_request_built():
    """Every registered scenario's trace, rebuilt from a Request tuple
    list (the legacy eager path), equals the array-built one (the
    columnar fast path) with the same column dtypes, and every leg of
    the registered-scenario oracle replays on the request-built trace
    bit-identically to the oracle's cached reference results on the
    kernel."""
    legs, covered = registered_scenario_legs()
    rebuilt = {}
    for name, array_built, model, factory, cells, refs in legs:
        key = trace_digest(array_built)
        if key not in rebuilt:
            request_built = Trace(
                array_built.n,
                [Request(r.time, r.server, r.index) for r in array_built],
            )
            assert request_built == array_built, name
            assert request_built.times.dtype == array_built.times.dtype, name
            assert request_built.servers.dtype == array_built.servers.dtype, name
            rebuilt[key] = request_built
        runs = run_slab(rebuilt[key], model, cells, factory, engine="kernel")
        for run, ref in zip(runs, refs):
            assert run.storage_cost == ref.storage_cost, name
            assert run.transfer_cost == ref.transfer_cost, name
            assert run.n_transfers == ref.ledger.n_transfers, name
    assert covered >= 19


@given(trace_columns(max_n=4, max_m=20), st.floats(0.1, 1.0))
@settings(max_examples=30, deadline=None)
def test_engines_bit_identical_on_array_native_traces(cols, alpha):
    n, times, servers = cols
    tr = Trace.from_arrays(times, servers, n=n)
    costs = _engine_costs(tr, 5.0, alpha, 1.0, 0)
    assert costs["reference"] == costs["kernel"]


# ----------------------------------------------------------------------
# experiment runner: digest + mmap hand-off
# ----------------------------------------------------------------------


class TestRunnerSpool:
    def _rows(self, result):
        return [
            (r.job.index, r.online_cost, r.optimal_cost) for r in result.results
        ]

    def test_spooled_run_bit_identical_to_inherited(self, tmp_path):
        from repro.experiments import ExperimentRunner

        spool = ExperimentRunner(
            workers=2, spill_threshold=1, spill_dir=tmp_path / "spool"
        )
        inherit = ExperimentRunner(workers=2, spill_threshold=None)
        serial = ExperimentRunner(workers=1)
        a = spool.run("smoke")
        b = inherit.run("smoke")
        c = serial.run("smoke")
        assert self._rows(a) == self._rows(b) == self._rows(c)
        # the spool directory holds one content-addressed file per trace
        files = list((tmp_path / "spool").glob("*.npz"))
        assert files, "expected spooled trace files"
        for f in files:
            tr = load_trace_npz(f, mmap=True)
            assert trace_digest(tr) == f.stem

    def test_spool_files_reused_across_runs(self, tmp_path):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(
            workers=2, spill_threshold=1, spill_dir=tmp_path / "spool"
        )
        runner.run("smoke")
        files = sorted((tmp_path / "spool").glob("*.npz"))
        mtimes = [f.stat().st_mtime_ns for f in files]
        runner.run("smoke")
        assert sorted((tmp_path / "spool").glob("*.npz")) == files
        assert [f.stat().st_mtime_ns for f in files] == mtimes

    def test_threshold_none_never_spools(self, tmp_path):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(
            workers=2, spill_threshold=None, spill_dir=tmp_path / "spool"
        )
        runner.run("smoke")
        assert not (tmp_path / "spool").exists()


# ----------------------------------------------------------------------
# access-log ingestion: collision nudge regression
# ----------------------------------------------------------------------


class TestAccessLogNudge:
    def test_many_collisions_strictly_increasing(self, tmp_path):
        from repro.system import load_access_log_csv

        # heavy duplication: every timestamp appears 5x, plus ties at the end
        rows = []
        for k in range(1, 40):
            rows.extend([f"{1000 * k} GET obj 1"] * 5)
        path = tmp_path / "dup.log"
        path.write_text("\n".join(rows) + "\n")
        tr = load_access_log_csv(path, n=3, seed=0)["obj"]
        assert len(tr) == 5 * 39
        diffs = np.diff(np.concatenate(([0.0], tr.times)))
        assert (diffs > 0).all()
        # the nudge semantics: a collided timestamp lands min_sep after
        # its predecessor, exactly like the scalar reference loop
        ref = []
        prev = 0.0
        for t in sorted(1000 * k * 1e-3 for k in range(1, 40) for _ in range(5)):
            t = t - 1.0 + 1.0  # anchor at the first timestamp (1.0s)
            if t <= prev:
                t = prev + 1e-6
            ref.append(t)
            prev = t
        assert tr.times.tolist() == ref

    @given(
        st.lists(
            st.integers(1, 50), min_size=2, max_size=60
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_nudge_matches_scalar_reference(self, tmp_path_factory, stamps):
        from repro.system import load_access_log_csv

        path = tmp_path_factory.mktemp("log") / "x.log"
        path.write_text(
            "\n".join(f"{s * 100} GET o 1" for s in stamps) + "\n"
        )
        tr = load_access_log_csv(path, n=2, seed=1)["o"]
        # scalar reference: the seed implementation's post-processing
        times = sorted(s * 100 * 1e-3 for s in stamps)
        t0 = times[0]
        ref = []
        prev = 0.0
        for t in times:
            t = t - t0 + 1.0
            if t <= prev:
                t = prev + 1e-6
            ref.append(t)
            prev = t
        assert tr.times.tolist() == ref
        assert (np.diff(np.concatenate(([0.0], tr.times))) > 0).all()


# ----------------------------------------------------------------------
# dedupe_times: vectorized fast path == scalar reference
# ----------------------------------------------------------------------


@given(
    st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=0, max_size=50),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def testdedupe_times_matches_scalar_reference(gaps, dup_every):
    from repro.workloads.synthetic import dedupe_times

    times = np.cumsum(np.asarray(gaps, dtype=np.float64))
    if dup_every and len(times):
        times = np.repeat(times, dup_every + 1)  # force collisions
    out = dedupe_times(times, min_sep=1e-9)
    ref = times.copy()
    for i in range(1, len(ref)):
        if ref[i] <= ref[i - 1]:
            ref[i] = ref[i - 1] + 1e-9
    assert out.tolist() == ref.tolist()


# ----------------------------------------------------------------------
# regressions from review
# ----------------------------------------------------------------------


class TestReviewRegressions:
    def test_save_trace_fmt_override_wins_over_suffix(self, tmp_path):
        tr = uniform_random_trace(3, 30, 50.0, seed=4)
        p = tmp_path / "data.bin"
        save_trace(tr, p, fmt="npz")
        assert p.exists() and not (tmp_path / "data.bin.npz").exists()
        assert trace_digest(load_trace(p, fmt="npz", mmap=True)) == trace_digest(tr)
        q = tmp_path / "x.dat"
        save_trace(tr, q, fmt="csv.gz")
        assert q.read_bytes()[:2] == b"\x1f\x8b"  # really gzipped
        assert trace_digest(load_trace(q, fmt="csv.gz")) == trace_digest(tr)

    def test_trace_is_immutable(self):
        tr = Trace.from_arrays([1.0, 2.0], [0, 1], n=2)
        with pytest.raises(AttributeError):
            tr.n = 7
        with pytest.raises(AttributeError):
            del tr.n
        with pytest.raises(AttributeError):
            tr._times = np.array([9.0])

    def test_slice_does_not_materialise_full_tuple(self):
        tr = uniform_random_trace(3, 500, 100.0, seed=1)
        sl = tr[:5]
        assert len(sl) == 5
        assert tr._requests is None  # no full-tuple cache
        assert sl == tr.requests[:5]
