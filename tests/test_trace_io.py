"""Tests for trace persistence and access-log ingestion."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Trace, TraceError
from repro.system import (
    load_access_log_csv,
    load_trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.workloads import uniform_random_trace


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        tr = uniform_random_trace(4, 40, horizon=100.0, seed=1)
        p = tmp_path / "trace.csv"
        save_trace_csv(tr, p)
        back = load_trace_csv(p)
        assert back.n == tr.n
        assert np.allclose(back.times, tr.times)
        assert list(back.servers) == list(tr.servers)

    def test_empty_trace(self, tmp_path):
        p = tmp_path / "empty.csv"
        save_trace_csv(Trace(3, []), p)
        back = load_trace_csv(p)
        assert back.n == 3 and len(back) == 0

    def test_float_precision_preserved(self, tmp_path):
        tr = Trace(1, [(0.1 + 0.2, 0)])  # the classic 0.30000000000000004
        p = tmp_path / "prec.csv"
        save_trace_csv(tr, p)
        assert load_trace_csv(p).times[0] == tr.times[0]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,server\n1.0,0\n")
        with pytest.raises(TraceError, match="header"):
            load_trace_csv(p)

    def test_nan_time_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("# n,2\ntime,server\n1.0,0\n2.0,1\nnan,0\n")
        with pytest.raises(TraceError) as err:
            load_trace(p)
        assert str(err.value) == (
            "request times must be finite (violation at index 3: nan)"
        )


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        tr = uniform_random_trace(3, 25, horizon=50.0, seed=2)
        p = tmp_path / "trace.jsonl"
        save_trace_jsonl(tr, p)
        back = load_trace_jsonl(p)
        assert back.n == tr.n
        assert np.allclose(back.times, tr.times)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace_jsonl(p)

    def test_wrong_meta_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "other"}\n')
        with pytest.raises(TraceError, match="trace-meta"):
            load_trace_jsonl(p)


class TestAccessLogIngestion:
    def _write_log(self, path, rows):
        path.write_text("\n".join(rows) + "\n")

    def test_ibm_style_log(self, tmp_path):
        p = tmp_path / "access.log"
        self._write_log(
            p,
            [
                "1000 REST.GET.OBJECT objA 123",
                "2000 REST.PUT.OBJECT objA 123",  # write: filtered out
                "3000 REST.GET.OBJECT objB 55",
                "4000 REST.GET.OBJECT objA 123",
                "9000 REST.GET.OBJECT objB 55",
            ],
        )
        traces = load_access_log_csv(p, n=4, seed=0)
        assert set(traces) == {"objA", "objB"}
        a = traces["objA"]
        # milliseconds -> seconds, anchored at 1.0
        assert a.times[0] == pytest.approx(1.0)
        assert a.times[1] == pytest.approx(1.0 + 3.0)
        assert len(a) == 2

    def test_min_requests_filter(self, tmp_path):
        p = tmp_path / "sparse.log"
        self._write_log(p, ["1000 GET lonely 1", "2000 GET busy 1", "3000 GET busy 1"])
        traces = load_access_log_csv(p, n=2, min_requests=2, seed=0)
        assert set(traces) == {"busy"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "comments.log"
        self._write_log(p, ["# header", "", "1000 GET x 1", "2000 GET x 1"])
        traces = load_access_log_csv(p, n=2, seed=0)
        assert len(traces["x"]) == 2

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.log"
        self._write_log(p, ["1000 GET"])
        with pytest.raises(TraceError, match="columns"):
            load_access_log_csv(p, n=2)

    def test_zipf_assignment_deterministic(self, tmp_path):
        p = tmp_path / "det.log"
        rows = [f"{1000 * k} GET obj 1" for k in range(1, 30)]
        self._write_log(p, rows)
        a = load_access_log_csv(p, n=5, seed=7)["obj"]
        b = load_access_log_csv(p, n=5, seed=7)["obj"]
        assert list(a.servers) == list(b.servers)

    def test_duplicate_timestamps_nudged(self, tmp_path):
        p = tmp_path / "dup.log"
        self._write_log(p, ["1000 GET x 1", "1000 GET x 1", "2000 GET x 1"])
        tr = load_access_log_csv(p, n=2, seed=0)["x"]
        assert len(tr) == 3  # construction succeeded -> strictly increasing

    def test_custom_read_ops(self, tmp_path):
        p = tmp_path / "ops.log"
        self._write_log(p, ["1000 FETCH x 1", "2000 FETCH x 1"])
        traces = load_access_log_csv(p, n=2, read_ops=("FETCH",), seed=0)
        assert len(traces["x"]) == 2
