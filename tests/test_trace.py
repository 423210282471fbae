"""Unit tests for repro.core.trace."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Request, Trace, TraceError
from repro.core.trace import merge_traces


class TestRequest:
    def test_basic_fields(self):
        r = Request(1.5, 2, 7)
        assert r.time == 1.5
        assert r.server == 2
        assert r.index == 7

    def test_negative_time_rejected(self):
        with pytest.raises(TraceError):
            Request(-0.1, 0)

    def test_negative_server_rejected(self):
        with pytest.raises(TraceError):
            Request(1.0, -1)

    def test_frozen(self):
        r = Request(1.0, 0)
        with pytest.raises(AttributeError):
            r.time = 2.0  # type: ignore[misc]


class TestTraceConstruction:
    def test_from_tuples(self):
        tr = Trace(2, [(1.0, 0), (2.0, 1)])
        assert len(tr) == 2
        assert tr[0].server == 0
        assert tr[1].time == 2.0

    def test_indices_are_one_based(self):
        tr = Trace(2, [(1.0, 0), (2.0, 1), (3.0, 0)])
        assert [r.index for r in tr] == [1, 2, 3]

    def test_from_requests_reindexes(self):
        tr = Trace(2, [Request(1.0, 0, 99), Request(2.0, 1, -5)])
        assert [r.index for r in tr] == [1, 2]

    def test_zero_servers_rejected(self):
        with pytest.raises(TraceError):
            Trace(0, [])

    def test_time_zero_rejected(self):
        # the dummy request occupies time 0
        with pytest.raises(TraceError):
            Trace(1, [(0.0, 0)])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(TraceError):
            Trace(2, [(2.0, 0), (2.0, 1)])
        with pytest.raises(TraceError):
            Trace(2, [(2.0, 0), (1.0, 1)])

    def test_server_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            Trace(2, [(1.0, 2)])

    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([(1.0, 0), (2.0, 1), (math.nan, 0)], "index 3: nan"),
            ([(1.0, 0), (math.nan, 1), (3.0, 0)], "index 2: nan"),
            ([(1.0, 0), (math.inf, 1)], "index 2: inf"),
        ],
    )
    def test_non_finite_times_rejected(self, rows, expected):
        # NaN passes every ordering comparison, and +inf as the last
        # time passes the order check; both reach the DP and the engines
        # unless construction rejects them
        msg = f"request times must be finite (violation at {expected})"
        with pytest.raises(TraceError) as err:
            Trace(2, rows)
        assert str(err.value) == msg
        times, servers = zip(*rows)
        with pytest.raises(TraceError) as err:
            Trace.from_arrays(times, servers, n=2)
        assert str(err.value) == msg

    def test_empty_trace_ok(self):
        tr = Trace(3, [])
        assert len(tr) == 0
        assert tr.span == 0.0

    def test_from_arrays(self):
        tr = Trace.from_arrays([1.0, 2.0, 3.0], [0, 1, 0], n=2)
        assert len(tr) == 3
        assert tr[1].server == 1

    def test_from_arrays_infers_n(self):
        tr = Trace.from_arrays([1.0, 2.0], [0, 4])
        assert tr.n == 5

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(TraceError):
            Trace.from_arrays([1.0, 2.0], [0])


class TestTraceViews:
    def test_times_servers_arrays(self):
        tr = Trace(3, [(1.0, 0), (2.5, 2)])
        assert np.allclose(tr.times, [1.0, 2.5])
        assert list(tr.servers) == [0, 2]

    def test_arrays_read_only(self):
        tr = Trace(2, [(1.0, 0)])
        with pytest.raises(ValueError):
            tr.times[0] = 5.0

    def test_span(self):
        tr = Trace(2, [(1.0, 0), (9.0, 1)])
        assert tr.span == 9.0

    def test_servers_touched(self):
        tr = Trace(5, [(1.0, 3), (2.0, 3), (3.0, 1)])
        assert tr.servers_touched == (1, 3)

    def test_with_dummy(self):
        tr = Trace(2, [(1.0, 1)])
        seq = tr.with_dummy()
        assert seq[0].time == 0.0
        assert seq[0].server == 0
        assert seq[0].index == 0
        assert seq[1].index == 1

    def test_iteration(self):
        tr = Trace(2, [(1.0, 0), (2.0, 1)])
        assert [r.time for r in tr] == [1.0, 2.0]


class TestPerServerHelpers:
    def test_per_server_times_includes_dummy(self):
        tr = Trace(2, [(1.0, 1), (2.0, 0)])
        per = tr.per_server_times()
        assert list(per[0]) == [0.0, 2.0]
        assert list(per[1]) == [1.0]

    def test_per_server_times_untouched_server(self):
        tr = Trace(3, [(1.0, 0)])
        per = tr.per_server_times()
        assert list(per[2]) == []

    def test_preceding_local_index(self):
        tr = Trace(2, [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 2 - 2)])
        p = tr.preceding_local_index()
        # r1 at server 1: first there -> -1; r2 at server 0: dummy -> 0;
        # r3 at server 1: r1 -> 1; r4 at server 0: r2 -> 2
        assert p == [-1, 0, 1, 2]

    def test_inter_request_gaps(self):
        tr = Trace(2, [(1.0, 1), (2.0, 0), (4.0, 1)])
        gaps = tr.inter_request_gaps()
        assert math.isinf(gaps[0])       # first at server 1
        assert gaps[1] == 2.0            # vs dummy at t=0
        assert gaps[2] == 3.0            # 4.0 - 1.0

    def test_next_local_time(self):
        tr = Trace(2, [(1.0, 1), (2.0, 0), (4.0, 1)])
        nxt = tr.next_local_time()
        # index 0 = dummy at server 0 -> next local at 2.0
        assert nxt[0] == 2.0
        assert nxt[1] == 4.0   # r1 at server 1 -> r3
        assert math.isinf(nxt[2])
        assert math.isinf(nxt[3])


class TestWindows:
    def test_slice_time(self):
        tr = Trace(2, [(1.0, 0), (2.0, 1), (3.0, 0), (4.0, 1)])
        sub = tr.slice_time(1.0, 3.0)
        assert [r.time for r in sub] == [2.0, 3.0]

    def test_slice_time_empty(self):
        tr = Trace(2, [(1.0, 0)])
        assert len(tr.slice_time(5.0, 10.0)) == 0

    def test_request_at_or_after(self):
        tr = Trace(2, [(1.0, 0), (3.0, 1)])
        assert tr.request_at_or_after(2.0).time == 3.0
        assert tr.request_at_or_after(1.0).time == 1.0
        assert tr.request_at_or_after(3.5) is None

    def test_count_in_window(self):
        tr = Trace(2, [(1.0, 0), (2.0, 0), (3.0, 1)])
        assert tr.count_in_window(0, 0.0, 2.0) == 2
        assert tr.count_in_window(0, 1.0, 2.0) == 1
        assert tr.count_in_window(1, 0.0, 10.0) == 1


class TestSummaryAndMerge:
    def test_summary_keys(self):
        tr = Trace(2, [(1.0, 0), (2.0, 1)])
        s = tr.summary()
        assert s["n_requests"] == 2
        assert s["n_servers"] == 2
        assert s["span"] == 2.0

    def test_summary_empty(self):
        s = Trace(2, []).summary()
        assert math.isnan(s["mean_local_gap"])

    def test_merge_traces(self):
        a = Trace(2, [(1.0, 0), (3.0, 1)])
        b = Trace(2, [(2.0, 1)])
        merged = merge_traces([a, b])
        assert [r.time for r in merged] == [1.0, 2.0, 3.0]
        assert [r.server for r in merged] == [0, 1, 1]

    def test_merge_collision_rejected(self):
        a = Trace(2, [(1.0, 0)])
        b = Trace(2, [(1.0, 1)])
        with pytest.raises(TraceError):
            merge_traces([a, b])

    def test_merge_respects_explicit_n(self):
        a = Trace(2, [(1.0, 0)])
        merged = merge_traces([a], n=7)
        assert merged.n == 7
