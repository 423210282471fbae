"""Tests for the Section 5 partition (division) machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdversarialPredictor,
    CostModel,
    LearningAugmentedReplication,
    NoisyOraclePredictor,
    OraclePredictor,
    Trace,
    optimal_cost,
    optimal_schedule,
    simulate,
)
from repro.analysis import allocate_costs
from repro.analysis.partition import (
    OptimalHoldings,
    _merge,
    find_partitions,
    partition_report,
    reconstruct_optimal_holdings,
)
from repro.analysis.theory import consistency_bound, robustness_bound
from repro.workloads import consistency_tight_trace, uniform_random_trace

from conftest import tie_prone_traces, traces


class TestReconstruction:
    def test_cost_identity_random(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 30))
            lam = float(rng.uniform(0.3, 6.0))
            tr = uniform_random_trace(n, m, 40.0, seed=trial)
            model = CostModel(lam=lam, n=n)
            h = reconstruct_optimal_holdings(tr, model)
            storage = sum(
                (b - a) * model.rate(s)
                for s, ivs in h.intervals.items()
                for a, b in ivs
            )
            recon = storage + lam * len(h.transfers)
            assert recon == pytest.approx(h.total_cost, rel=1e-9, abs=1e-9)
            assert h.total_cost == pytest.approx(optimal_cost(tr, model))

    def test_dense_single_server_all_local(self):
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        h = reconstruct_optimal_holdings(tr, CostModel(lam=10.0, n=1))
        assert h.transfers == ()
        assert h.intervals[0] == [(0.0, 3.0)]

    def test_sparse_remote_requests_all_transfers(self):
        tr = Trace(3, [(10.0, 1), (20.0, 2)])
        h = reconstruct_optimal_holdings(tr, CostModel(lam=1.0, n=3))
        assert len(h.transfers) == 2

    def test_holder_crossing(self):
        tr = Trace(1, [(1.0, 0), (2.0, 0)])
        h = reconstruct_optimal_holdings(tr, CostModel(lam=10.0, n=1))
        assert h.holder_crossing(1.5) == 0
        assert h.holder_crossing(1.5, exclude=0) is None


class TestPartitionBoundaries:
    def test_boundaries_cover_sequence(self):
        tr = uniform_random_trace(3, 20, 30.0, seed=9)
        h = reconstruct_optimal_holdings(tr, CostModel(lam=2.0, n=3))
        parts = find_partitions(tr, h)
        assert parts[0][0] == 0
        assert parts[-1][1] == len(tr)
        for (a, b), (c, d) in zip(parts, parts[1:]):
            assert b == c
            assert a < b

    def test_singleton_trace(self):
        tr = Trace(2, [(5.0, 1)])
        h = reconstruct_optimal_holdings(tr, CostModel(lam=1.0, n=2))
        parts = find_partitions(tr, h)
        assert parts == [(0, 1)]

    def test_isolated_requests_form_case_a_partitions(self):
        # each server is visited once, so no inter-request interval can be
        # kept: the optimal strategy is a single bridged copy and every
        # request is a partition boundary (the paper's Case A shape)
        tr = Trace(4, [(100.0, 1), (200.0, 2), (300.0, 3)])
        h = reconstruct_optimal_holdings(tr, CostModel(lam=1.0, n=4))
        parts = find_partitions(tr, h)
        assert len(parts) == 3


class TestPerPartitionBounds:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
    def test_consistency_bound_per_partition(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        for trial in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 25))
            lam = float(rng.uniform(0.3, 6.0))
            tr = uniform_random_trace(n, m, 30.0, seed=trial)
            model = CostModel(lam=lam, n=n)
            pol = LearningAugmentedReplication(OraclePredictor(tr), alpha)
            res = simulate(tr, model, pol)
            for p in partition_report(tr, model, res, pol.classifications):
                assert p.ratio <= consistency_bound(alpha) + 1e-7, p

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_robustness_bound_per_partition(self, alpha):
        rng = np.random.default_rng(int(alpha * 77))
        for trial in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 25))
            lam = float(rng.uniform(0.3, 6.0))
            tr = uniform_random_trace(n, m, 30.0, seed=500 + trial)
            model = CostModel(lam=lam, n=n)
            pol = LearningAugmentedReplication(AdversarialPredictor(tr), alpha)
            res = simulate(tr, model, pol)
            for p in partition_report(tr, model, res, pol.classifications):
                assert p.ratio <= robustness_bound(alpha) + 1e-7, p

    def test_partition_sums_match_totals(self):
        from repro.analysis import allocate_costs

        tr = uniform_random_trace(4, 30, 50.0, seed=3)
        model = CostModel(lam=2.0, n=4)
        pol = LearningAugmentedReplication(OraclePredictor(tr), 0.4)
        res = simulate(tr, model, pol)
        parts = partition_report(tr, model, res, pol.classifications)
        alloc = allocate_costs(res, pol.classifications)
        assert sum(p.online for p in parts) == pytest.approx(sum(alloc.values()))
        assert sum(p.opt for p in parts) == pytest.approx(
            optimal_cost(tr, model), rel=1e-9
        )

    def test_tight_example_partition_ratio(self):
        # on the Figure 6 instance, at least one partition must be near
        # the consistency bound (that is what tightness means)
        lam, alpha = 10.0, 0.5
        tr = consistency_tight_trace(lam, cycles=10, eps=lam * 1e-6)
        model = CostModel(lam=lam, n=2)
        pol = LearningAugmentedReplication(OraclePredictor(tr), alpha)
        res = simulate(tr, model, pol)
        parts = partition_report(tr, model, res, pol.classifications)
        assert max(p.ratio for p in parts) > consistency_bound(alpha) - 0.15


# ----------------------------------------------------------------------
# the bisection lookups against full scans
# ----------------------------------------------------------------------


def _scan_holdings(trace, model):
    """reconstruct_optimal_holdings with its local-serve test as a scan
    over every interval of the request's server."""
    cost, decisions = optimal_schedule(trace, model)
    seq = trace.with_dummy()
    nxt = trace.next_local_time()
    per_server = {}
    for d in decisions:
        i = d.request_index
        if d.keep and nxt[i] != float("inf"):
            per_server.setdefault(seq[i].server, []).append((seq[i].time, nxt[i]))
        if d.bridged:
            prev = seq[i - 1]
            per_server.setdefault(prev.server, []).append((prev.time, seq[i].time))
    transfers = [
        r.time
        for r in trace
        if not any(a < r.time <= b + 1e-12 for a, b in per_server.get(r.server, []))
    ]
    return OptimalHoldings(
        intervals={s: _merge(iv) for s, iv in per_server.items()},
        transfers=tuple(transfers),
        total_cost=cost,
    )


def _scan_crossing(h, t, exclude):
    for server, ivs in h.intervals.items():
        if server != exclude and any(a < t < b for a, b in ivs):
            return server
    return None


def _scan_report(trace, model, h, alloc):
    """find_partitions + partition_report's sums as full scans."""
    m = len(trace)
    cuts = [0] + [
        r.index for r in trace
        if r.index < m and _scan_crossing(h, r.time, r.server) is None
    ] + [m]
    cuts = list(dict.fromkeys(cuts))
    seq = trace.with_dummy()
    out = []
    for d, e in zip(cuts, cuts[1:]):
        t_d, t_e = seq[d].time, seq[e].time
        storage = 0.0
        for server, ivs in h.intervals.items():
            for a, b in ivs:
                lo, hi = max(a, t_d), min(b, t_e)
                if hi > lo:
                    storage += (hi - lo) * model.rate(server)
        transfers = sum(model.lam for t in h.transfers if t_d < t <= t_e)
        online = sum(alloc.get(i, 0.0) for i in range(d + 1, e + 1))
        out.append((d, e, online, storage + transfers))
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(traces(max_m=40), tie_prone_traces(max_m=40)),
    st.sampled_from((0.5, 1.0, 2.0, 3.0, 7.5)),
    st.sampled_from((0.3, 1.0, 2.5)),
    st.sampled_from((0.25, 0.5, 1.0)),
    st.floats(0.0, 1.0),
)
def test_bisection_matches_full_scans(trace, lam, rate, alpha, accuracy):
    """Every bisection lookup returns what a scan over every interval and
    transfer returns, and each partition's float additions are the
    scan's, in its order: reports are == the scan-based ones."""
    model = CostModel(lam=lam, n=trace.n, storage_rates=(rate,) * trace.n)
    h = reconstruct_optimal_holdings(trace, model)
    assert h == _scan_holdings(trace, model)
    probes = {0.0, *trace.times.tolist()}
    probes |= {x for ivs in h.intervals.values() for iv in ivs for x in iv}
    probes |= {x + 0.5 for x in list(probes)}
    for t in sorted(probes):
        for exclude in (None, *range(trace.n)):
            assert h.holder_crossing(t, exclude) == _scan_crossing(h, t, exclude)
    pol = LearningAugmentedReplication(
        NoisyOraclePredictor(trace, accuracy, seed=1), alpha
    )
    res = simulate(trace, model, pol)
    report = partition_report(trace, model, res, pol.classifications)
    alloc = allocate_costs(res, pol.classifications)
    assert [(p.d, p.e) for p in report] == find_partitions(trace, h)
    assert [(p.d, p.e, p.online, p.opt) for p in report] == _scan_report(
        trace, model, h, alloc
    )
