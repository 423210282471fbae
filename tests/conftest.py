"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import (
    AdaptiveReplication,
    CostModel,
    CostResult,
    KernelCostEngine,
    PredictionStream,
    ReferenceEngine,
    Trace,
    WangReplication,
    optimal_cost,
    run_slab,
    simulate,
)
from repro.algorithms.adaptive import forced_column
from repro.core.backends import THREADS_MIN_CELLS_PER_THREAD, set_thread_budget
from repro.workloads import uniform_random_trace

#: the narrowest slab ``auto`` fans out over threads
MIN_THREADED_CELLS = 2 * THREADS_MIN_CELLS_PER_THREAD


def fleet_reference(system) -> list[tuple[str, float, float]]:
    """Each object of a ``MultiObjectSystem`` simulated alone on the
    reference simulator, with its own offline optimum: ``(object_id,
    online, optimal)`` per spec."""
    out = []
    for spec in system.specs:
        model = CostModel(lam=spec.lam, n=system.n)
        policy = spec.policy_factory(spec.trace, model)
        online = simulate(spec.trace, model, policy).total_cost
        out.append((spec.object_id, online, optimal_cost(spec.trace, model)))
    return out


def incremental_stream(pred, trace, lam) -> np.ndarray:
    """A fresh incremental predictor's answers, queried once per request
    in global order, dummy request first: the semantic reference every
    prediction row must equal."""
    out = []
    pred.observe(0, 0.0)
    out.append(pred.predict_within(0, 0.0, lam))
    for r in trace:
        pred.observe(r.server, r.time)
        out.append(pred.predict_within(r.server, r.time, lam))
    return np.array(out)


def adaptive_forced(trace, model, policy, until_release=False) -> np.ndarray:
    """:func:`forced_column` over an adaptive policy's own prediction
    row: the reference trip column of its cell (the prefix up to the
    first release with ``until_release``)."""
    (within,) = PredictionStream.batch_for_cells(
        [(policy.predictor, model.lam)], trace
    )
    return forced_column(
        np.concatenate(([0.0], trace.times)),
        np.concatenate(([0], trace.servers)),
        within,
        trace.n,
        model.lam,
        model.storage_rates[0],
        policy.alpha,
        policy.beta,
        policy.warmup,
        until_release,
    )


def trip_rounds(trace, model, policy) -> int:
    """The rounds of kernel passes a cell's row rides in: 1 unless it
    is an adaptive row whose monitor trips, 2 when it trips and its
    first release is for good, 3 when it trips again after that."""
    if type(policy) is not AdaptiveReplication:
        return 1
    if policy.alpha * model.lam == model.lam:
        return 1                     # the durations coincide: no monitor
    forced = adaptive_forced(trace, model, policy)
    if not forced.any():
        return 1
    release = adaptive_forced(trace, model, policy, True).size
    return 3 if forced[release:].any() else 2


def rerun_passes(trace, model, policies) -> int:
    """The passes a kernel slab of ``policies`` adds to its first round
    for adaptive rows whose monitor trips: one per alpha in each later
    round its rows reach (for slabs whose rounds fit one pass per
    alpha)."""
    reached = {
        (policy.alpha, r)
        for policy in policies
        for r in range(2, trip_rounds(trace, model, policy) + 1)
    }
    return len(reached)


@pytest.fixture
def two_server_model() -> CostModel:
    return CostModel(lam=10.0, n=2)


@pytest.fixture
def small_trace() -> Trace:
    """Deterministic 2-server trace with a mix of short and long gaps."""
    return Trace(2, [(1.0, 1), (2.0, 0), (15.0, 1), (16.0, 1), (40.0, 0)])


@pytest.fixture
def medium_trace() -> Trace:
    return uniform_random_trace(n=4, m=60, horizon=500.0, seed=11)


def slab_passes(fn, tags=("tier", "cells")):
    """Run ``fn()`` with telemetry on; returns its result and the
    ``tags`` of every ``engine.slab`` span it recorded — by default
    ``(tier, cells)``, what tells one slab pass from per-cell runs."""
    from repro.obs import metrics

    with metrics.enabled_scope():
        metrics.reset()
        out = fn()
        snap = metrics.drain()
    spans = [
        tuple(s["tags"].get(t) for t in tags)
        for s in snap["spans"]
        if s["name"] == "engine.slab"
    ]
    return out, spans


def _wang_factory(trace, lam, alpha, accuracy, seed):
    return WangReplication()


@functools.lru_cache(maxsize=None)
def registered_scenario_legs():
    """The two-cell slab legs of the registered-scenario oracle, with
    their reference results; built once per test session.

    Returns ``(legs, covered)``. Each leg is ``(scenario name, trace,
    model, factory, cells, refs)``: a Wang leg on every scenario's trace,
    and the scenario's own two-cell leg wherever its cells are eligible
    for the cost-only tiers (``covered`` counts those scenarios)."""
    from repro.experiments import list_scenarios, trace_digest

    ref_engine = ReferenceEngine()
    kernel = KernelCostEngine()
    legs, covered, wang_refs = [], 0, {}
    for scenario in list_scenarios():
        lam = scenario.lambdas[0]
        alpha = scenario.alphas[0]
        acc = scenario.accuracies[-1]
        seed = scenario.seeds[0]
        trace = scenario.build_trace(lam=lam, alpha=alpha, accuracy=acc, seed=seed)
        model = CostModel(lam=lam, n=trace.n)
        cells = [(alpha, acc, seed), (scenario.alphas[-1], acc, seed)]

        # Wang cells are prediction- and alpha-free: one reference run
        # per (trace, lambda) anchors every Wang slab on it
        key = (trace_digest(trace), lam)
        if key not in wang_refs:
            wang_refs[key] = ref_engine.run(trace, model, WangReplication())
        legs.append((
            scenario.name, trace, model, _wang_factory, cells[:1] * 2,
            [wang_refs[key]] * 2,
        ))
        policies = [scenario.policy_factory(trace, lam, *c) for c in cells]
        # one supports() serves every cost-only tier
        if all(kernel.supports(trace, model, p) for p in policies):
            refs = [
                ref_engine.run(trace, model, scenario.policy_factory(trace, lam, *c))
                for c in cells
            ]
            legs.append((
                scenario.name, trace, model, scenario.policy_factory, cells, refs,
            ))
            covered += 1
    return legs, covered


def _assert_runs_match(name, runs, refs):
    for run, ref in zip(runs, refs, strict=True):
        assert isinstance(run, CostResult), name
        assert run.engine == "kernel", name
        # bit-identity, not mere closeness
        assert run.storage_cost == ref.storage_cost, name
        assert run.transfer_cost == ref.transfer_cost, name
        assert run.n_transfers == ref.ledger.n_transfers, name


def assert_registered_scenarios_match_reference(engine):
    """The registered-scenario oracle: every leg of
    :func:`registered_scenario_legs` runs on ``engine`` (the kernel, or
    ``"auto"``) as one two-cell kernel slab and matches the reference
    cell by cell; at least 19 scenarios must be eligible."""
    legs, covered = registered_scenario_legs()
    for name, trace, model, factory, cells, refs in legs:
        runs, spans = slab_passes(
            lambda: run_slab(trace, model, cells, factory, engine=engine)
        )
        # the kernel ran the slab as one slab call, not cell by cell
        assert spans == [("kernel", len(cells))], name
        _assert_runs_match(name, runs, refs)
    # the paper and adaptive grids, smoke, tight examples, the Wang
    # counterexample, adversary, and the synthetic workload grids must
    # all ride the kernel
    assert covered >= 19


def assert_registered_scenarios_wide():
    """The oracle's wide axis: every leg's two cells cycled to a
    threaded-width slab (so cells with the same alpha share a multi-row
    pass), run under a thread budget of 1 and of 4, matching the cached
    reference results cell by cell; the budget-4 slabs run over
    threads."""
    legs, covered = registered_scenario_legs()
    backends = set()
    for name, trace, model, factory, cells, refs in legs:
        wide = list(itertools.islice(itertools.cycle(cells), MIN_THREADED_CELLS))
        wide_refs = list(itertools.islice(itertools.cycle(refs), len(wide)))
        for budget in (1, 4):
            prev = set_thread_budget(budget)
            try:
                runs, spans = slab_passes(
                    lambda: run_slab(trace, model, wide, factory, engine="kernel"),
                    tags=("cells", "backend", "passes"),
                )
            finally:
                set_thread_budget(prev)
            (n_cells, backend, passes), = spans
            assert n_cells == len(wide), name
            # serial passes take several rows each
            assert budget > 1 or passes < n_cells, (name, passes)
            backends.add(backend)
            _assert_runs_match(name, runs, wide_refs)
    assert backends == {"numpy", "threads"}
    assert covered >= 19


def random_instance(rng: np.random.Generator, max_n: int = 5, max_m: int = 50):
    """Sample a random (trace, model) pair for randomized tests."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    lam = float(rng.uniform(0.1, 10.0))
    horizon = float(rng.uniform(1.0, 100.0))
    seed = int(rng.integers(0, 2**31))
    trace = uniform_random_trace(n, m, horizon, seed=seed)
    return trace, CostModel(lam=lam, n=n)


# ----------------------------------------------------------------------
# hypothesis strategies shared by the engine-tier equivalence suites
# ----------------------------------------------------------------------


@st.composite
def traces(draw, max_n=5, max_m=30):
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
    times = np.cumsum(gaps)
    return Trace(n, list(zip(times.tolist(), servers)))


@st.composite
def tie_prone_traces(draw, max_n=4, max_m=24):
    """Integer gaps force expiry-time ties across prediction branches,
    exercising the kernel's merge tie-break fallback."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    gaps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    times = np.cumsum(np.asarray(gaps, dtype=float))
    return Trace(n, list(zip(times.tolist(), servers)))


@st.composite
def instances(draw, max_m=30):
    trace = draw(traces(max_m=max_m))
    lam = draw(st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False))
    return trace, CostModel(lam=lam, n=trace.n)


@st.composite
def slabs(draw, min_cells=1, max_cells=6):
    """``(alpha, accuracy, seed)`` grid cells of one slab; alphas come
    from a small set, so cells share multi-row passes."""
    k = draw(st.integers(min_cells, max_cells))
    alpha_set = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    alphas = draw(
        st.lists(st.sampled_from(alpha_set), min_size=k, max_size=k)
    )
    accs = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    seeds = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    return list(zip(alphas, accs, seeds))
