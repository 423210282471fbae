"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import CostModel, Trace
from repro.workloads import uniform_random_trace


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
def instances(draw):
    trace = draw(traces())
    lam = draw(st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False))
    return trace, CostModel(lam=lam, n=trace.n)


@st.composite
def slabs(draw, min_cells=1, max_cells=6):
    """``(alpha, accuracy, seed)`` grid cells of one slab."""
    k = draw(st.integers(min_cells, max_cells))
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    accs = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    seeds = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    return list(zip(alphas, accs, seeds))
