"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

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


def slab_passes(fn):
    """Run ``fn()`` with telemetry on; returns its result and the
    ``(tier, cells)`` of every ``engine.slab`` span it recorded — what
    tells one slab pass from per-cell runs."""
    from repro.obs import metrics

    with metrics.enabled_scope():
        metrics.reset()
        out = fn()
        snap = metrics.drain()
    spans = [
        (s["tags"]["tier"], s["tags"]["cells"])
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
