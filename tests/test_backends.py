"""Bit-identity and wiring tests for the kernel execution backends.

The contract under test (core/backends.py DESIGN): every registered
backend — ``numpy`` (serial vectorized passes), ``threads`` (cells
fanned over a thread pool), ``numba`` (compiled hot loops, or its
bit-identical numpy fallback when numba is absent) — must reproduce the
default kernel replay *bit for bit*, per cell, across all registered
scenarios and every ``supports()``-eligible policy family; selection
must ride ``backend=`` parameters, the ``REPRO_KERNEL_BACKEND`` env
override, and strict names through ``get_engine``/``select_engine``/
``run_slab``/``run_policy_slab``/``sweep_grid``/``ExperimentRunner``/
``MultiObjectSystem``/CLI; shared slab state (``_SegmentChains`` memos,
prediction batch memos) must be thread-safe; and the process-pool
runner must cap thread fan-out (workers x threads <= cores).

Mirrors the structure of ``test_kernel_engine.py``.
"""

from __future__ import annotations

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BACKEND_NAMES,
    ConventionalReplication,
    CostModel,
    KernelCostEngine,
    LearningAugmentedReplication,
    Trace,
    get_backend,
    get_engine,
    run_slab,
    select_engine,
)
from repro.analysis.sweep import algorithm1_factory, sweep_grid
from repro.core import backends
from repro.core.backends import (
    NUMPY_PRIMS,
    AutoBackend,
    numba_available,
    numba_prims,
    set_thread_budget,
    thread_budget,
)
from repro.core.engine import (
    KERNEL_SLAB_MIN_M,
    _kernel_algorithm1,
    _SegmentChains,
    run_policy_slab,
)
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
)
from repro.workloads import ibm_like_trace, uniform_random_trace

#: the three concrete backends every test pins against each other
CONCRETE = ("numpy", "threads", "numba")


@contextmanager
def wide_budget(n=8):
    """Force a multi-thread budget so the threads backend actually fans
    out even on single-core CI boxes."""
    prev = set_thread_budget(n)
    try:
        yield
    finally:
        set_thread_budget(prev)


def assert_backends_match(trace, model, factory, cells):
    """numpy == threads == numba(-or-fallback), bit for bit, per cell."""
    with wide_budget():
        runs = {
            name: run_slab(
                trace, model, cells, factory, engine="kernel", backend=name
            )
            for name in CONCRETE
        }
    base = runs["numpy"]
    assert len(base) == len(cells)
    for name in CONCRETE[1:]:
        for cell, a, b in zip(cells, base, runs[name]):
            assert a.storage_cost == b.storage_cost, (name, cell)
            assert a.transfer_cost == b.transfer_cost, (name, cell)
            assert a.n_transfers == b.n_transfers, (name, cell)
            assert b.engine == "kernel"
    return base


# ----------------------------------------------------------------------
# property-based equivalence: random traces x slabs x eligible policies
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
    exercising every backend's merge tie-detection fallback."""
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
def slabs(draw, max_cells=6):
    k = draw(st.integers(1, max_cells))
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    accs = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    seeds = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    return list(zip(alphas, accs, seeds))


@settings(max_examples=40, deadline=None)
@given(instances(), slabs())
def test_algorithm1_slab_backends_bit_identical(inst, cells):
    trace, model = inst
    assert_backends_match(trace, model, algorithm1_factory, cells)


@settings(max_examples=30, deadline=None)
@given(tie_prone_traces(), st.integers(1, 4), st.integers(0, 3))
def test_tie_prone_backends_bit_identical(trace, lam_int, seed):
    """Integer timing: the merge primitive must report cross-stream
    expiry ties identically on every backend (lexsort fallback)."""
    model = CostModel(lam=float(lam_int), n=trace.n)
    cells = [(0.0, 0.3, seed), (0.5, 0.7, seed), (1.0, 1.0, seed)]
    assert_backends_match(trace, model, algorithm1_factory, cells)


def _conventional_factory(trace, lam, alpha, accuracy, seed):
    return ConventionalReplication()


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(1, 4))
def test_conventional_slab_backends_bit_identical(inst, k):
    trace, model = inst
    cells = [(0.5, 1.0, s) for s in range(k)]
    assert_backends_match(trace, model, _conventional_factory, cells)


@settings(max_examples=15, deadline=None)
@given(instances(), st.floats(0.05, 1.0), st.booleans())
def test_every_eligible_predictor_family_across_backends(inst, alpha, within):
    """All supports()-eligible policy families: fixed, adversarial,
    oracle, and noisy-oracle predictors under Algorithm 1."""
    trace, model = inst

    def fixed_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(FixedPredictor(within), a)

    def adversarial_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(AdversarialPredictor(tr), a)

    def oracle_factory(tr, lam, a, acc, seed):
        return LearningAugmentedReplication(OraclePredictor(tr), a)

    cells = [(alpha, 0.0, 0), (1.0, 0.0, 1)]
    for factory in (fixed_factory, adversarial_factory, oracle_factory):
        assert_backends_match(trace, model, factory, cells)
    # noisy oracle rides algorithm1_factory (accuracy < 1)
    assert_backends_match(
        trace, model, algorithm1_factory, [(alpha, 0.6, 3), (0.2, 0.9, 1)]
    )


def test_all_registered_scenarios_backends_bit_identical():
    """Every registered scenario's smoke subset: numpy == threads ==
    numba(-or-fallback) per cell wherever the slab is kernel-eligible."""
    from repro.experiments import list_scenarios

    kernel = get_engine("kernel")
    covered = 0
    for scenario in list_scenarios():
        lam = scenario.lambdas[0]
        alpha = scenario.alphas[0]
        acc = scenario.accuracies[-1]
        seed = scenario.seeds[0]
        trace = scenario.build_trace(lam=lam, alpha=alpha, accuracy=acc, seed=seed)
        model = CostModel(lam=lam, n=trace.n)
        cells = [(alpha, acc, seed), (scenario.alphas[-1], acc, seed)]
        if all(
            kernel.supports(trace, model, scenario.policy_factory(trace, lam, *c))
            for c in cells
        ):
            assert_backends_match(trace, model, scenario.policy_factory, cells)
            covered += 1
    assert covered >= 11  # same floor as the kernel equivalence suite


# ----------------------------------------------------------------------
# primitive contracts: the compiled loop bodies == numpy's op order
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=60))
def test_seq_sum_loop_matches_accumulate(vals):
    """The numba kernel's loop body (here interpreted) performs the same
    left-to-right IEEE chain as np.add.accumulate — only the last
    partial sum is consumed, so the bit patterns agree."""
    arr = np.asarray(vals, dtype=np.float64)
    assert backends._seq_sum_loop(arr.copy()) == backends._np_seq_sum(arr.copy())


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 100.0, allow_nan=False), st.integers(0, 50))
def test_repeat_add_loop_matches_accumulate(value, count):
    assert backends._repeat_add_loop(value, count) == backends._np_repeat_add(
        value, count
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=20),
    st.lists(st.integers(1, 4), min_size=1, max_size=20),
)
def test_merge_loop_matches_searchsorted_interleave(gw, gb):
    """Two-pointer merge == double-searchsorted interleave on tie-free
    streams, and both report exactly the same cross-stream ties."""
    ew = np.cumsum(np.asarray(gw, dtype=np.float64))
    eb = np.cumsum(np.asarray(gb, dtype=np.float64)) + 0.5  # offset: no ties
    dw = np.arange(ew.size) * 2
    db = np.arange(eb.size) * 2 + 1
    a = backends._np_merge_interleave(dw, ew, db, eb)
    o, e, tie = backends._merge_loop(dw, ew, db, eb)
    assert a is not None and not tie
    assert np.array_equal(a[0], o) and np.array_equal(a[1], e)
    # force a tie: both detectors must fire
    eb_tied = eb.copy()
    eb_tied[0] = ew[0]
    eb_tied.sort()
    assert backends._np_merge_interleave(dw, ew, db, eb_tied) is None
    assert backends._merge_loop(dw, ew, db, eb_tied)[2] is True


def test_numba_prims_fallback_is_numpy_when_absent():
    prims = numba_prims()
    if numba_available():
        assert prims.name == "numba" and prims.compiled
    else:
        assert prims is NUMPY_PRIMS
    # either way the numba *backend* resolves and runs
    be = get_backend("numba")
    assert be.name == "numba"
    assert be.prims() is prims


# ----------------------------------------------------------------------
# selection, env override, strict names, crossovers
# ----------------------------------------------------------------------


class TestSelection:
    def setup_method(self):
        self.big = uniform_random_trace(
            n=4, m=KERNEL_SLAB_MIN_M + 200, horizon=1e6, seed=1
        )
        self.model = CostModel(lam=20.0, n=4)

    def test_backend_names_registry(self):
        assert BACKEND_NAMES == ("auto", "numpy", "threads", "numba")
        for name in BACKEND_NAMES:
            assert get_backend(name).name == name

    def test_unknown_backend_raises_everywhere(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("gpu")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_engine("kernel", backend="gpu")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_engine("fast", backend="gpu")  # strict even when unused
        cells = [(0.5, 1.0, 0), (0.2, 1.0, 1)]
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_slab(
                self.big, self.model, cells, algorithm1_factory, backend="gpu"
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_policy_slab(self.big, [], backend="gpu")

    def test_get_engine_backend_variants_are_singletons(self):
        default = get_engine("kernel")
        assert isinstance(default, KernelCostEngine)
        assert default.backend is None
        assert get_engine("kernel") is default  # identity preserved
        thr = get_engine("kernel", backend="threads")
        assert thr is get_engine("kernel", backend="threads")
        assert thr is not default
        assert thr.backend == "threads"
        # backend is a kernel-only knob: other engines ignore it
        assert get_engine("fast", backend="threads") is get_engine("fast")

    def test_select_engine_backend_param(self):
        pol = LearningAugmentedReplication(OraclePredictor(self.big), 0.5)
        assert select_engine(self.big, self.model, pol) is get_engine("kernel")
        chosen = select_engine(self.big, self.model, pol, backend="numba")
        assert chosen is get_engine("kernel", backend="numba")
        # ineligible outcomes ignore (but still validate) the backend
        with pytest.raises(ValueError, match="unknown kernel backend"):
            select_engine(self.big, self.model, pol, backend="gpu")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threads")
        assert get_backend(None).name == "threads"
        assert get_engine("kernel").backend_for(1, 10).name == "threads"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "warp-drive")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend(None)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert get_backend(None).name == "auto"

    def test_auto_crossovers(self):
        auto = AutoBackend()
        with wide_budget(8):
            # wide slab + budget: threads
            assert auto.resolve(121, 10_000).name == "threads"
            # narrow slab: not worth the fan-out
            narrow = auto.resolve(4, 10_000).name
            assert narrow in ("numpy", "numba")
        with wide_budget(1):
            short = auto.resolve(121, 100)
            assert short.name == "numpy"
            long = auto.resolve(121, backends.NUMBA_MIN_M)
            assert long.name == ("numba" if numba_available() else "numpy")

    def test_thread_budget_set_and_restore(self):
        base = thread_budget()
        assert base >= 1
        prev = set_thread_budget(4)
        try:
            assert thread_budget() == 4
        finally:
            set_thread_budget(prev)
        assert thread_budget() == base

    def test_threads_backend_serial_below_crossover(self):
        """Budget 1 or a narrow slab degrades to the serial loop — same
        results, no pool."""
        seen = []
        with wide_budget(1):
            out = get_backend("threads").run_cells(3, lambda c: seen.append(c) or c)
        assert out == [0, 1, 2] and seen == [0, 1, 2]


# ----------------------------------------------------------------------
# thread-safety: shared chains hammered from 16 threads (satellite)
# ----------------------------------------------------------------------


def _ledger_digest(tuples):
    h = hashlib.sha256()
    for storage, transfer, n_tx in tuples:
        h.update(struct.pack("<ddq", storage, transfer, n_tx))
    return h.hexdigest()


def test_shared_chains_16_thread_stress_digest_identical():
    """One trace, one shared _SegmentChains, 16 threads replaying
    overlapping cell sets concurrently: every thread's ledger must be
    digest-identical to the serial replay (thread-local workspaces,
    lock-guarded shift memo, read-only precompute)."""
    trace = ibm_like_trace(n=5, m=2_000, seed=9)
    model = CostModel(lam=10.0, n=trace.n)
    alphas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    from repro.predictions import PredictionStream

    rows = PredictionStream.batch_for_cells(
        [(NoisyOraclePredictor(trace, 0.7, seed=s % 3), model.lam) for s in range(len(alphas))],
        trace,
    )
    rate, lam = model.storage_rates[0], model.lam

    def replay_all(chains):
        return [
            _kernel_algorithm1(chains, rate, lam, a, rows[k], True, None)
            for k, a in enumerate(alphas)
        ]

    expected = _ledger_digest(replay_all(_SegmentChains(trace)))

    shared = _SegmentChains(trace)   # cold memos, populated under race
    with ThreadPoolExecutor(max_workers=16) as pool:
        digests = list(
            pool.map(lambda _: _ledger_digest(replay_all(shared)), range(16))
        )
    assert digests == [expected] * 16


def test_batch_for_cells_memos_thread_safe():
    """Concurrent batch_for_cells calls (function-local truth/draw
    memos) return identical matrices."""
    from repro.predictions import PredictionStream

    trace = uniform_random_trace(n=4, m=300, horizon=2000.0, seed=3)
    cells = [
        (NoisyOraclePredictor(trace, 0.6, seed=s % 2), float(lam))
        for s in range(6)
        for lam in (5, 10)
    ]
    base = PredictionStream.batch_for_cells(cells, trace)
    with ThreadPoolExecutor(max_workers=8) as pool:
        mats = list(
            pool.map(
                lambda _: PredictionStream.batch_for_cells(cells, trace),
                range(8),
            )
        )
    for mat in mats:
        assert np.array_equal(mat, base)


# ----------------------------------------------------------------------
# layers above: sweep, runner, fleet, CLI, obs, bench registration
# ----------------------------------------------------------------------


def test_sweep_grid_backend_matches_default():
    trace = ibm_like_trace(n=6, m=400, seed=4)
    kw = dict(lambdas=(50.0,), alphas=(0.2, 0.8), accuracies=(0.5, 1.0))
    base = sweep_grid(trace, engine="kernel", **kw)
    with wide_budget():
        for name in CONCRETE:
            got = sweep_grid(trace, engine="kernel", backend=name, **kw)
            for pa, pb in zip(base.points, got.points):
                assert pa.online_cost == pb.online_cost


def test_experiment_runner_backend_matches_default():
    from repro.experiments import ExperimentRunner, get_scenario

    scenario = get_scenario("smoke")
    base = ExperimentRunner(workers=1, engine="kernel").run(scenario)
    with wide_budget():
        got = ExperimentRunner(
            workers=1, engine="kernel", backend="threads"
        ).run(scenario)
    assert [r.online_cost for r in base.results] == [
        r.online_cost for r in got.results
    ]


def test_executor_caps_thread_budget_while_forked():
    """workers x threads <= cores: the forked executor installs
    cores // workers and restores the previous budget on exit."""
    import os

    from repro.experiments.runner import _Executor

    cores = os.cpu_count() or 1
    before = thread_budget()
    with _Executor(4, {}) as ex:
        if ex.workers > 1:   # fork available
            assert thread_budget() == max(1, cores // ex.workers)
    assert thread_budget() == before
    # the serial path leaves the budget untouched
    with wide_budget(6):
        with _Executor(1, {}):
            assert thread_budget() == 6


def test_multi_object_backend_matches_default():
    from repro import MultiObjectSystem, ObjectSpec

    tr = uniform_random_trace(n=3, m=KERNEL_SLAB_MIN_M + 10, horizon=2e5, seed=7)
    specs = [
        ObjectSpec(
            object_id=f"obj-{i}",
            trace=tr,
            lam=10.0,
            policy_factory=lambda trace, model: ConventionalReplication(),
        )
        for i in range(3)
    ]
    system = MultiObjectSystem(3, specs)
    base = system.run(engine="kernel", compute_optimal=False, grouped=True)
    with wide_budget():
        got = system.run(
            engine="kernel", compute_optimal=False, grouped=True,
            backend="threads",
        )
    for a, b in zip(base.outcomes, got.outcomes):
        assert a.result.total_cost == b.result.total_cost
        assert b.result.engine == "kernel"


def test_cli_sweep_backend_flag(capsys):
    from repro.cli import main

    assert main([
        "sweep", "--lambda", "100", "--requests", "120", "--coarse",
        "--engine", "kernel", "--backend", "threads",
    ]) == 0
    out = capsys.readouterr().out
    assert "alpha\\acc" in out


def test_cli_fleet_env_backend_end_to_end(capsys, monkeypatch):
    """REPRO_KERNEL_BACKEND steers `repro fleet run` end-to-end: every
    backend produces the identical fleet report."""
    from repro.cli import main

    argv = [
        "fleet", "run", "--scenario", "smoke", "--objects", "6",
        "--templates", "2", "--workers", "1", "--no-optimal", "--quiet",
        "--engine", "kernel",
    ]
    tables = []
    with wide_budget():
        for name in CONCRETE:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            assert main(list(argv)) == 0
            out = capsys.readouterr().out
            # keep the deterministic report table, drop the timing line
            tables.append(out.split("\n6 objects,")[0])
    monkeypatch.delenv("REPRO_KERNEL_BACKEND")
    assert tables[0] == tables[1] == tables[2]
    assert "online" in tables[0]


@st.composite
def mixed_fleet_systems(draw):
    """Small mixed Algorithm-1 + Wang fleets over shared templates."""
    from repro import MultiObjectSystem, ObjectSpec
    from repro.algorithms.wang import WangReplication

    n = draw(st.integers(2, 4))
    templates = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(1, 12))
        gaps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        servers = draw(
            st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
        )
        times = np.cumsum(np.asarray(gaps, dtype=float))
        templates.append(Trace(n, list(zip(times.tolist(), servers))))

    def la(trace, model):
        return algorithm1_factory(trace, model.lam, 0.5, 1.0, 0)

    def conv(trace, model):
        return ConventionalReplication()

    def wang(trace, model):
        return WangReplication()

    k = draw(st.integers(2, 6))
    specs = [
        ObjectSpec(
            f"o{i:02d}",
            templates[draw(st.integers(0, len(templates) - 1))],
            draw(st.sampled_from([0.5, 2.0, 8.0])),
            draw(st.sampled_from([la, conv, wang])),
        )
        for i in range(k)
    ]
    return MultiObjectSystem(n, specs)


@settings(max_examples=15, deadline=None)
@given(mixed_fleet_systems())
def test_mixed_fleet_bit_identity_across_backends(system):
    """Mixed Algorithm-1 + Wang fleet slabs: serial == grouped ==
    sharded, per object, under every execution backend."""
    from repro.experiments import ExperimentRunner

    serial = system.run(engine="fast", compute_optimal=False)
    base = [o.result.total_cost for o in serial.outcomes]
    with wide_budget():
        for name in CONCRETE:
            grouped = system.run(
                engine="kernel", compute_optimal=False, grouped=True,
                backend=name,
            )
            assert [o.result.total_cost for o in grouped.outcomes] == base
            sharded = ExperimentRunner(workers=1, backend=name).run_fleet(
                system, engine="kernel", compute_optimal=False
            )
            assert [o.result.total_cost for o in sharded.outcomes] == base


def test_engine_spans_tagged_with_backend():
    """The slab span names the backend that ran the slab: an explicit
    ``backend=`` name, or a caller-supplied kernel instance's own."""
    from repro.obs import metrics as _obs

    trace = uniform_random_trace(
        n=4, m=KERNEL_SLAB_MIN_M + 50, horizon=1e6, seed=5
    )
    model = CostModel(lam=20.0, n=4)
    cells = [(a, 1.0, 0) for a in (0.2, 0.5, 0.8)]
    for kw, expected in (
        (dict(engine="kernel", backend="numpy"), "numpy"),
        (dict(engine=KernelCostEngine(backend="threads")), "threads"),
        (dict(engine=KernelCostEngine(backend="numba")), "numba"),
    ):
        with _obs.enabled_scope():
            run_slab(trace, model, cells, algorithm1_factory, **kw)
            snap = _obs.drain()
        slab_spans = [s for s in snap["spans"] if s["name"] == "engine.slab"]
        assert slab_spans and all(
            s["tags"]["backend"] == expected for s in slab_spans
        ), kw


def test_obs_summary_groups_by_backend():
    """repro obs summary splits engine span stats per backend instead of
    lumping all kernel cells together (satellite fix)."""
    from repro.obs.exporters import summarize

    snap = {
        "kind": "repro-obs-snapshot",
        "counters": [], "gauges": [], "histograms": [],
        "spans": [
            {"name": "engine.slab", "dur_ns": 10**9,
             "tags": {"tier": "kernel", "backend": "numpy"}},
            {"name": "engine.slab", "dur_ns": 2 * 10**9,
             "tags": {"tier": "kernel", "backend": "threads"}},
            {"name": "engine.slab", "dur_ns": 5 * 10**8,
             "tags": {"tier": "batch"}},
        ],
    }
    out = summarize(snap)
    assert "engine.slab{backend=numpy}" in out
    assert "engine.slab{backend=threads}" in out
    # untagged spans keep the bare name
    assert "\n  engine.slab  " in out or "engine.slab " in out


def test_fleet_chunk_spans_tagged_with_backend():
    """fleet.chunk spans carry the resolved kernel backend, so `repro
    obs summary` groups fleet telemetry per backend exactly like the
    engine.slab spans (satellite fix)."""
    from repro import MultiObjectSystem, ObjectSpec
    from repro.experiments import ExperimentRunner
    from repro.obs import metrics as _obs
    from repro.obs.exporters import summarize

    tr = uniform_random_trace(n=3, m=40, horizon=100.0, seed=3)
    specs = [
        ObjectSpec(
            f"o{i}", tr, 5.0,
            lambda trace, model: ConventionalReplication(),
        )
        for i in range(4)
    ]
    system = MultiObjectSystem(3, specs)
    runner = ExperimentRunner(workers=1, backend="numpy")
    with _obs.enabled_scope():
        runner.run_fleet(system, engine="kernel", compute_optimal=False)
        snap = _obs.drain()
    chunk_spans = [s for s in snap["spans"] if s["name"] == "fleet.chunk"]
    assert chunk_spans and all(
        s["tags"]["backend"] == "numpy" for s in chunk_spans
    )
    assert "fleet.chunk{backend=numpy}" in summarize(snap)


def test_auto_never_threads_on_single_core():
    """With a thread budget of 1 `auto` must not pick the threads
    backend, whatever the slab shape — one worker thread is pure
    overhead over the serial numpy path."""
    auto = AutoBackend()
    with wide_budget(1):
        for n_cells, m in ((121, 10_000), (1024, 1_000_000), (16, 256)):
            assert auto.resolve(n_cells, m).name != "threads"


def test_bench_thread_counts_never_oversubscribe(monkeypatch):
    """The backends bench sweeps thread budgets only up to the core
    count: on a single-core box the sweep is empty, so the recorded
    report cannot claim a bogus oversubscribed threads win."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "bench_backends.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_backends", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    cores = os.cpu_count() or 1
    assert all(2 <= t <= cores for t in mod._thread_counts())
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert mod._thread_counts() == []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert mod._thread_counts() == [2, 8]


def test_bench_discovery_includes_backends_suite():
    import os

    from repro.cli import _discover_bench_suites, main

    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    assert "backends" in _discover_bench_suites(bench_dir)


def test_bench_cli_list_includes_backends(capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    assert "backends" in capsys.readouterr().out
