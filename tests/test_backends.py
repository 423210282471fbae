"""Serial-vs-threaded bit-identity and wiring tests for the kernel's
execution paths.

The contract under test (core/backends.py DESIGN): a kernel slab runs its
passes one after another (``numpy``) or fanned over a thread pool
(``threads``), chosen only by ``get_backend().resolve`` from the thread
budget and the slab width, and the threaded run reproduces the serial one
*bit for bit*, per cell, across all registered scenarios and every
``supports()``-eligible policy family; the order-sensitive reductions
perform the scalar replay's left-to-right chains; shared slab state
(``_SegmentChains`` memos, prediction batch memos) is thread-safe; and
the process-pool runner caps thread fan-out (workers x threads <= cores).
"""

from __future__ import annotations

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConventionalReplication,
    CostModel,
    LearningAugmentedReplication,
    MultiObjectSystem,
    ObjectSpec,
    ReferenceEngine,
    WangReplication,
    get_backend,
    get_engine,
    run_slab,
)
from repro.analysis.sweep import algorithm1_factory, sweep_grid
from repro.core.backends import (
    merge_interleave,
    repeat_add,
    seq_sum,
    set_thread_budget,
    thread_budget,
)
from repro.core.engine import (
    _kernel_algorithm1,
    _SegmentChains,
    run_policy_slab,
)
from repro.experiments import ExperimentRunner
from repro.obs import metrics as _obs
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
)
from repro.workloads import ibm_like_trace, uniform_random_trace

from conftest import (
    MIN_THREADED_CELLS,
    assert_registered_scenarios_wide,
    instances,
    slab_passes,
    slabs,
    tie_prone_traces,
)


@contextmanager
def budget(n):
    """Run under a kernel thread budget of ``n`` (4 fans a wide slab out
    over threads even on a single-core box)."""
    prev = set_thread_budget(n)
    try:
        yield
    finally:
        set_thread_budget(prev)


def _slab_run(n, run):
    """``run()`` under thread budget ``n``; returns its result and the
    ``backend`` tag of every ``engine.slab`` span."""
    with budget(n):
        out, spans = slab_passes(run, tags=("backend",))
    return out, [backend for (backend,) in spans]


def _serial_and_threaded(run):
    """``run()`` — kernel slabs of at least ``MIN_THREADED_CELLS`` cells
    each — at budget 1 and at budget 4: asserts every slab ran serially,
    then over threads, and returns both results."""
    (serial, tags1), (threaded, tags4) = _slab_run(1, run), _slab_run(4, run)
    assert tags1
    assert (tags1, tags4) == (["numpy"] * len(tags1), ["threads"] * len(tags1))
    return serial, threaded


def _ledgers(results):
    return [(r.storage_cost, r.transfer_cost, r.n_transfers) for r in results]


def assert_threads_match_serial(run):
    """The threaded run of ``run()``'s slab replays every cell's ledger
    bit for bit; returns the serial run's results."""
    serial, threaded = _serial_and_threaded(run)
    assert len(serial) >= MIN_THREADED_CELLS
    assert {r.engine for r in threaded} == {"kernel"}
    assert _ledgers(threaded) == _ledgers(serial)
    return serial


def _kernel_grid(trace, model, cells, factory):
    return lambda: run_slab(trace, model, cells, factory, engine="kernel")


# ----------------------------------------------------------------------
# property-based equivalence: random traces x slabs x eligible policies
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(instances(), slabs(min_cells=MIN_THREADED_CELLS, max_cells=24))
def test_algorithm1_slab_backends_bit_identical(inst, cells):
    trace, model = inst
    assert_threads_match_serial(
        _kernel_grid(trace, model, cells, algorithm1_factory)
    )


@settings(max_examples=30, deadline=None)
@given(
    tie_prone_traces(),
    st.integers(1, 4),
    slabs(min_cells=MIN_THREADED_CELLS, max_cells=24),
)
def test_tie_prone_backends_bit_identical(trace, lam_int, cells):
    """Integer timing: cross-stream expiry ties take the lexsort
    fallback identically on both paths."""
    model = CostModel(lam=float(lam_int), n=trace.n)
    assert_threads_match_serial(
        _kernel_grid(trace, model, cells, algorithm1_factory)
    )


def _conventional_factory(trace, lam, alpha, accuracy, seed):
    return ConventionalReplication()


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(MIN_THREADED_CELLS, 24))
def test_conventional_slab_backends_bit_identical(inst, k):
    trace, model = inst
    cells = [(0.5, 1.0, s) for s in range(k)]
    assert_threads_match_serial(
        _kernel_grid(trace, model, cells, _conventional_factory)
    )


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

    # noisy oracle rides algorithm1_factory (accuracy < 1)
    cells = [
        (float(a), 0.6, k % 3)
        for k, a in enumerate(np.linspace(alpha, 1.0, MIN_THREADED_CELLS))
    ]
    for factory in (
        fixed_factory, adversarial_factory, oracle_factory, algorithm1_factory
    ):
        assert_threads_match_serial(_kernel_grid(trace, model, cells, factory))


@st.composite
def mixed_fleet_slabs(draw):
    """One trace shared by 16-24 objects with per-object lambdas, each
    running Algorithm 1, the conventional baseline or Wang's: the
    cross-object slab a fleet group hands the kernel."""
    trace = draw(tie_prone_traces())
    objects = []
    for _ in range(draw(st.integers(MIN_THREADED_CELLS, 24))):
        lam = draw(st.sampled_from([0.5, 2.0, 8.0]))
        kind = draw(st.sampled_from(["la", "conv", "wang"]))
        alpha = draw(st.floats(0.0, 1.0))
        acc = draw(st.sampled_from([0.5, 1.0]))
        objects.append((lam, kind, alpha, acc))
    return trace, objects


def _fleet_policy(trace, lam, kind, alpha, acc):
    if kind == "la":
        return algorithm1_factory(trace, lam, alpha, acc, 0)
    return ConventionalReplication() if kind == "conv" else WangReplication()


@settings(max_examples=15, deadline=None)
@given(mixed_fleet_slabs())
def test_mixed_fleet_bit_identity_across_backends(slab):
    """Mixed Algorithm-1 + Wang fleet slabs with heterogeneous lambdas:
    the threaded path replays every object's ledger bit for bit, and the
    serial slab and the fleet run both give the reference simulator's
    per-object costs."""
    trace, objects = slab
    models = [CostModel(lam=lam, n=trace.n) for lam, *_ in objects]

    def policies():
        return [_fleet_policy(trace, *obj) for obj in objects]

    serial = assert_threads_match_serial(
        lambda: run_policy_slab(trace, list(zip(models, policies())), "kernel")
    )
    refs = [
        ReferenceEngine().run(trace, model, policy)
        for model, policy in zip(models, policies())
    ]
    assert _ledgers(serial) == [
        (r.storage_cost, r.transfer_cost, r.ledger.n_transfers) for r in refs
    ]

    system = MultiObjectSystem(trace.n, [
        ObjectSpec(f"o{k:02d}", trace, obj[0],
                   lambda tr, model, obj=obj: _fleet_policy(tr, *obj))
        for k, obj in enumerate(objects)
    ])
    report = system.run(engine="kernel", compute_optimal=False)
    assert [o.result.total_cost for o in report.outcomes] == [
        r.total_cost for r in refs
    ]


def test_all_registered_scenarios_backends_bit_identical():
    """The registered-scenario oracle's wide axis: threads == serial ==
    reference per cell on every leg."""
    assert_registered_scenarios_wide()


# ----------------------------------------------------------------------
# the reductions: the scalar replay's left-to-right chains
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=60))
def test_seq_sum_loop_matches_accumulate(vals):
    """seq_sum's accumulate performs the same left-to-right IEEE chain
    as the scalar ``s += v`` loop — only the last partial sum is
    consumed, so the bit patterns agree."""
    s = 0.0
    for v in vals:
        s += v
    assert seq_sum(np.asarray(vals, dtype=np.float64)) == s


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 100.0, allow_nan=False), st.integers(0, 50))
def test_repeat_add_loop_matches_accumulate(value, count):
    s = 0.0
    for _ in range(count):
        s += value
    assert repeat_add(value, count) == s


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=20),
    st.lists(st.integers(0, 4), min_size=0, max_size=20),
)
def test_merge_loop_matches_searchsorted_interleave(gw, gb):
    """The one-search merge order == a stable argsort of the two sorted
    streams when no expiry is shared across them (zero gaps put equal
    expiries inside one stream), and reports (None) any cross-stream
    tie."""
    ew = np.cumsum(np.asarray(gw, dtype=np.float64))
    eb = np.cumsum(np.asarray(gb, dtype=np.float64)) + 0.5  # offset: no ties
    order = merge_interleave(ew, eb)
    assert np.array_equal(
        order, np.argsort(np.concatenate((ew, eb)), kind="stable")
    )
    if ew.size and eb.size:
        eb_tied = eb.copy()
        eb_tied[0] = ew[-1]
        eb_tied.sort()
        assert merge_interleave(ew, eb_tied) is None


# ----------------------------------------------------------------------
# the choice of path: thread budget and slab width only
# ----------------------------------------------------------------------


class TestSelection:
    def test_auto_crossovers(self):
        auto = get_backend()
        with budget(8):
            # wide slab + budget: threads
            assert auto.resolve(121, 10_000).name == "threads"
            assert auto.resolve(MIN_THREADED_CELLS, 10).name == "threads"
            # narrow slab: not worth the fan-out
            assert auto.resolve(MIN_THREADED_CELLS - 1, 10_000).name == "numpy"
        with budget(1):
            assert auto.resolve(121, 100).name == "numpy"
            assert auto.resolve(121, 1_000_000).name == "numpy"

    def test_thread_budget_set_and_restore(self):
        base = thread_budget()
        assert base >= 1
        prev = set_thread_budget(4)
        try:
            assert thread_budget() == 4
        finally:
            set_thread_budget(prev)
        assert thread_budget() == base


def test_auto_never_threads_on_single_core():
    """With a thread budget of 1 `auto` must not pick the threads
    path, whatever the slab shape — one worker thread is pure overhead
    over the serial numpy path."""
    with budget(1):
        for n_cells, m in ((121, 10_000), (1024, 1_000_000), (16, 256)):
            assert get_backend().resolve(n_cells, m).name != "threads"


# ----------------------------------------------------------------------
# thread-safety: shared chains hammered from 16 threads
# ----------------------------------------------------------------------


def _ledger_digest(tuples):
    h = hashlib.sha256()
    for storage, transfer, n_tx in tuples:
        h.update(struct.pack("<ddq", storage, transfer, n_tx))
    return h.hexdigest()


def test_shared_chains_16_thread_stress_digest_identical():
    """One trace, one shared _SegmentChains, 16 threads replaying
    overlapping multi-row passes concurrently: every thread's ledger
    must be digest-identical to the serial replay (lock-guarded shift
    memo, read-only precompute)."""
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
        ledgers = []
        for a in alphas:
            storage, transfer, n_tx = _kernel_algorithm1(
                chains, rate, lam, a, rows, True, None
            )
            ledgers += zip(storage.tolist(), transfer.tolist(), n_tx.tolist())
        return ledgers

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
# layers above: sweep, runner, fleet, obs, bench registration
# ----------------------------------------------------------------------

#: a 4 x 4 grid: one threaded-width slab per lambda
#: 32 cells: the in-process runner splits the slab into two sub-slabs of
#: MIN_THREADED_CELLS, each wide enough for the threaded path
GRID = dict(
    lambdas=(50.0,),
    alphas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    accuracies=(0.25, 0.5, 0.75, 1.0),
)


def _online_costs(sweep):
    return [p.online_cost for p in sweep.points]


def test_sweep_grid_backend_matches_default():
    trace = ibm_like_trace(n=6, m=400, seed=4)
    base, got = _serial_and_threaded(
        lambda: sweep_grid(trace, engine="kernel", **GRID)
    )
    assert _online_costs(base) == _online_costs(got)


def test_experiment_runner_backend_matches_default():
    """The runner's in-process grid chunks (two 16-cell sub-slabs) reach
    the threaded path and return the serial costs."""
    trace = ibm_like_trace(n=6, m=400, seed=4)
    runner = ExperimentRunner(workers=1, engine="kernel")
    base, got = _serial_and_threaded(lambda: runner.run_grid(trace, **GRID))
    assert _online_costs(base) == _online_costs(got)


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
    with budget(6):
        with _Executor(1, {}):
            assert thread_budget() == 6


def test_multi_object_backend_matches_default():
    """A fleet of 32 objects sharing a (trace, lambda) runs as two
    threaded kernel slabs with the serial per-object costs."""
    tr = uniform_random_trace(n=3, m=400, horizon=2e5, seed=7)
    specs = [
        ObjectSpec(
            object_id=f"obj-{i}",
            trace=tr,
            lam=10.0,
            policy_factory=lambda trace, model: ConventionalReplication(),
        )
        for i in range(2 * MIN_THREADED_CELLS)
    ]
    system = MultiObjectSystem(3, specs)
    base, got = _serial_and_threaded(
        lambda: system.run(engine="kernel", compute_optimal=False)
    )
    for a, b in zip(base.outcomes, got.outcomes):
        assert a.result.total_cost == b.result.total_cost
        assert b.result.engine == "kernel"


def test_engine_spans_tagged_with_backend():
    """Kernel spans name the path ``auto`` chose: a narrow slab and a
    single kernel cell, a one-cell slab, run serially whatever the
    budget."""
    trace = uniform_random_trace(n=4, m=400, horizon=1e6, seed=5)
    model = CostModel(lam=20.0, n=4)
    cells = [(a, 1.0, 0) for a in (0.2, 0.5, 0.8)]
    _, tags = _slab_run(
        4, lambda: run_slab(trace, model, cells, algorithm1_factory)
    )
    assert tags == ["numpy"]
    policy = algorithm1_factory(trace, model.lam, 0.5, 1.0, 0)
    with budget(4), _obs.enabled_scope():
        _obs.reset()
        get_engine("kernel").run_observed(trace, model, policy)
        snap = _obs.drain()
    spans = [
        (s["name"], s["tags"]["cells"], s["tags"]["backend"])
        for s in snap["spans"]
        if s["name"] in ("engine.slab", "engine.cell")
    ]
    assert spans == [("engine.slab", 1, "numpy")]


def test_obs_summary_groups_by_backend():
    """repro obs summary splits engine span stats per backend instead of
    lumping all kernel cells together."""
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
             "tags": {"tier": "kernel"}},
        ],
    }
    out = summarize(snap)
    assert "engine.slab{backend=numpy}" in out
    assert "engine.slab{backend=threads}" in out
    # untagged spans keep the bare name
    assert "\n  engine.slab  " in out or "engine.slab " in out


def test_fleet_spans_tag_backend_only_on_kernel_tier():
    """In a fleet only kernel-tier spans name an execution path: every
    engine span, short objects and long alike, and none of the
    runner.chunk spans, whichever path ran inside them."""
    from repro.obs.exporters import summarize

    def conventional(trace, model):
        return ConventionalReplication()

    long = uniform_random_trace(n=3, m=1_034, horizon=2e5, seed=7)
    short = uniform_random_trace(3, 40, 100.0, seed=0)
    specs = [
        ObjectSpec(f"s{i}", short, 5.0, conventional) for i in range(3)
    ] + [ObjectSpec(f"l{i}", long, 10.0, conventional) for i in range(3)]
    with _obs.enabled_scope():
        _obs.reset()
        ExperimentRunner(workers=1).run_fleet(
            MultiObjectSystem(3, specs), engine="auto", compute_optimal=False
        )
        snap = _obs.drain()
    engine_spans = [
        s for s in snap["spans"] if s["name"] in ("engine.slab", "engine.cell")
    ]
    assert {s["tags"]["tier"] for s in engine_spans} == {"kernel"}
    assert all("backend" in s["tags"] for s in engine_spans)
    chunks = [s for s in snap["spans"] if s["name"] == "runner.chunk"]
    assert chunks and not any("backend" in s["tags"] for s in chunks)
    assert "runner.chunk{" not in summarize(snap)


def test_bench_thread_counts_never_oversubscribe(monkeypatch):
    """The scaling bench's threads view sweeps thread budgets only up to
    the core count: on a single-core box the sweep is empty, so the
    recorded report cannot claim a bogus oversubscribed threads win."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "bench_scaling.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_scaling", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    cores = os.cpu_count() or 1
    assert all(2 <= t <= cores for t in mod._thread_counts())
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert mod._thread_counts() == []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert mod._thread_counts() == [2, 8]
