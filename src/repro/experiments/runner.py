"""Parallel experiment execution with caching and deterministic results.

:class:`ExperimentRunner` expands a :class:`~.registry.Scenario` into
atomic :class:`Job`s — one per ``(lambda, alpha, accuracy, seed)`` cell
— and shards them across a ``ProcessPoolExecutor``.  Three properties
make the parallelism safe to adopt everywhere:

* **Determinism** — every job seeds its own predictor from the job's
  ``seed`` field, exactly as the serial :func:`~..analysis.sweep.sweep_grid`
  loop does, so ``workers=8`` is bit-identical to ``workers=1`` and to
  the legacy serial path.
* **Caching / resumability** — each completed job (and each offline-
  optimal computation) is written to the :class:`~.cache.ResultCache` as
  it finishes; an interrupted grid resumes from the completed cells and
  a warm re-run executes zero simulations.
* **Cheap dispatch** — jobs are tiny tuples; traces and factories reach
  the workers through fork-inherited module state (never pickled), and
  jobs are chunked to amortise the remaining IPC.
* **Columnar trace hand-off** — a large trace (``spill_threshold``
  requests and up, with ``workers > 1``) is not handed to workers as a
  Python object at all: the parent writes its columns once to a
  content-addressed ``<digest>.npz`` spool file and the context carries
  only ``(digest, path)``.  Each worker memory-maps the file on first
  use (``load_trace_npz(mmap=True)``) and caches it by digest, so all
  processes share one physical copy of the columns through the OS page
  cache — nothing is pickled, nothing is duplicated per worker, and the
  arrays the workers compute on are the exact bytes the parent hashed.

On platforms without the ``fork`` start method (or with ``workers<=1``)
execution falls back to the identical in-process code path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..analysis.sweep import SweepPoint, SweepResult, algorithm1_factory
from ..core import backends
from ..core.costs import CostModel
from ..core.engine import (
    CostResult,
    Engine,
    run_policy_slab,
    run_slab,
)
from ..core.trace import Trace
from ..obs import metrics as _obs
from ..obs.logging import get_logger, kv
from ..offline.dp import optimal_cost
from .cache import NullCache, ResultCache, trace_digest
from .progress import NullProgress, ProgressReporter
from .registry import PolicyFactory, Scenario, get_scenario

__all__ = [
    "Job",
    "JobResult",
    "ExperimentResult",
    "ExperimentRunner",
    "WorkerCrashError",
]

_log = get_logger("experiments.runner")


class WorkerCrashError(RuntimeError):
    """A pool worker process died mid-run (killed, out of memory, ...).

    The message names the task kind that was in flight and, for a cached
    scenario run, that re-running with the same cache resumes from the
    cells completed before the crash.
    """


@dataclass(frozen=True)
class Job:
    """One atomic simulation cell of a scenario grid."""

    index: int
    scenario: str
    lam: float
    alpha: float
    accuracy: float
    seed: int
    trace_key: tuple = ()

    @property
    def params(self) -> dict[str, float | int]:
        return {
            "lam": self.lam,
            "alpha": self.alpha,
            "accuracy": self.accuracy,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class JobResult:
    """A completed job: its parameters plus both measured costs."""

    job: Job
    online_cost: float
    optimal_cost: float
    cached: bool = False

    @property
    def ratio(self) -> float:
        if self.optimal_cost == 0:
            return float("inf")
        return self.online_cost / self.optimal_cost

    def as_row(self) -> dict[str, Any]:
        return {
            "scenario": self.job.scenario,
            "seed": self.job.seed,
            "lam": self.job.lam,
            "alpha": self.job.alpha,
            "accuracy": self.job.accuracy,
            "online_cost": self.online_cost,
            "optimal_cost": self.optimal_cost,
            "ratio": self.ratio,
            "cached": self.cached,
        }


@dataclass
class ExperimentResult:
    """All rows of one scenario run plus execution statistics."""

    scenario: str
    description: str
    results: list[JobResult] = field(default_factory=list)
    workers: int = 1
    executed: int = 0
    cached: int = 0
    opt_executed: int = 0
    opt_cached: int = 0
    elapsed: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def rows(self) -> list[dict[str, Any]]:
        return [r.as_row() for r in self.results]

    def seeds(self) -> list[int]:
        return sorted({r.job.seed for r in self.results})

    def sweep_result(self, seed: int | None = None) -> SweepResult:
        """The rows of one seed as a legacy :class:`SweepResult`.

        With a single-seed scenario the seed argument may be omitted; the
        returned points follow the serial ``sweep_grid`` ordering.
        """
        seeds = self.seeds()
        if seed is None:
            if len(seeds) > 1:
                raise ValueError(
                    f"scenario {self.scenario} has seeds {seeds}; pass seed="
                )
            seed = seeds[0] if seeds else 0
        out = SweepResult()
        for r in sorted(self.results, key=lambda r: r.job.index):
            if r.job.seed != seed:
                continue
            out.add(
                SweepPoint(
                    lam=r.job.lam,
                    alpha=r.job.alpha,
                    accuracy=r.job.accuracy,
                    online_cost=r.online_cost,
                    optimal_cost=r.optimal_cost,
                )
            )
        return out


# ----------------------------------------------------------------------
# worker-side state and task functions
#
# The scenario (with its arbitrary, possibly unpicklable factories) and
# the pre-built traces are published in this module-level slot *before*
# the pool is created; forked workers inherit the snapshot, so task
# arguments stay tiny and nothing user-defined is ever pickled.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: dict[str, Any] | None = None

#: per-process cache of spooled traces, keyed by content digest — one
#: mmap per worker process regardless of how many chunks touch the trace
_TRACE_MEMO: dict[str, Trace] = {}


def _ctx() -> dict[str, Any]:
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError("experiment worker context is not initialised")
    return _WORKER_CONTEXT


def _resolve_trace(trace_key: tuple) -> Trace:
    """The trace for ``trace_key``: fork-inherited object, or a lazily
    memory-mapped spool file shared by every process (see the module
    docstring's columnar hand-off note)."""
    ctx = _ctx()
    trace = ctx["traces"].get(trace_key)
    if trace is not None:
        return trace
    digest, path = ctx["trace_files"][trace_key]
    trace = _TRACE_MEMO.get(digest)
    if trace is None:
        from ..system.trace_io import load_trace_npz

        # the parent validated the trace before spooling it; skipping
        # re-validation keeps the load O(1) (no page is faulted in)
        trace = load_trace_npz(path, mmap=True, validate=False)
        _TRACE_MEMO[digest] = trace
    return trace


#: bucket bounds for the cells-per-dispatched-chunk histogram: 1 cell up
#: to 10k cells, two buckets per decade
_SLAB_CELL_BUCKETS = _obs.log_buckets(1.0, 1e4, per_decade=2)


def _chunk_observed(kind: str, cells: int, thunk: Callable[[], Any]):
    """Run one worker chunk, piggybacking telemetry on its result.

    Every task function returns ``(payload, delta)`` where ``delta`` is
    the worker's drained registry snapshot (None when instrumentation is
    off, so the disabled path ships no extra bytes over the IPC).  The
    parent folds each delta in with :func:`repro.obs.metrics.merge_delta`
    at the consumption site.
    """
    if not _obs.enabled:
        return thunk(), None
    with _obs.span("runner.chunk", kind=kind, cells=cells) as sp:
        payload = thunk()
    _obs.counter("repro_worker_busy_seconds_total").inc(sp.elapsed)
    return payload, _obs.drain()


def _group_optimum(trace_key: tuple, lam: float) -> float:
    """The offline optimum of one ``(trace, lambda)`` group."""
    trace = _resolve_trace(trace_key)
    return optimal_cost(trace, CostModel(lam=lam, n=trace.n))


def _opt_task(item: tuple[tuple, float]):
    trace_key, lam = item
    return _chunk_observed(
        "opt", 1, lambda: (trace_key, lam, _group_optimum(trace_key, lam))
    )


def _slab_chunk_task(
    item: tuple[tuple, float, Sequence[tuple[int, float, float, int]]],
):
    """Evaluate one slab chunk: cells sharing a ``(trace, lambda)``.

    ``item`` is ``(trace_key, lam, cells)`` with each cell an
    ``(index, alpha, accuracy, seed)`` tuple.  The whole chunk goes
    through :func:`~repro.core.engine.run_slab` — the grid adapter of the
    one slab dispatcher, :func:`~repro.core.engine.run_policy_slab` — as
    a kernel slab where the engine and policies allow it and as
    bit-identical per-cell runs otherwise, so one IPC round covers the
    entire slab either way.
    """
    trace_key, lam, cells = item
    if _obs.enabled:
        _obs.histogram(
            "repro_runner_slab_cells", bounds=_SLAB_CELL_BUCKETS
        ).observe(len(cells))

    def compute() -> list[tuple[int, float]]:
        ctx = _ctx()
        scenario: Scenario = ctx["scenario"]
        trace = _resolve_trace(trace_key)
        engine = ctx.get("engine", "auto")
        model = CostModel(lam=lam, n=trace.n)
        runs = run_slab(
            trace,
            model,
            [(alpha, accuracy, seed) for _, alpha, accuracy, seed in cells],
            scenario.policy_factory,
            engine=engine,
        )
        return [(cell[0], run.total_cost) for cell, run in zip(cells, runs)]

    return _chunk_observed("sim", len(cells), compute)


def _fleet_chunk_task(chunk: Sequence[tuple]):
    """Evaluate one fleet chunk: a tuple of cross-object sub-slabs.

    Each sub-slab is ``(trace_key, lam, spec_indices, factory_indices,
    first)`` — the objects of one ``(trace digest, lambda)`` group
    assigned to this chunk.  The worker resolves the shared trace once
    (fork-inherited object or digest-addressed mmap), builds every
    object's policy from the fork-inherited factory table, and evaluates
    the whole sub-slab through :func:`~repro.core.engine.run_policy_slab`
    (kernel slab where eligible, per-cell fallback otherwise) —
    the same dispatcher grid chunks reach through ``run_slab``.

    ``first`` marks the sub-slab holding its group's first spec index
    (only when the parent asked for optima): the worker also computes
    that group's offline optimum, outside the ``fleet.chunk`` span, so
    the optima ride in their chunk and a fleet pass costs one pool round
    trip per chunk rather than one per object.

    Returns ``(opts, rows)``.  ``opts`` lists ``(trace_key, lam,
    optimum)`` per flagged sub-slab.  ``rows`` are ``(spec_index, row)``
    where ``row`` is the bare online cost in streaming mode, or a compact
    ``("cost", name, engine, storage, transfer, n_tx)`` tuple /
    ``("full", SimulationResult)`` payload when the parent materializes
    outcomes — compact rows keep a million-object run's IPC free of
    per-object trace pickling (the parent rebuilds each
    :class:`~repro.core.engine.CostResult` against its own trace
    reference, bitwise-identical totals).
    """
    n_objects = sum(len(sub[2]) for sub in chunk)

    def compute() -> tuple[list, list]:
        ctx = _ctx()
        n: int = ctx["n"]
        engine = ctx.get("engine", "reference")
        factories = ctx["factories"]
        ship_results: bool = ctx["fleet_ship_results"]
        opts: list[tuple[tuple, float, float]] = []
        rows: list[tuple[int, Any]] = []
        for trace_key, lam, idxs, fidxs, first in chunk:
            if first:
                opts.append((trace_key, lam, _group_optimum(trace_key, lam)))
            trace = _resolve_trace(trace_key)
            model = CostModel(lam=lam, n=n)
            cells = [(model, factories[f](trace, model)) for f in fidxs]
            if _obs.enabled:
                with _obs.span(
                    "fleet.chunk", objects=len(idxs), m=len(trace), lam=lam
                ):
                    runs = run_policy_slab(trace, cells, engine)
            else:
                runs = run_policy_slab(trace, cells, engine)
            for i, result in zip(idxs, runs):
                if not ship_results:
                    rows.append((i, result.total_cost))
                elif type(result) is CostResult:
                    rows.append(
                        (
                            i,
                            (
                                "cost",
                                result.policy_name,
                                result.engine,
                                result.storage_cost,
                                result.transfer_cost,
                                result.n_transfers,
                            ),
                        )
                    )
                else:
                    rows.append((i, ("full", result)))
        return opts, rows

    return _chunk_observed("fleet", n_objects, compute)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _stable_identity(fn) -> str | None:
    """``module.qualname`` if that path resolves back to ``fn``, else None.

    Closures, lambdas, and bound methods share a qualname across
    distinct parameterisations, so their identity is not cache-safe.
    """
    mod = getattr(fn, "__module__", None)
    qual = getattr(fn, "__qualname__", "")
    if not mod or "<locals>" in qual or "<lambda>" in qual:
        return None
    obj = sys.modules.get(mod)
    for part in qual.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return f"{mod}.{qual}" if obj is fn else None


class _Executor:
    """Uniform chunk executor: forked process pool, or in-process.

    Publishes ``context`` to :data:`_WORKER_CONTEXT` for the duration of
    the run so the task functions behave identically on both paths.

    When forking, also installs a kernel thread budget of
    ``cores // workers`` *before* the pool is created, so forked workers
    inherit the cap and the kernel's threaded path never oversubscribes
    the box beyond ``workers x threads <= cores`` (the serial path keeps the
    full budget).  The previous budget is restored on exit.

    A worker that dies mid-run breaks the pool; :meth:`run_tagged` turns
    that into a :class:`WorkerCrashError` naming the task kinds in
    flight, followed by ``crash_hint`` (what the caller can do about it).
    """

    _NO_BUDGET = object()     # sentinel: budget untouched (serial path)

    def __init__(
        self, workers: int, context: dict[str, Any], crash_hint: str = ""
    ):
        self._context = context
        self._crash_hint = crash_hint
        self._mp = _fork_context() if workers > 1 else None
        self.workers = workers if self._mp is not None else 1
        self._prev_budget: Any = self._NO_BUDGET

    def __enter__(self) -> "_Executor":
        global _WORKER_CONTEXT
        _WORKER_CONTEXT = self._context
        if self.workers > 1:
            self._prev_budget = backends.set_thread_budget(
                max(1, (os.cpu_count() or 1) // self.workers)
            )
        self._pool = (
            ProcessPoolExecutor(max_workers=self.workers, mp_context=self._mp)
            if self.workers > 1
            else None
        )
        return self

    def __exit__(self, *exc) -> None:
        global _WORKER_CONTEXT
        if self._pool is not None:
            # cancel anything still queued (interrupt/resume support)
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self._prev_budget is not self._NO_BUDGET:
            backends.set_thread_budget(self._prev_budget)
            self._prev_budget = self._NO_BUDGET
        _WORKER_CONTEXT = None

    def run_tagged(
        self,
        tasks,
        window: int | None = None,
    ):
        """Yield ``(tag, fn(arg))`` for heterogeneous tasks as they
        complete.

        ``tasks`` is any iterable of ``(tag, fn, arg)`` triples.  With
        ``window=None`` every task enters the pool together, so cheap
        and expensive kinds never serialise behind each other.  A finite
        ``window`` keeps at most that many tasks in flight and refills
        from the iterable as futures complete — the shared-queue half of
        work-stealing dispatch: a worker that drains its small chunks
        immediately pulls the next one while a straggler is still busy,
        and the parent never holds more than ``window`` futures for an
        arbitrarily long task stream.
        """
        if self._pool is None:
            for tag, fn, arg in tasks:
                yield tag, fn(arg)
            return
        it = iter(tasks)
        limit = float("inf") if window is None else max(1, window)
        tags: dict[Any, Any] = {}
        pending: set = set()

        def refill() -> None:
            while len(pending) < limit:
                nxt = next(it, None)
                if nxt is None:
                    return
                tag, fn, arg = nxt
                fut = self._pool.submit(fn, arg)
                tags[fut] = tag
                pending.add(fut)

        try:
            refill()
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    result = fut.result()
                    yield tags.pop(fut), result
                refill()
        except BrokenProcessPool as exc:
            # every task still tagged was in flight when the pool broke
            kinds = ", ".join(sorted(set(tags.values())))
            raise WorkerCrashError(
                f"a worker process died while running {kinds} tasks"
                f"{self._crash_hint}"
            ) from exc


class ExperimentRunner:
    """Run scenarios, grids, and fleets in parallel with result caching.

    Parameters
    ----------
    workers:
        Process count; ``None`` auto-detects (``os.cpu_count()``), values
        ``<= 1`` run serially in-process (still with caching/progress).
    cache:
        A :class:`ResultCache` for on-disk memoisation, or ``None`` to
        disable caching entirely.
    chunk_size:
        Jobs per dispatched task; ``None`` picks a size that keeps every
        worker busy while amortising pickling.
    progress:
        A :class:`~.progress.ProgressReporter`; defaults to silent.
    engine:
        Simulation engine for grid cells: ``"auto"`` (default) evaluates
        each dispatched slab of cells sharing a ``(trace, lambda)`` as
        one kernel slab of loop-free multi-row passes where the kernel
        supports the cells, per cell on the reference engine otherwise;
        ``"kernel"``/``"reference"`` force one engine.
        Results are bit-identical across engines, so the result cache is
        shared between them.  When this runner forks worker processes it
        caps the kernel's thread fan-out at ``cores // workers`` for the
        duration of the run (workers x threads <= cores); that budget is
        what decides whether a kernel slab runs serially or threaded
        (``core/backends.py``), bit-identically either way.
    spill_dir:
        Directory for content-addressed ``<digest>.npz`` trace spool
        files (the columnar worker hand-off).  ``None`` (default) uses a
        per-run temporary directory that is removed when the run ends; a
        persistent directory is reused across runs (files are keyed by
        trace content, so stale entries are impossible).
    spill_threshold:
        Minimum trace length (requests) for the spool hand-off; shorter
        traces ride along in the fork-inherited context as before.
        ``None`` disables spooling entirely.
    """

    #: traces at least this long are handed to workers by digest + mmap
    #: path instead of as in-context objects
    DEFAULT_SPILL_THRESHOLD = 100_000

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
        chunk_size: int | None = None,
        progress: ProgressReporter | None = None,
        engine: str | Engine = "auto",
        spill_dir: str | os.PathLike[str] | None = None,
        spill_threshold: int | None = DEFAULT_SPILL_THRESHOLD,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else NullCache()
        self.chunk_size = chunk_size
        self.progress = progress if progress is not None else NullProgress()
        self.engine = engine
        self.spill_dir = spill_dir
        self.spill_threshold = spill_threshold

    # ------------------------------------------------------------------
    def run(self, scenario: str | Scenario) -> ExperimentResult:
        """Execute every cell of a scenario (registered name or object)."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return self._run_scenario(scenario)

    def run_grid(
        self,
        trace: Trace,
        lambdas: Sequence[float],
        alphas: Sequence[float],
        accuracies: Sequence[float],
        factory: PolicyFactory = algorithm1_factory,
        seed: int = 0,
        optimal_cache: dict[float, float] | None = None,
        engine: str | Engine | None = None,
    ) -> SweepResult:
        """Drop-in parallel equivalent of the serial ``sweep_grid`` loop.

        Simulation results are disk-cached only when ``factory`` is a
        plain module-level function whose name is a stable identity;
        closures, lambdas, and bound methods carry hidden state the
        cache key cannot see, so their grids run uncached (the offline
        optima, which depend only on the trace, stay cached either way).
        """
        salt = _stable_identity(factory)
        scenario = Scenario(
            name="adhoc-grid",
            description="ad-hoc sweep_grid delegation",
            trace_factory=lambda: trace,
            policy_factory=factory,
            lambdas=tuple(lambdas),
            alphas=tuple(alphas),
            accuracies=tuple(accuracies),
            seeds=(seed,),
            trace_params=(),
            cache_salt=salt or "",
        )
        result = self._run_scenario(
            scenario,
            optimal_cache=optimal_cache,
            sim_cache=self.cache if salt is not None else NullCache(),
            engine=engine,
        )
        return result.sweep_result(seed)

    def run_fleet(
        self,
        system,
        compute_optimal: bool = True,
        engine: str | Engine | None = None,
        materialize: bool = True,
        top_k: int = 16,
    ):
        """Parallel equivalent of ``MultiObjectSystem.run``.

        Object results are not cached (policy factories of ad-hoc specs
        have no stable identity); parallelism and progress only.  The
        dispatch is built for fleet scale:

        * objects are grouped by ``(trace digest, lambda)`` and each
          group evaluates as one cross-object engine slab in the worker
          (:func:`~repro.core.engine.run_policy_slab`);
        * workers receive only their own chunk's spec indices — the
          distinct traces travel once through the fork-inherited context
          or the content-addressed mmap spool, never per object;
        * chunks are sized by total trace length and pulled from a
          shared refill queue (``run_tagged(window=...)``), so one giant
          object among thousands of tiny ones does not straggle;
        * each group's offline optimum is computed once, by the chunk
          holding the group's first object, and rides back with that
          chunk's rows — one pool round trip per chunk, not one per
          object.

        Outcomes fold through an index-ordered reorder buffer, keeping
        every mode bit-identical to the serial per-object loop (see the
        DESIGN docstring in :mod:`repro.system.multi_object`).

        ``engine`` threads through to every per-object simulation.
        ``None`` (the default) inherits the engine this runner was
        configured with, except that the runner default ``"auto"``
        resolves to ``"reference"`` here: fleet reports expose full
        per-object simulation results (serves, logs), so only an
        explicit cost-only choice — ``ExperimentRunner(engine="kernel")``,
        or ``engine="auto"``/``"kernel"`` passed directly —
        trades that telemetry away.

        ``materialize=False`` streams outcomes through the report's
        :class:`~repro.system.multi_object.FleetStats` accumulator
        (totals, worst object, ratio sketch, ``top_k`` offenders) and
        ships only online costs back from workers, so million-object
        runs hold O(top_k) state end to end.
        """
        from ..system.multi_object import FleetReport

        if engine is None:
            engine = "reference" if self.engine == "auto" else self.engine
        specs = list(system.specs)
        report = FleetReport(materialize=materialize, top_k=top_k)
        if not specs:
            return report
        n: int = system.n

        # distinct traces: dedupe by object identity first (cheap), then
        # by content digest — the digest is the trace's worker-side name
        digest_by_id: dict[int, str] = {}
        traces: dict[str, Trace] = {}
        spec_digest: list[str] = []
        for spec in specs:
            d = digest_by_id.get(id(spec.trace))
            if d is None:
                d = trace_digest(spec.trace)
                digest_by_id[id(spec.trace)] = d
                traces.setdefault(d, spec.trace)
            spec_digest.append(d)

        # distinct policy factories, fork-inherited; chunks carry indices
        findex: dict[int, int] = {}
        factories: list[Any] = []
        spec_f: list[int] = []
        for spec in specs:
            k = id(spec.policy_factory)
            if k not in findex:
                findex[k] = len(factories)
                factories.append(spec.policy_factory)
            spec_f.append(findex[k])

        # (digest, lambda) slab groups, spec order within each group
        groups: dict[tuple[str, float], list[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault((spec_digest[i], spec.lam), []).append(i)
        group_items = [(d, lam, idxs) for (d, lam), idxs in groups.items()]

        inherit, trace_files, spool_cleanup = self._spool_traces(
            traces, {d: d for d in traces}
        )
        context = {
            "traces": inherit,
            "trace_files": trace_files,
            "n": n,
            "engine": engine,
            "factories": factories,
            "fleet_ship_results": bool(materialize),
        }
        chunks = self._fleet_chunks(
            group_items, specs, spec_f, compute_optimal=compute_optimal
        )
        tasks = (("fleet", _fleet_chunk_task, c) for c in chunks)
        self.progress.start(len(specs), label="fleet", unit="objects")
        opts: dict[tuple[str, float], float] = {}
        pending_rows: dict[int, Any] = {}
        spec_key = [(spec_digest[i], specs[i].lam) for i in range(len(specs))]
        next_i = 0

        def drain() -> None:
            # reorder buffer: outcomes enter the report in spec-index
            # order (and only once their group's optimum is known), so
            # streaming totals repeat the serial sum's float additions
            nonlocal next_i
            while next_i < len(specs):
                if next_i not in pending_rows:
                    return
                key = spec_key[next_i]
                if compute_optimal and key not in opts:
                    return
                row = pending_rows.pop(next_i)
                spec = specs[next_i]
                if materialize:
                    if row[0] == "full":
                        result = row[1]
                    else:
                        _, name, eng_name, storage, transfer, n_tx = row
                        result = CostResult(
                            trace=spec.trace,
                            model=CostModel(lam=spec.lam, n=n),
                            policy_name=name,
                            storage_cost=storage,
                            transfer_cost=transfer,
                            n_transfers=n_tx,
                            engine=eng_name,
                        )
                    online = result.total_cost
                else:
                    result = None
                    online = row
                report.add(
                    spec.object_id,
                    online,
                    opts.get(key, 0.0),
                    len(spec.trace),
                    result=result,
                )
                next_i += 1
                self.progress.update()

        window = self.workers * 4 if self.workers > 1 else None
        with _obs.timed_span("runner.fleet", objects=len(specs)) as sp:
            try:
                with _Executor(self.workers, context) as ex:
                    for _, ((chunk_opts, rows), delta) in ex.run_tagged(
                        tasks, window=window
                    ):
                        _obs.merge_delta(delta)
                        for tk, lam, opt in chunk_opts:
                            opts[(tk, lam)] = opt
                        if _obs.enabled:
                            _obs.counter(
                                "repro_runner_jobs_total", source="executed"
                            ).inc(len(rows))
                        for i, row in rows:
                            pending_rows[i] = row
                        drain()
            finally:
                spool_cleanup()
        self.progress.finish()
        if _obs.enabled and sp.elapsed > 0:
            _obs.gauge("repro_fleet_objects_per_second").set(
                len(specs) / sp.elapsed
            )
        _log.info(
            "fleet finished",
            **kv(
                objects=len(specs),
                groups=len(group_items),
                chunks=len(chunks),
                workers=self.workers,
                materialize=bool(materialize),
                elapsed_s=round(sp.elapsed, 3),
            ),
        )
        return report

    # ------------------------------------------------------------------
    def _spool_traces(
        self, traces: Mapping[tuple, Trace], digests: Mapping[tuple, str]
    ) -> tuple[dict[tuple, Trace], dict[tuple, tuple[str, str]], Any]:
        """Write spool-eligible traces to content-addressed npz files.

        Returns ``(inherit, trace_files, cleanup)``: the traces the
        worker context keeps as objects, a ``trace_key -> (digest,
        path)`` map for the spooled ones, and a zero-argument cleanup
        callable (a no-op when a persistent ``spill_dir`` is configured,
        whose content-addressed files are reusable across runs).
        """
        threshold = self.spill_threshold
        # spool only when the run will actually fork workers: the
        # in-process fallback (workers <= 1, or no fork start method)
        # would map the files in the parent for no benefit
        if (
            threshold is None
            or self.workers <= 1
            or _fork_context() is None
        ):
            return dict(traces), {}, lambda: None
        big = [k for k, tr in traces.items() if len(tr) >= threshold]
        if not big:
            return dict(traces), {}, lambda: None
        from ..system.trace_io import save_trace_npz

        if self.spill_dir is not None:
            root = Path(self.spill_dir)
            root.mkdir(parents=True, exist_ok=True)
            cleanup: Any = lambda: None
        else:
            tmp = tempfile.TemporaryDirectory(
                prefix="repro-trace-spool-", ignore_cleanup_errors=True
            )
            root = Path(tmp.name)
            cleanup = tmp.cleanup
        trace_files: dict[tuple, tuple[str, str]] = {}
        for k in big:
            digest = digests[k]
            path = root / f"{digest}.npz"
            if not path.exists():
                # write-then-rename: a persistent spool dir may be shared
                # by concurrent runs, and the digest names the content
                tmp_path = root / f".{digest}.{os.getpid()}.tmp.npz"
                save_trace_npz(traces[k], tmp_path)
                os.replace(tmp_path, path)
                _log.info(
                    "trace spooled",
                    **kv(digest=digest[:12], bytes=path.stat().st_size),
                )
                if _obs.enabled:
                    _obs.counter("repro_runner_spool_files_total").inc()
                    _obs.counter("repro_runner_spool_bytes_total").inc(
                        path.stat().st_size
                    )
            trace_files[k] = (digest, str(path))
        inherit = {k: tr for k, tr in traces.items() if k not in trace_files}
        return inherit, trace_files, cleanup

    # ------------------------------------------------------------------
    def _chunk_size(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        if n_tasks == 0:
            return 1
        # ~4 chunks per worker balances load against dispatch overhead
        return max(1, min(64, -(-n_tasks // (self.workers * 4))))

    #: ceiling on objects per fleet chunk, bounding worker row lists
    FLEET_CHUNK_MAX_OBJECTS = 16_384
    #: per-object fixed work (policy build, row assembly) in
    #: request-equivalents, so tiny-trace fleets still get finite chunks
    FLEET_OBJECT_OVERHEAD = 64

    def _fleet_chunks(
        self,
        group_items: Sequence[tuple[str, float, Sequence[int]]],
        specs: Sequence[Any],
        spec_f: Sequence[int],
        compute_optimal: bool,
    ) -> list[tuple]:
        """Pack ``(digest, lambda)`` groups into dispatch chunks by work.

        Chunk cost is total trace length plus a per-object overhead, not
        object count, so a skewed fleet (one million-request object among
        thousands of tiny ones) splits into comparable work parcels: the
        giant object lands in its own chunk while the tiny objects pack
        densely.  Groups larger than one budget split across chunks;
        groups smaller than it share chunks (each contributing a
        sub-slab).  The packing is a pure function of spec order, trace
        lengths, and the worker/chunk-size configuration — deterministic
        run to run.  An explicit ``chunk_size`` reverts to object-count
        parcels of that size.

        Each sub-slab is ``(digest, lambda, spec_indices,
        factory_indices, first)``; ``first`` is true on the sub-slab
        holding its group's first spec index when ``compute_optimal`` is
        set, and tells :func:`_fleet_chunk_task` to compute that group's
        offline optimum.
        """
        def cost(i: int) -> int:
            return len(specs[i].trace) + self.FLEET_OBJECT_OVERHEAD

        if self.chunk_size is not None:
            budget = None
            max_objs = max(1, self.chunk_size)
        else:
            total = sum(
                cost(i) for _, _, idxs in group_items for i in idxs
            )
            # ~4 chunks per worker: enough granularity for the refill
            # queue to rebalance, few enough to amortise dispatch
            budget = max(1, -(-total // (self.workers * 4)))
            max_objs = self.FLEET_CHUNK_MAX_OBJECTS
        chunks: list[tuple] = []
        cur: list[tuple] = []
        cur_cost = 0
        cur_objs = 0

        def close() -> None:
            nonlocal cur, cur_cost, cur_objs
            if cur:
                chunks.append(tuple(cur))
                cur, cur_cost, cur_objs = [], 0, 0

        for digest, lam, idxs in group_items:
            pos = 0
            while pos < len(idxs):
                first = compute_optimal and pos == 0
                take: list[int] = []
                fids: list[int] = []
                while pos < len(idxs):
                    c = cost(idxs[pos])
                    full = cur_objs >= max_objs or (
                        budget is not None and cur_cost + c > budget
                    )
                    # an empty chunk always accepts one object, so a
                    # single over-budget giant still dispatches
                    if full and (cur or take):
                        break
                    take.append(idxs[pos])
                    fids.append(spec_f[idxs[pos]])
                    cur_cost += c
                    cur_objs += 1
                    pos += 1
                if take:
                    cur.append((digest, lam, tuple(take), tuple(fids), first))
                if pos < len(idxs):
                    close()
        close()
        return chunks

    def _slab_chunk_size(self, n_cells: int, engine: str | Engine) -> int:
        """Cells per dispatched slab chunk.

        The kernel wants the widest chunks the pool can still
        load-balance (its shared per-trace chains and multi-row passes
        amortise across every cell of a chunk, and wider chunks mean
        fewer IPC rounds); the reference engine keeps the finer-grained
        sizing.
        """
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        name = engine.name if isinstance(engine, Engine) else engine
        if name in ("auto", "kernel"):
            return max(1, -(-n_cells // (self.workers * 2)))
        return self._chunk_size(n_cells)

    def _run_scenario(
        self,
        scenario: Scenario,
        optimal_cache: dict[float, float] | None = None,
        sim_cache: ResultCache | NullCache | None = None,
        engine: str | Engine | None = None,
    ) -> ExperimentResult:
        busy0 = (
            _obs.counter("repro_worker_busy_seconds_total").value
            if _obs.enabled
            else 0.0
        )
        # the span both records the scenario in the timeline (when
        # enabled) and is the stopwatch behind ExperimentResult.elapsed
        with _obs.timed_span("runner.scenario", scenario=scenario.name) as sp:
            out = self._run_scenario_inner(
                scenario, optimal_cache, sim_cache, engine
            )
        out.elapsed = sp.elapsed
        _log.info(
            "scenario finished",
            **kv(
                scenario=scenario.name,
                jobs=len(out),
                executed=out.executed,
                cached=out.cached,
                workers=self.workers,
                elapsed_s=round(out.elapsed, 3),
            ),
        )
        if _obs.enabled and out.elapsed > 0:
            busy = _obs.counter("repro_worker_busy_seconds_total").value - busy0
            _obs.gauge("repro_worker_utilization").set(
                min(1.0, busy / (self.workers * out.elapsed))
            )
        return out

    def _run_scenario_inner(
        self,
        scenario: Scenario,
        optimal_cache: dict[float, float] | None,
        sim_cache: ResultCache | NullCache | None,
        engine: str | Engine | None,
    ) -> ExperimentResult:
        if sim_cache is None:
            sim_cache = self.cache
        if engine is None:
            engine = self.engine
        jobs = _enumerate_jobs(scenario)
        out = ExperimentResult(
            scenario=scenario.name,
            description=scenario.description,
            workers=self.workers,
        )

        # build each distinct trace once, in the parent
        traces: dict[tuple, Trace] = {}
        digests: dict[tuple, str] = {}
        for job in jobs:
            if job.trace_key not in traces:
                tr = scenario.build_trace(**job.params)
                traces[job.trace_key] = tr
                digests[job.trace_key] = trace_digest(tr)

        # large traces are handed off by digest + mmap path, small ones
        # ride along in the fork-inherited context
        inherit, trace_files, spool_cleanup = self._spool_traces(traces, digests)
        context = {
            "scenario": scenario,
            "traces": inherit,
            "trace_files": trace_files,
            "engine": engine,
        }
        opts: dict[tuple[tuple, float], float] = {}
        online: dict[int, tuple[float, bool]] = {}

        # ----- offline optima: one per distinct (trace, lambda) -------
        opt_pairs = list(dict.fromkeys((j.trace_key, j.lam) for j in jobs))
        opt_misses: list[tuple[tuple, float]] = []
        single_trace = len(traces) == 1
        with _obs.span("runner.cache_lookup", jobs=len(jobs)):
            for tk, lam in opt_pairs:
                if (
                    optimal_cache is not None
                    and single_trace
                    and lam in optimal_cache
                ):
                    opts[(tk, lam)] = optimal_cache[lam]
                    out.opt_cached += 1
                    continue
                hit = _cached_cost(
                    self.cache,
                    self._opt_payload(scenario, digests[tk], lam),
                    "optimal_cost",
                )
                if hit is not None:
                    opts[(tk, lam)] = hit
                    out.opt_cached += 1
                else:
                    opt_misses.append((tk, lam))

            # ----- simulations: consult the cache, then dispatch misses
            sim_misses: list[Job] = []
            for job in jobs:
                hit = _cached_cost(
                    sim_cache,
                    self._sim_payload(scenario, digests[job.trace_key], job),
                    "online_cost",
                )
                if hit is not None:
                    online[job.index] = (hit, True)
                    out.cached += 1
                else:
                    sim_misses.append(job)
        if _obs.enabled:
            _obs.counter("repro_runner_jobs_total", source="cached").inc(
                out.cached
            )

        self.progress.start(
            len(jobs), cached=out.cached, label=scenario.name
        )
        by_index = {j.index: j for j in sim_misses}
        # group cache misses into slabs keyed by (trace digest, lambda):
        # every cell of a slab shares the kernel's per-trace work, and
        # one slab chunk costs one IPC round.  Each slab is split
        # into at most ~2 chunks per worker so wide grids still load-
        # balance across the pool.
        slabs: dict[tuple[str, float], tuple[tuple, list[Job]]] = {}
        for j in sim_misses:
            key = (digests[j.trace_key], j.lam)
            slabs.setdefault(key, (j.trace_key, []))[1].append(j)
        chunks: list[tuple[tuple, float, tuple]] = []
        for (_, lam), (trace_key, slab_jobs) in slabs.items():
            cells = [(j.index, j.alpha, j.accuracy, j.seed) for j in slab_jobs]
            size = self._slab_chunk_size(len(cells), engine)
            chunks.extend(
                (trace_key, lam, tuple(part)) for part in _chunked(cells, size)
            )
        # optima and simulation chunks enter the pool together: the
        # optima are consumed only at assembly below, so nothing waits
        # on the (expensive) DP before simulations start
        tasks = [("opt", _opt_task, pair) for pair in opt_misses]
        tasks += [("sim", _slab_chunk_task, chunk) for chunk in chunks]
        crash_hint = (
            f"; the cells completed before it are cached in {sim_cache.root},"
            " and re-running with the same cache resumes from them"
            if isinstance(sim_cache, ResultCache)
            else ""
        )
        try:
            with _Executor(self.workers, context, crash_hint) as ex:
                for tag, (result, delta) in ex.run_tagged(tasks):
                    _obs.merge_delta(delta)
                    if tag == "opt":
                        tk, lam, opt = result
                        opts[(tk, lam)] = opt
                        out.opt_executed += 1
                        self.cache.put(
                            self._opt_payload(scenario, digests[tk], lam),
                            {"optimal_cost": opt},
                        )
                        if optimal_cache is not None and single_trace:
                            optimal_cache[lam] = opt
                        continue
                    if _obs.enabled:
                        _obs.counter(
                            "repro_runner_jobs_total", source="executed"
                        ).inc(len(result))
                    for index, cost in result:
                        online[index] = (cost, False)
                        out.executed += 1
                        job = by_index[index]
                        sim_cache.put(
                            self._sim_payload(
                                scenario, digests[job.trace_key], job
                            ),
                            {"online_cost": cost},
                        )
                        self.progress.update()
        finally:
            spool_cleanup()

        for job in jobs:
            cost, was_cached = online[job.index]
            out.results.append(
                JobResult(
                    job=job,
                    online_cost=cost,
                    optimal_cost=opts[(job.trace_key, job.lam)],
                    cached=was_cached,
                )
            )
        self.progress.finish()
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _base_payload(scenario: Scenario, digest: str) -> dict[str, Any]:
        return {
            "scenario": scenario.name,
            "scenario_version": scenario.version,
            "salt": scenario.cache_salt,
            "trace": digest,
        }

    def _opt_payload(
        self, scenario: Scenario, digest: str, lam: float
    ) -> dict[str, Any]:
        # the offline optimum depends only on the trace and lambda, so the
        # payload deliberately omits scenario identity: grids sharing a
        # trace share their optima
        return {"kind": "opt", "trace": digest, "lam": lam}

    def _sim_payload(
        self, scenario: Scenario, digest: str, job: Job
    ) -> dict[str, Any]:
        return {
            "kind": "sim",
            **self._base_payload(scenario, digest),
            **job.params,
        }


def _enumerate_jobs(scenario: Scenario) -> list[Job]:
    """Expand a scenario grid in the serial ``sweep_grid`` order."""
    jobs: list[Job] = []
    for seed, lam, alpha, accuracy in itertools.product(
        scenario.seeds, scenario.lambdas, scenario.alphas, scenario.accuracies
    ):
        key = tuple(
            scenario.trace_args(lam, alpha, accuracy, seed).values()
        )
        jobs.append(
            Job(
                index=len(jobs),
                scenario=scenario.name,
                lam=lam,
                alpha=alpha,
                accuracy=accuracy,
                seed=seed,
                trace_key=key,
            )
        )
    return jobs


def _chunked(items: Sequence[Any], size: int) -> list[Sequence[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _cached_cost(cache, payload: dict, field: str) -> float | None:
    """``field`` of ``payload``'s cache entry as a float, or None on a
    miss — including an entry without a numeric ``field``, so the cell
    re-runs and ``put`` overwrites the entry."""
    hit = cache.get(payload)
    try:
        return float(hit[field])
    except (TypeError, KeyError, ValueError):
        return None
