"""Parallel experiment execution with caching and deterministic results.

:class:`ExperimentRunner` expands a :class:`~.registry.Scenario` into
atomic :class:`Job`s — one per ``(lambda, alpha, accuracy, seed)`` cell
— and shards them across a ``ProcessPoolExecutor``.  Three properties
make the parallelism safe to adopt everywhere:

* **Determinism** — every job seeds its own predictor from the job's
  ``seed`` field, so ``workers=8`` is bit-identical to ``workers=1``,
  the in-process run behind :func:`~..analysis.sweep.sweep_grid`.
* **Caching / resumability** — each completed job (and each offline-
  optimal computation) is appended to the run's own segment of the
  :class:`~.cache.ResultCache` as it finishes (one JSON line per cell);
  an interrupted grid resumes from the completed cells, a warm re-run
  executes zero simulations, and concurrent runs on one cache directory
  never write the same file.
* **Cheap dispatch** — scenario grids and fleets share one packer and
  one chunk task (a fleet object is a cell like a grid cell): chunks
  are tuples of ``(trace, lambda)`` sub-slabs of tiny cell tuples,
  traces and policy factories reach the workers through fork-inherited
  module state (never pickled), optima ride in chunks, and a run costs
  one pool task per chunk.
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
import math
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
from ..core.engine import CostResult, Engine, run_policy_slab
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

    The message names the run's task kind (``sim`` for scenario grids,
    ``fleet`` for fleets) and, for a cached scenario run, that re-running
    with the same cache resumes from the cells completed before the
    crash.
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
        returned points follow ``(lambda, alpha, accuracy)`` order.
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
# The policy builder (closing over arbitrary, possibly unpicklable
# factories) and the pre-built traces are published in this module-level
# slot *before* the pool is created; forked workers inherit the
# snapshot, so task arguments stay tiny and nothing user-defined is ever
# pickled.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: dict[str, Any] | None = None

#: per-process cache of spooled traces, keyed by content digest — one
#: mmap per worker process regardless of how many chunks touch the trace
_TRACE_MEMO: dict[str, Trace] = {}


def _ctx() -> dict[str, Any]:
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError("experiment worker context is not initialised")
    return _WORKER_CONTEXT


def _resolve_trace(digest: str) -> Trace:
    """The trace with content ``digest``: fork-inherited object, or a
    lazily memory-mapped spool file shared by every process (see the
    module docstring's columnar hand-off note)."""
    ctx = _ctx()
    trace = ctx["traces"].get(digest)
    if trace is not None:
        return trace
    trace = _TRACE_MEMO.get(digest)
    if trace is None:
        from ..system.trace_io import load_trace_npz

        # the parent validated the trace before spooling it; skipping
        # re-validation keeps the load O(1) (no page is faulted in)
        trace = load_trace_npz(
            ctx["trace_files"][digest], mmap=True, validate=False
        )
        _TRACE_MEMO[digest] = trace
    return trace


#: bucket bounds for the cells-per-dispatched-chunk histogram: 1 cell up
#: to 10k cells, two buckets per decade
_SLAB_CELL_BUCKETS = _obs.log_buckets(1.0, 1e4, per_decade=2)


def _ship(result) -> tuple:
    """A materialized row: a compact ``("cost", name, engine, storage,
    transfer, n_tx)`` tuple for a cost-only result, else ``("full",
    SimulationResult)``."""
    if type(result) is CostResult:
        return (
            "cost",
            result.policy_name,
            result.engine,
            result.storage_cost,
            result.transfer_cost,
            result.n_transfers,
        )
    return ("full", result)


def _chunk_task(chunk: Sequence[tuple]):
    """Evaluate one dispatch chunk: a tuple of sub-slabs.

    Each sub-slab is ``(digest, lam, cells, with_optimum)``: cells
    sharing one ``(trace, lambda)``, each a tuple whose first field is
    its row key (a grid job index or a fleet spec index).  The worker
    resolves the trace once (fork-inherited object or digest-addressed
    mmap), builds each cell's policy with the context's ``build(trace,
    model, cell)``, and evaluates the sub-slab through
    :func:`~repro.core.engine.run_policy_slab` (kernel slab where
    eligible, per-cell fallback otherwise).  ``with_optimum`` asks for
    the group's offline optimum as well, so optima ride in their chunk;
    a sub-slab without cells carries only its optimum.

    Returns ``((opts, rows), delta)``.  ``opts`` lists ``(digest, lam,
    optimum)`` per flagged sub-slab.  ``rows`` are ``(row_key,
    row)``, where ``row`` is the bare online cost, or a :func:`_ship`
    payload when the context's ``ship_results`` is set: compact rows
    keep a million-object run's IPC free of per-object trace pickling
    (the parent rebuilds each :class:`~repro.core.engine.CostResult`
    against its own trace reference, bitwise-identical totals).
    ``delta`` is the worker's drained telemetry registry (None when
    instrumentation is off, so the disabled path ships no extra bytes);
    the parent folds it in with :func:`repro.obs.metrics.merge_delta`.
    """
    ctx = _ctx()
    n_cells = sum(len(sub[2]) for sub in chunk)

    def compute() -> tuple[list, list]:
        build = ctx["build"]
        engine = ctx["engine"]
        ship_results: bool = ctx["ship_results"]
        opts: list[tuple[str, float, float]] = []
        rows: list[tuple[int, Any]] = []
        for digest, lam, cells, with_optimum in chunk:
            trace = _resolve_trace(digest)
            model = CostModel(lam=lam, n=trace.n)
            if with_optimum:
                opts.append((digest, lam, optimal_cost(trace, model)))
            runs = run_policy_slab(
                trace, [(model, build(trace, model, c)) for c in cells], engine
            )
            for cell, result in zip(cells, runs):
                rows.append(
                    (
                        cell[0],
                        _ship(result) if ship_results else result.total_cost,
                    )
                )
        return opts, rows

    if not _obs.enabled:
        return compute(), None
    _obs.histogram(
        "repro_runner_slab_cells", bounds=_SLAB_CELL_BUCKETS
    ).observe(n_cells)
    with _obs.span("runner.chunk", kind=ctx["kind"], cells=n_cells) as sp:
        payload = compute()
    _obs.counter("repro_worker_busy_seconds_total").inc(sp.elapsed)
    return payload, _obs.drain()


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
    the run so :func:`_chunk_task` behaves identically on both paths.

    When forking, also installs a kernel thread budget of
    ``cores // workers`` *before* the pool is created, so forked workers
    inherit the cap and the kernel's threaded path never oversubscribes
    the box beyond ``workers x threads <= cores`` (the serial path keeps the
    full budget).  The previous budget is restored on exit.

    A worker that dies mid-run breaks the pool; :meth:`run` turns that
    into a :class:`WorkerCrashError` naming the run's kind (the
    context's ``kind``), followed by ``crash_hint`` (what the caller can
    do about it).
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

    def run(self, chunks: Sequence[tuple]):
        """Yield each chunk's :func:`_chunk_task` result as it completes.

        At most ``workers x 4`` chunks are in flight, refilled from
        ``chunks`` in order as futures complete — the shared-queue half
        of work-stealing dispatch: a worker that drains its small chunks
        immediately pulls the next one while a straggler is still busy,
        and the parent never holds more than that many futures for an
        arbitrarily long chunk list.
        """
        if self._pool is None:
            for chunk in chunks:
                yield _chunk_task(chunk)
            return
        it = iter(chunks)
        pending: set = set()

        def refill() -> None:
            for chunk in itertools.islice(it, self.workers * 4 - len(pending)):
                pending.add(self._pool.submit(_chunk_task, chunk))

        try:
            refill()
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    yield fut.result()
                refill()
        except BrokenProcessPool as exc:
            raise WorkerCrashError(
                f"a worker process died while running "
                f"{self._context['kind']} tasks{self._crash_hint}"
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
        progress: ProgressReporter | None = None,
        engine: str | Engine = "auto",
        spill_dir: str | os.PathLike[str] | None = None,
        spill_threshold: int | None = DEFAULT_SPILL_THRESHOLD,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else NullCache()
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
        engine: str | Engine | None = None,
    ) -> SweepResult:
        """One ``(lambda, alpha, accuracy)`` grid on one trace, as a
        :class:`SweepResult` (what ``sweep_grid`` returns).

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
        """Simulate every object of a ``MultiObjectSystem``.

        Object results are not cached (policy factories of ad-hoc specs
        have no stable identity); parallelism and progress only.  Objects
        group by ``(trace digest, lambda)``, one cell per object, and go
        through the same dispatch as scenario grids (:meth:`_dispatch`):
        each group evaluates as one cross-object engine slab in the
        worker, distinct traces travel once (fork-inherited or through
        the mmap spool), and chunks are sized by total trace length, so
        one giant object among thousands of tiny ones does not straggle.

        Outcomes fold through an index-ordered reorder buffer, so every
        worker count gives bit-identical reports (see the DESIGN
        docstring in :mod:`repro.system.multi_object`).

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
        spec_key: list[tuple[str, float]] = []
        for spec in specs:
            d = digest_by_id.get(id(spec.trace))
            if d is None:
                d = trace_digest(spec.trace)
                digest_by_id[id(spec.trace)] = d
                traces.setdefault(d, spec.trace)
            spec_key.append((d, spec.lam))

        # distinct policy factories, fork-inherited; cells carry indices
        findex: dict[int, int] = {}
        factories: list[Any] = []
        # (digest, lambda) groups of (spec index, factory index) cells
        groups: dict[tuple[str, float], list[tuple[int, int]]] = {}
        for i, spec in enumerate(specs):
            k = id(spec.policy_factory)
            if k not in findex:
                findex[k] = len(factories)
                factories.append(spec.policy_factory)
            groups.setdefault(spec_key[i], []).append((i, findex[k]))

        self.progress.start(len(specs), label="fleet", unit="objects")
        opts: dict[tuple[str, float], float] = {}
        pending_rows: dict[int, Any] = {}
        next_i = 0

        def fold(chunk_opts: list, rows: list) -> None:
            # reorder buffer: outcomes enter the report in spec-index
            # order (and only once their group's optimum is known), so
            # streaming totals repeat the serial sum's float additions
            nonlocal next_i
            for d, lam, opt in chunk_opts:
                opts[(d, lam)] = opt
            pending_rows.update(rows)
            while next_i in pending_rows:
                key = spec_key[next_i]
                if compute_optimal and key not in opts:
                    return
                row = pending_rows.pop(next_i)
                spec = specs[next_i]
                if not materialize:
                    result, online = None, row
                elif row[0] == "full":
                    result, online = row[1], row[1].total_cost
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
                report.add(
                    spec.object_id,
                    online,
                    opts.get(key, 0.0),
                    len(spec.trace),
                    result=result,
                )
                next_i += 1
                self.progress.update()

        with _obs.timed_span("runner.fleet", objects=len(specs)) as sp:
            n_chunks = self._dispatch(
                "fleet",
                traces,
                [
                    (d, lam, cells, compute_optimal)
                    for (d, lam), cells in groups.items()
                ],
                lambda trace, model, cell: factories[cell[1]](trace, model),
                engine,
                fold,
                ship_results=bool(materialize),
            )
        self.progress.finish()
        if _obs.enabled and sp.elapsed > 0:
            _obs.gauge("repro_fleet_objects_per_second").set(
                len(specs) / sp.elapsed
            )
        _log.info(
            "fleet finished",
            **kv(
                objects=len(specs),
                groups=len(groups),
                chunks=n_chunks,
                workers=self.workers,
                materialize=bool(materialize),
                elapsed_s=round(sp.elapsed, 3),
            ),
        )
        return report

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        kind: str,
        traces: Mapping[str, Trace],
        groups: Sequence[tuple[str, float, Sequence[tuple], bool]],
        build: Callable[[Trace, CostModel, tuple], Any],
        engine: str | Engine,
        fold: Callable[[list, list], None],
        ship_results: bool = False,
        crash_hint: str = "",
    ) -> int:
        """Evaluate ``groups`` one pool task per chunk: the one dispatch
        path of scenario grids and fleets (in-process when serial).

        ``traces`` maps digests to traces.  Each group is ``(digest,
        lambda, cells, with_optimum)``: the cells to simulate and whether
        the group's offline optimum is wanted too.  Workers build each
        cell's policy with ``build(trace, model, cell)``, run it on
        ``engine`` and return rows as ``ship_results`` asks (see
        :func:`_chunk_task`).  :meth:`_chunks` packs the groups;
        ``fold(opts, rows)`` consumes each chunk's payload as it
        completes.  ``kind`` tags the ``runner.chunk`` spans and names
        the run in a :class:`WorkerCrashError`, followed by
        ``crash_hint``.  Returns the number of chunks.
        """
        chunks = self._chunks(groups, {d: len(tr) for d, tr in traces.items()})
        inherit, trace_files, spool_cleanup = self._spool_traces(traces)
        context = {
            "kind": kind,
            "build": build,
            "engine": engine,
            "ship_results": ship_results,
            "traces": inherit,
            "trace_files": trace_files,
        }
        try:
            with _Executor(self.workers, context, crash_hint) as ex:
                for (opts, rows), delta in ex.run(chunks):
                    _obs.merge_delta(delta)
                    if _obs.enabled:
                        _obs.counter(
                            "repro_runner_jobs_total", source="executed"
                        ).inc(len(rows))
                    fold(opts, rows)
        finally:
            spool_cleanup()
        return len(chunks)

    def _spool_traces(
        self, traces: Mapping[str, Trace]
    ) -> tuple[dict[str, Trace], dict[str, str], Any]:
        """Write spool-eligible traces to content-addressed npz files.

        ``traces`` is keyed by content digest.  Returns ``(inherit,
        trace_files, cleanup)``: the traces the worker context keeps as
        objects, a ``digest -> path`` map for the spooled ones, and a
        zero-argument cleanup callable (a no-op when a persistent
        ``spill_dir`` is configured, whose content-addressed files are
        reusable across runs).
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
        big = [d for d, tr in traces.items() if len(tr) >= threshold]
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
        trace_files: dict[str, str] = {}
        for digest in big:
            path = root / f"{digest}.npz"
            if not path.exists():
                # write-then-rename: a persistent spool dir may be shared
                # by concurrent runs, and the digest names the content
                tmp_path = root / f".{digest}.{os.getpid()}.tmp.npz"
                save_trace_npz(traces[digest], tmp_path)
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
            trace_files[digest] = str(path)
        inherit = {d: tr for d, tr in traces.items() if d not in trace_files}
        return inherit, trace_files, cleanup

    #: ceiling on cells per chunk, bounding worker row lists
    FLEET_CHUNK_MAX_OBJECTS = 16_384
    #: per-cell fixed work (policy build, row assembly) in
    #: request-equivalents, so tiny-trace fleets still get finite chunks
    FLEET_OBJECT_OVERHEAD = 64

    def _chunks(
        self,
        groups: Sequence[tuple[str, float, Sequence[tuple], bool]],
        lengths: Mapping[str, int],
    ) -> list[tuple]:
        """Pack ``(digest, lambda, cells, with_optimum)`` groups into
        dispatch chunks by work.

        A cell costs its trace length plus
        :attr:`FLEET_OBJECT_OVERHEAD`, and the budget is a quarter of one
        worker's share of the total: about 4 chunks per worker, enough
        for the refill queue to rebalance and few enough to amortise
        dispatch.  A group within the budget and
        :attr:`FLEET_CHUNK_MAX_OBJECTS` stays whole, packs greedily
        beside other groups (so tiny objects pack densely while a giant
        one lands in a chunk of its own), and carries its own optimum.
        A larger group splits into near-equal sub-slabs, one chunk each:
        never more than ``workers x 2`` by the budget, so each sub-slab
        stays wide enough for the kernel to amortise its per-trace work,
        but as many as the cell ceiling needs.  A split group's optimum
        is a chunk of its own with no cells, which runs the DP beside the
        cells instead of in series with one of their chunks; so is an
        optimum whose cells were all cached.  The packing is a pure
        function of the groups, their trace lengths and the worker
        count.
        """
        overhead = self.FLEET_OBJECT_OVERHEAD
        max_cells = self.FLEET_CHUNK_MAX_OBJECTS
        total = sum(
            len(cells) * (lengths[d] + overhead) for d, _, cells, _ in groups
        )
        budget = max(1, -(-total // (self.workers * 4)))
        chunks: list[tuple] = []
        cur: list[tuple] = []
        cur_cost = cur_cells = 0
        for d, lam, cells, with_optimum in groups:
            n = len(cells)
            cost = n * (lengths[d] + overhead)
            pieces = max(
                min(self.workers * 2, -(-cost // budget)), -(-n // max_cells)
            )
            if n and (pieces == 1 or n == 1):
                if cur and (
                    cur_cost + cost > budget or cur_cells + n > max_cells
                ):
                    chunks.append(tuple(cur))
                    cur, cur_cost, cur_cells = [], 0, 0
                cur.append((d, lam, tuple(cells), with_optimum))
                cur_cost += cost
                cur_cells += n
                continue
            # a split group, or an optimum whose cells were all cached;
            # closing the open chunk first keeps chunks in group order
            if cur:
                chunks.append(tuple(cur))
                cur, cur_cost, cur_cells = [], 0, 0
            if with_optimum:
                chunks.append(((d, lam, (), True),))
            if n:
                chunks += [
                    ((d, lam, tuple(part), False),)
                    for part in _chunked(cells, -(-n // pieces))
                ]
        if cur:
            chunks.append(tuple(cur))
        return chunks

    def _run_scenario(
        self,
        scenario: Scenario,
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
            out = self._run_scenario_inner(scenario, sim_cache, engine)
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

        # build each distinct trace once, in the parent; workers name a
        # trace by its content digest
        digests: dict[tuple, str] = {}
        traces: dict[str, Trace] = {}
        for job in jobs:
            if job.trace_key not in digests:
                tr = scenario.build_trace(**job.params)
                digests[job.trace_key] = trace_digest(tr)
                traces.setdefault(digests[job.trace_key], tr)

        # one group per (digest, lambda): its optimum plus the cells the
        # cache misses
        groups: dict[tuple[str, float], list[tuple]] = {
            (digests[j.trace_key], j.lam): [] for j in jobs
        }
        opts: dict[tuple[str, float], float] = {}
        online: dict[int, tuple[float, bool]] = {}
        with _obs.span("runner.cache_lookup", jobs=len(jobs)):
            for d, lam in groups:
                hit = _cached_cost(
                    self.cache,
                    self._opt_payload(scenario, d, lam),
                    "optimal_cost",
                )
                if hit is not None:
                    opts[(d, lam)] = hit
                    out.opt_cached += 1
            for job in jobs:
                d = digests[job.trace_key]
                hit = _cached_cost(
                    sim_cache,
                    self._sim_payload(scenario, d, job),
                    "online_cost",
                )
                if hit is not None:
                    online[job.index] = (hit, True)
                    out.cached += 1
                else:
                    groups[(d, job.lam)].append(
                        (job.index, job.alpha, job.accuracy, job.seed)
                    )
        if _obs.enabled:
            _obs.counter("repro_runner_jobs_total", source="cached").inc(
                out.cached
            )

        def fold(chunk_opts: list, rows: list) -> None:
            for d, lam, opt in chunk_opts:
                opts[(d, lam)] = opt
                out.opt_executed += 1
                self.cache.put(
                    self._opt_payload(scenario, d, lam), {"optimal_cost": opt}
                )
            for index, cost in rows:
                online[index] = (cost, False)
                out.executed += 1
                job = jobs[index]
                sim_cache.put(
                    self._sim_payload(scenario, digests[job.trace_key], job),
                    {"online_cost": cost},
                )
                self.progress.update()

        crash_hint = (
            f"; the cells completed before it are cached in {sim_cache.root},"
            " and re-running with the same cache resumes from them"
            if isinstance(sim_cache, ResultCache)
            else ""
        )
        self.progress.start(len(jobs), cached=out.cached, label=scenario.name)
        self._dispatch(
            "sim",
            traces,
            [
                (d, lam, cells, (d, lam) not in opts)
                for (d, lam), cells in groups.items()
                if cells or (d, lam) not in opts
            ],
            lambda trace, model, cell: scenario.policy_factory(
                trace, model.lam, *cell[1:]
            ),
            engine,
            fold,
            crash_hint=crash_hint,
        )
        for job in jobs:
            cost, was_cached = online[job.index]
            out.results.append(
                JobResult(
                    job=job,
                    online_cost=cost,
                    optimal_cost=opts[(digests[job.trace_key], job.lam)],
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
    """Expand a scenario grid in ``(seed, lambda, alpha, accuracy)`` order."""
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
    miss — including an entry whose ``field`` is not a finite,
    non-negative JSON number (a bool, a string, NaN or an infinity), so
    the cell re-runs and its ``put`` supersedes the entry."""
    hit = cache.get(payload)
    cost = None if hit is None else hit.get(field)
    if type(cost) not in (int, float):  # a JSON bool is not a number
        return None
    try:
        cost = float(cost)
    except OverflowError:  # an integer beyond the float range
        return None
    return cost if math.isfinite(cost) and cost >= 0 else None
