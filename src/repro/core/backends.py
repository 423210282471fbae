"""Kernel execution: the order-sensitive reductions every kernel replay
runs, and how a slab's passes are spread over threads.

DESIGN
======

The kernel tier (``KernelCostEngine``) reduced per-cell replay to a fixed
sequence of array passes, each over one row per cell of a group of cells.
A slab is embarrassingly parallel *across* its passes — every pass
replays the same trace for independent prediction rows — but strictly
serial *within* one row, because the charge-order reductions are
sequential by construction:

``np.add.accumulate`` computes ``out[i] = out[i-1] + v[i]`` left to right,
one IEEE-754 rounding per step.  :func:`seq_sum` only consumes ``out[-1]``,
so it performs the scalar replay's ``storage += charge`` chain bit for bit.
A *parallelized* within-cell accumulate would not: pairwise or tree
reductions (``np.add.reduce``, SIMD partial sums, parallel prefix scans)
re-associate the additions, and float addition is not associative, so the
final bit pattern changes.  A multi-row pass keeps each row's chain: its
``np.add.accumulate(axis=1)`` runs every row left to right.  That is why
the kernel parallelizes across passes only — each row's serial chain is
untouched, so a slab run on either execution path below is bit-identical
to the other:

- ``numpy``   — the vectorized passes, one after another in the calling
  thread.
- ``threads`` — the same numpy passes fanned out over a
  ``ThreadPoolExecutor``.  The heavy numpy ops release the GIL, so this
  scales with cores without fork/IPC.  ``ThreadPoolExecutor.map``
  preserves input order, so results come back in pass order and the
  output is positionally identical to the serial run.  Shared per-trace
  precompute (``_SegmentChains``) is read-only after construction and
  its shift memo is lock-guarded (see ``core/engine.py``).

Besides the reductions, this module holds one *sequential episode
machine*: :func:`wang_cascade`, the scalar core of the kernel tier's Wang
baseline (``core/engine.py`` :class:`_WangReplay`).  The vectorized
candidate pass resolves every copy whose expiry finds other copies
alive; ``wang_cascade`` replays only the die-out episodes (grace
extensions, second-expiry shipments to server 0, locally-served flips)
plus the drain's heap order, walking candidates in the scalar heap's
``(when, server)`` pop order.  At most one injected extension is alive
at a time, so the machine's loop runs once per trigger and injected
event, not once per request — it is a loop by necessity (each episode's
outcome gates the next).  Its docstring says why it runs on Python lists
and ``bisect`` rather than numpy scalars.

Choosing the path
-----------------

The two paths differ only in speed, so no caller picks one:
:meth:`AutoBackend.resolve` decides from the thread budget and the slab
width.  It fans out once the budget allows two or more threads and every
thread gets at least :data:`THREADS_MIN_CELLS_PER_THREAD` cells — below
that, executor dispatch eats the win — and runs serially otherwise; a
threaded slab cuts its passes into row chunks of at most ``ceil(cells /
threads)`` rows, so every thread gets a pass.
The ``threads`` view of ``benchmarks/bench_scaling.py`` times the two
paths against each other (``benchmarks/BENCH_scaling.json``).

Process-pool interaction
------------------------

``ExperimentRunner`` may already fork worker processes.  To keep
``workers × threads ≤ cores`` the runner installs a shared *thread
budget* (``set_thread_budget``) before forking; forked workers inherit
the cap, so a 8-core box running 4 process workers gives each worker at
most 2 kernel threads instead of 4 × 8 oversubscription.  That budget is
the only control over the kernel's execution path.
"""

from __future__ import annotations

import importlib.util
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "AutoBackend",
    "KernelBackend",
    "THREADS_MIN_CELLS_PER_THREAD",
    "get_backend",
    "merge_interleave",
    "numba_available",
    "repeat_add",
    "seq_sum",
    "set_thread_budget",
    "thread_budget",
    "wang_cascade",
]

# ``auto`` fans out only when every worker thread gets at least this many
# cells; below that, pool dispatch eats the win (an early fig25
# estimate, not yet re-derived over cells x m).
THREADS_MIN_CELLS_PER_THREAD = 8


# ---------------------------------------------------------------------------
# Thread budget — the runner's workers × threads ≤ cores contract.
# ---------------------------------------------------------------------------

_THREAD_BUDGET: int | None = None  # None = default (all cores)


def thread_budget() -> int:
    """Max threads the kernel may fan out across (defaults to cpu count)."""
    if _THREAD_BUDGET is not None:
        return _THREAD_BUDGET
    return max(1, os.cpu_count() or 1)


def set_thread_budget(n: int | None) -> int | None:
    """Cap kernel thread fan-out; returns the previous override.

    ``None`` restores the default (all cores).  ``ExperimentRunner`` sets
    ``cores // workers`` before forking its process pool so forked workers
    inherit the cap and the box never runs ``workers × cores`` threads.
    """
    global _THREAD_BUDGET
    prev = _THREAD_BUDGET
    _THREAD_BUDGET = None if n is None else max(1, int(n))
    return prev


# ---------------------------------------------------------------------------
# Reductions — the order-sensitive passes behind every kernel cell.
# ---------------------------------------------------------------------------


def seq_sum(vals: np.ndarray) -> float:
    """Strict left-to-right IEEE sum of ``vals`` (overwritten in place)."""
    # accumulate is defined as out[i] = out[i-1] + vals[i]; only the last
    # element is consumed, so this IS the left-to-right scalar sum.
    if not vals.size:
        return 0.0
    np.add.accumulate(vals, out=vals)
    return float(vals[-1])


def repeat_add(value: float, count: int) -> float:
    """``count`` repeated ``+= value`` steps, as one left-to-right chain."""
    if not count:
        return 0.0
    return float(np.add.accumulate(np.full(count, value))[-1])


def merge_interleave(ew, eb):
    """The merge order of two sorted expiry streams: indices into
    ``concatenate((ew, eb))`` in merged order, each stream keeping its
    own order (a stable argsort), or ``None`` on any cross-stream tie,
    where the caller's lexsort fallback defines the order."""
    # one search places the first stream; the second fills the slots it
    # leaves, and a gather at the placements finds cross-stream ties (a
    # placement past the end has every eb below it, so clipping it to
    # the last one cannot fake a tie)
    lo = np.searchsorted(eb, ew, side="left")
    if eb.size and (eb[np.minimum(lo, eb.size - 1)] == ew).any():
        return None
    nw = ew.size
    order = np.empty(nw + eb.size, dtype=np.intp)
    lo += np.arange(nw)
    order[lo] = np.arange(nw)
    take_b = np.ones(order.size, dtype=bool)
    take_b[lo] = False
    order[take_b] = np.arange(nw, order.size)
    return order


def wang_cascade(
    t_all,        # float64[m+1]  dummy-prefixed request times (strictly increasing)
    periods,      # float64[n]    per-server renewal periods lam / mu_s
    cand_e,       # float64[nc]   mid-trace expiry fires, (E, server)-sorted
    cand_srv,     # int64[nc]
    cand_ev,      # int64[nc]     event whose pop phase delivers the fire
    cand_start,   # float64[nc]   segment start behind each fire
    trig_pos,     # int64[nt]     candidate ranks with baseline others == 0
    srv_off,      # int64[n+1]    CSR offsets into srv_req (requests by server)
    srv_req,      # int64[m+1]    request indices grouped by server, ascending
    r_cum,        # int64[m+1]    cumulative baseline renewal serves per event
    tail_when,    # float64[nt2]  end-of-trace pending expiries, sorted
    tail_srv,     # int64[nt2]
    tail_start,   # float64[nt2]
    m,            # int           number of real requests
    do_drain,     # bool
    cap,          # int           drain event cap
):
    """Sequential episode machine behind the kernel-tier Wang replay.

    Everything array-parallel about Wang lives in ``core/engine.py``;
    this loop resolves only what is irreducibly sequential — the die-out
    *episodes* (an only-copy expiry renews in place instead of dropping,
    so coverage extends beyond the baseline segment) and the post-trace
    drain.  At most one such injected extension exists at a time, so the
    machine walks the trigger candidates and the injected copy's own
    events in global ``(when, server)`` order, emitting the corrections
    the vectorized pass cannot know: suppressed drops, miss->renewal
    flips, cascade transfer/drop charges, and the final alive set.

    Triggers are not rare at lambda = 100: about one per ten requests on
    the paper-size IBM-like trace, and one per three on the short,
    bursty objects of an IBM-format fleet access log.  So the loop runs
    on Python lists and :mod:`bisect`, not numpy scalars: each column it
    reads is converted once per call (only when there is a trigger; the
    candidate columns only at the trigger ranks), the three ordered
    lookups are ``bisect_left``/``bisect_right`` (the per-server CSR
    slice through ``lo``/``hi`` bounds), and the state lives in lists
    that become the returned arrays at the end.  Every float add and
    compare is the same IEEE double operation, in the same order, on a
    Python float as on a ``np.float64``, so the corrections are
    bit-identical.
    """
    inf = float("inf")
    nt = len(trig_pos)
    n = len(periods)
    per = periods.tolist()

    suppressed: list[int] = []   # trigger ranks that opened an episode
    ep_when: list[float] = []
    ep_srv: list[int] = []
    ep_start: list[float] = []
    ep_ev: list[int] = []
    flip_req: list[int] = []
    flip_start: list[float] = []
    n_tx_casc = 0

    inj_alive = False
    inj_srv = 0
    inj_start = 0.0
    inj_pend = 0.0
    inj_flag = False       # Wang's renewed_once grace flag for the holder
    inj_ev = -1            # >= 0: cascade-created at that event's pop phase

    if nt:
        t = t_all.tolist()
        ce_all = cand_e.tolist()
        nc = len(ce_all)
        tr_e = cand_e[trig_pos].tolist()
        tr_srv = cand_srv[trig_pos].tolist()
        tr_ev = cand_ev[trig_pos].tolist()
        tr_start = cand_start[trig_pos].tolist()
        off = srv_off.tolist()
        req = srv_req.tolist()
        rc = r_cum.tolist()

        inj_nr = m + 1         # holder's next request index (m+1: none)
        ti = 0
        do_step = False
        fire_w = 0.0
        ib = 0
        while True:
            if do_step:
                # Only-copy fire at (fire_w, holder) inside the request
                # gap ending at event ib: replay Wang's expire() only-copy
                # arm, chaining every further fire strictly before t[ib].
                tb = t[ib]
                if inj_srv == 0:
                    p0 = per[0]
                    w2 = fire_w + p0
                    while w2 < tb:
                        w2 = w2 + p0
                    inj_pend = w2
                else:
                    transfer = True
                    if not inj_flag:
                        pd = fire_w + per[inj_srv]   # free renewal (grace)
                        if pd >= tb:
                            inj_pend = pd
                            inj_flag = True
                            transfer = False
                        else:
                            fire_w = pd   # second consecutive expiry in-gap
                    if transfer:
                        # ship to server 0: charge + drop the source,
                        # create at 0, then chain 0's free renewals
                        # through the gap
                        ep_when.append(fire_w)
                        ep_srv.append(inj_srv)
                        ep_start.append(inj_start)
                        ep_ev.append(ib)
                        n_tx_casc += 1
                        inj_srv = 0
                        inj_start = fire_w
                        inj_ev = ib
                        inj_flag = False
                        p0 = per[0]
                        w2 = fire_w + p0
                        while w2 < tb:
                            w2 = w2 + p0
                        inj_pend = w2
                inj_alive = True
                hi = off[inj_srv + 1]
                k = bisect_left(req, ib, off[inj_srv], hi)
                inj_nr = req[k] if k < hi else m + 1
                do_step = False
                continue
            if not inj_alive:
                if ti >= nt:
                    break
                # a genuine die-out: the fire renews in place (episode)
                suppressed.append(ti)
                inj_srv = tr_srv[ti]
                inj_start = tr_start[ti]
                inj_flag = False
                inj_ev = -1
                fire_w = tr_e[ti]
                ib = tr_ev[ti]
                ti += 1
                do_step = True
                continue
            # injected copy alive: resolve its next event against the
            # next trigger candidate in global (when, server) order
            t_nr = t[inj_nr] if inj_nr <= m else inf
            if ti < nt:
                ce = tr_e[ti]
                cs = tr_srv[ti]
            else:
                ce = inf
                cs = 0
            if t_nr <= inj_pend:
                # the holder's next request serves before the pending
                # expiry
                if ce < t_nr:
                    ti += 1      # candidate pops first: injected covers it
                    continue
                flip_req.append(inj_nr)      # baseline miss -> renewal
                flip_start.append(inj_start)
                inj_alive = False
                continue
            if ce < inj_pend or (ce == inj_pend and cs < inj_srv):
                ti += 1          # candidate pops first: injected covers it
                continue
            # the injected copy's own expiry fires next
            ip = bisect_right(t, inj_pend)
            if ip > m:
                # fires after the last request: any remaining trigger
                # candidates pop mid-trace, hence under injected coverage
                break
            lo = bisect_left(ce_all, inj_pend)
            while lo < nc and ce_all[lo] == inj_pend and cand_srv[lo] < inj_srv:
                lo += 1
            others = ip - rc[ip - 1] - lo    # baseline copies alive here
            if others >= 1:
                ep_when.append(inj_pend)
                ep_srv.append(inj_srv)
                ep_start.append(inj_start)
                ep_ev.append(ip)
                inj_alive = False
                continue
            fire_w = inj_pend
            ib = ip
            do_step = True

    # ------------------------------------------------------------------
    # drain: the scalar heap shrunk to one pending expiry per server
    alive = [False] * n
    a_start = [0.0] * n
    a_pend = [0.0] * n
    a_has = [False] * n
    a_flag = [False] * n
    a_kind = [0] * n
    a_ev = [0] * n
    alive_cnt = 0
    for s, st, w in zip(
        tail_srv.tolist(), tail_start.tolist(), tail_when.tolist()
    ):
        alive[s] = True
        a_start[s] = st
        a_pend[s] = w
        a_has[s] = True
        alive_cnt += 1
    if inj_alive:
        s = inj_srv
        alive[s] = True
        a_start[s] = inj_start
        a_pend[s] = inj_pend
        a_has[s] = True
        a_flag[s] = inj_flag
        if inj_ev >= 0:
            a_kind[s] = 1
            a_ev[s] = inj_ev
        alive_cnt += 1
    dr_when: list[float] = []
    dr_srv: list[int] = []
    dr_start: list[float] = []
    seq = 0
    if do_drain:
        fired = 0
        while fired < cap:
            best = -1
            bw = inf
            for s in range(n):   # ascending scan: (when, server) heap order
                if a_has[s] and a_pend[s] < bw:
                    bw = a_pend[s]
                    best = s
            if best < 0:
                break
            a_has[best] = False
            if bw == inf:
                continue         # popped but never fires; copy stays live
            only = alive_cnt == 1
            if best == 0:
                if only:
                    a_pend[0] = bw + per[0]    # free renewal chain
                    a_has[0] = True
                else:
                    dr_when.append(bw)
                    dr_srv.append(0)
                    dr_start.append(a_start[0])
                    alive[0] = False
                    alive_cnt -= 1
                fired += 1
            else:
                if not only:
                    dr_when.append(bw)
                    dr_srv.append(best)
                    dr_start.append(a_start[best])
                    alive[best] = False
                    alive_cnt -= 1
                elif not a_flag[best]:
                    a_flag[best] = True                # grace renewal
                    a_pend[best] = bw + per[best]
                    a_has[best] = True
                else:
                    # second consecutive expiry: ship to server 0
                    n_tx_casc += 1
                    alive[0] = True
                    a_start[0] = bw
                    a_kind[0] = 2
                    a_ev[0] = seq
                    seq += 1
                    a_flag[0] = False
                    dr_when.append(bw)
                    dr_srv.append(best)
                    dr_start.append(a_start[best])
                    alive[best] = False
                    a_flag[best] = False
                    a_pend[0] = bw + per[0]
                    a_has[0] = True
                fired += 1

    trig_suppress = np.zeros(nt, dtype=np.bool_)
    trig_suppress[suppressed] = True
    fin = [s for s in range(n) if alive[s]]

    def f64(vals):
        return np.array(vals, dtype=np.float64)

    def i64(vals):
        return np.array(vals, dtype=np.int64)

    return (
        trig_suppress,
        f64(ep_when), i64(ep_srv), f64(ep_start), i64(ep_ev),
        i64(flip_req), f64(flip_start),
        n_tx_casc,
        f64(dr_when), i64(dr_srv), f64(dr_start),
        i64(fin),
        f64([a_start[s] for s in fin]),
        i64([a_kind[s] for s in fin]),
        i64([a_ev[s] for s in fin]),
    )


# An environment fact for benchmark run records; no kernel path uses numba.
def numba_available() -> bool:
    """True when numba is installed."""
    return importlib.util.find_spec("numba") is not None


# ---------------------------------------------------------------------------
# Execution paths — how a slab's passes are spread over threads.
# ---------------------------------------------------------------------------


class KernelBackend:
    """The serial path: a slab's passes run one after another."""

    name = "numpy"

    def threads(self, n_cells: int) -> int:
        """The threads a slab of ``n_cells`` cells fans out over."""
        return 1

    def run_units(self, units, run_one, threads: int) -> list:
        """Evaluate ``run_one(u)`` for each unit, in unit order."""
        return [run_one(u) for u in units]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name}>"


class ThreadsBackend(KernelBackend):
    """Numpy passes fanned out over a thread pool.

    ``ThreadPoolExecutor.map`` preserves input order, so results come back
    in unit order — output is positionally bit-identical to serial.
    :meth:`AutoBackend.resolve` picks this path only when the budget and
    the slab give at least two threads :data:`THREADS_MIN_CELLS_PER_THREAD`
    cells each.
    """

    name = "threads"

    def threads(self, n_cells: int) -> int:
        return min(thread_budget(), n_cells // THREADS_MIN_CELLS_PER_THREAD)

    def run_units(self, units, run_one, threads: int) -> list:
        with ThreadPoolExecutor(
            max_workers=min(threads, len(units)),
            thread_name_prefix="repro-kernel",
        ) as pool:
            return list(pool.map(run_one, units))


_SERIAL = KernelBackend()
_THREADS = ThreadsBackend()


class AutoBackend:
    """The one place the kernel's execution path is chosen."""

    def resolve(self, n_cells: int, m: int) -> KernelBackend:
        """The path for a slab of ``n_cells`` cells over ``m`` events.

        Only the thread budget and ``n_cells`` decide.  ``m`` is unused;
        it is kept for the benchmark's
        ``get_backend().resolve(*wl.slab_shape())`` call in
        ``perfbench/run.py``.
        """
        if thread_budget() > 1 and n_cells >= 2 * THREADS_MIN_CELLS_PER_THREAD:
            return _THREADS
        return _SERIAL


_AUTO = AutoBackend()


def get_backend() -> AutoBackend:
    """The kernel's execution-path chooser; ``.resolve(n_cells, m)``
    returns the ``numpy`` or ``threads`` path for a slab."""
    return _AUTO
