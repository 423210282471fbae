"""Kernel execution: the order-sensitive reductions every kernel cell
runs, and how a slab's cells are spread over threads.

DESIGN
======

The kernel tier (``KernelCostEngine``) reduced per-cell replay to a fixed
sequence of array passes.  A slab of grid cells is embarrassingly parallel
*across* cells — every cell replays the same trace against an independent
(model, policy, prediction-row) triple — but strictly serial *within* one
cell, because the charge-order reductions are sequential by construction:

``np.add.accumulate`` computes ``out[i] = out[i-1] + v[i]`` left to right,
one IEEE-754 rounding per step.  :func:`seq_sum` only consumes ``out[-1]``,
so it performs the scalar replay's ``storage += charge`` chain bit for bit.
A *parallelized* within-cell accumulate would not: pairwise or tree
reductions (``np.add.reduce``, SIMD partial sums, parallel prefix scans)
re-associate the additions, and float addition is not associative, so the
final bit pattern changes.  That is why the kernel parallelizes across
cells only — each cell's serial pass is untouched, so a slab run on either
execution path below is bit-identical to the other:

- ``numpy``   — the vectorized passes, one cell after another in the
  calling thread.
- ``threads`` — the same numpy passes, cells fanned out over a
  ``ThreadPoolExecutor``.  The heavy numpy ops release the GIL, so this
  scales with cores without fork/IPC.  ``ThreadPoolExecutor.map``
  preserves input order, so results come back in cell-index order and the
  output is positionally identical to the serial run.  Shared per-trace
  precompute (``_SegmentChains``) is read-only after construction; its
  scratch workspace is thread-local and its shift memo is lock-guarded
  (see ``core/engine.py``).

Besides the reductions, this module holds one *sequential episode
machine*: :func:`wang_cascade`, the scalar core of the kernel tier's Wang
baseline (``core/engine.py`` :class:`_WangReplay`).  The vectorized
candidate pass resolves every copy whose expiry finds other copies
alive; ``wang_cascade`` replays only the rare die-out episodes (grace
extensions, second-expiry shipments to server 0, locally-served flips)
plus the drain's heap order, walking candidates in the scalar heap's
``(when, server)`` pop order.  At most one injected extension is alive
at a time, so the machine is O(episodes), not O(m) — it is a loop by
necessity (each episode's outcome gates the next).

Choosing the path
-----------------

The two paths differ only in speed, so no caller picks one:
:meth:`AutoBackend.resolve` decides from the thread budget and the slab
width.  It fans out once the budget allows two or more threads and every
thread gets at least :data:`THREADS_MIN_CELLS_PER_THREAD` cells — below
that, executor dispatch and per-thread workspace allocation eat the win —
and runs serially otherwise.  ``benchmarks/bench_backends.py`` times the
two paths against each other (``benchmarks/BENCH_backends.json``).

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
# cells; below that, pool dispatch and per-thread workspaces eat the win
# (an early fig25 estimate, not yet re-derived over cells x m).
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


def merge_interleave(dw, ew, db, eb):
    """Interleave two expiry-sorted streams; ``None`` on any cross-stream
    tie, where the caller's lexsort fallback defines the order."""
    # Positional interleave via two searchsorted passes.
    lo = np.searchsorted(eb, ew, side="left")
    if not np.array_equal(lo, np.searchsorted(eb, ew, side="right")):
        return None
    out = np.empty(dw.size + db.size, dtype=np.int64)
    exp = np.empty(out.size)
    pw = np.arange(dw.size)
    pw += lo
    out[pw] = dw
    exp[pw] = ew
    pb = np.arange(db.size)
    pb += np.searchsorted(ew, eb, side="left")
    out[pb] = db
    exp[pb] = eb
    return out, exp


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
    m,            # int64         number of real requests
    do_drain,     # bool
    cap,          # int64         drain event cap
):
    """Sequential episode machine behind the kernel-tier Wang replay.

    Everything array-parallel about Wang lives in ``core/engine.py``;
    this loop resolves only what is irreducibly sequential — the rare
    die-out *episodes* (an only-copy expiry renews in place instead of
    dropping, so coverage extends beyond the baseline segment) and the
    post-trace drain.  At most one such injected extension exists at a
    time, so the machine walks the trigger candidates and the injected
    copy's own events in global ``(when, server)`` order, emitting the
    corrections the vectorized pass cannot know: suppressed drops,
    miss->renewal flips, cascade transfer/drop charges, and the final
    alive set.
    """
    inf = np.inf
    nc = cand_e.shape[0]
    nt = trig_pos.shape[0]
    n = periods.shape[0]

    trig_suppress = np.zeros(nt, dtype=np.bool_)
    ep_cap = 2 * nt + 2
    ep_when = np.empty(ep_cap, dtype=np.float64)
    ep_srv = np.empty(ep_cap, dtype=np.int64)
    ep_start = np.empty(ep_cap, dtype=np.float64)
    ep_ev = np.empty(ep_cap, dtype=np.int64)
    n_ep = 0
    flip_req = np.empty(nt + 1, dtype=np.int64)
    flip_start = np.empty(nt + 1, dtype=np.float64)
    n_flips = 0
    n_tx_casc = 0

    inj_alive = False
    inj_srv = 0
    inj_start = 0.0
    inj_pend = 0.0
    inj_flag = False       # Wang's renewed_once grace flag for the holder
    inj_ev = np.int64(-1)  # >= 0: cascade-created at that event's pop phase
    inj_nr = m + 1         # holder's next request index (m+1: none)

    ti = 0
    do_step = False
    fire_w = 0.0
    ib = np.int64(0)
    while True:
        if do_step:
            # Only-copy fire at (fire_w, holder) inside the request gap
            # ending at event ib: replay Wang's expire() only-copy arm,
            # chaining every further fire strictly before t_all[ib].
            tb = t_all[ib]
            if inj_srv == 0:
                p0 = periods[0]
                w2 = fire_w + p0
                while w2 < tb:
                    w2 = w2 + p0
                inj_pend = w2
            else:
                transfer = True
                if not inj_flag:
                    pd = fire_w + periods[inj_srv]   # free renewal (grace)
                    if pd >= tb:
                        inj_pend = pd
                        inj_flag = True
                        transfer = False
                    else:
                        fire_w = pd   # second consecutive expiry in-gap
                if transfer:
                    # ship to server 0: charge + drop the source, create
                    # at 0, then chain 0's free renewals through the gap
                    ep_when[n_ep] = fire_w
                    ep_srv[n_ep] = inj_srv
                    ep_start[n_ep] = inj_start
                    ep_ev[n_ep] = ib
                    n_ep += 1
                    n_tx_casc += 1
                    inj_srv = 0
                    inj_start = fire_w
                    inj_ev = ib
                    inj_flag = False
                    p0 = periods[0]
                    w2 = fire_w + p0
                    while w2 < tb:
                        w2 = w2 + p0
                    inj_pend = w2
            inj_alive = True
            lo = srv_off[inj_srv]
            hi = srv_off[inj_srv + 1]
            k = lo + np.searchsorted(srv_req[lo:hi], ib)
            inj_nr = srv_req[k] if k < hi else m + 1
            do_step = False
            continue
        if not inj_alive:
            if ti >= nt:
                break
            r = trig_pos[ti]
            # a genuine die-out: the fire renews in place (episode)
            trig_suppress[ti] = True
            ti += 1
            inj_srv = cand_srv[r]
            inj_start = cand_start[r]
            inj_flag = False
            inj_ev = np.int64(-1)
            fire_w = cand_e[r]
            ib = cand_ev[r]
            do_step = True
            continue
        # injected copy alive: resolve its next event against the next
        # trigger candidate in global (when, server) order
        t_nr = t_all[inj_nr] if inj_nr <= m else inf
        if ti < nt:
            rc = trig_pos[ti]
            ce = cand_e[rc]
            cs = cand_srv[rc]
        else:
            ce = inf
            cs = 0
        if t_nr <= inj_pend:
            # the holder's next request serves before the pending expiry
            if ce < t_nr:
                ti += 1      # candidate pops first: injected covers it
                continue
            flip_req[n_flips] = inj_nr      # baseline miss -> renewal
            flip_start[n_flips] = inj_start
            n_flips += 1
            inj_alive = False
            continue
        if ce < inj_pend or (ce == inj_pend and cs < inj_srv):
            ti += 1          # candidate pops first: injected covers it
            continue
        # the injected copy's own expiry fires next
        ip = np.searchsorted(t_all, inj_pend, side="right")
        if ip > m:
            # fires after the last request: any remaining trigger
            # candidates pop mid-trace, hence under injected coverage
            ti = nt
            break
        lo = np.searchsorted(cand_e, inj_pend)
        while lo < nc and cand_e[lo] == inj_pend and cand_srv[lo] < inj_srv:
            lo += 1
        others = ip - r_cum[ip - 1] - lo    # baseline copies alive here
        if others >= 1:
            ep_when[n_ep] = inj_pend
            ep_srv[n_ep] = inj_srv
            ep_start[n_ep] = inj_start
            ep_ev[n_ep] = ip
            n_ep += 1
            inj_alive = False
            continue
        fire_w = inj_pend
        ib = ip
        do_step = True

    # ------------------------------------------------------------------
    # drain: the scalar heap shrunk to one pending expiry per server
    alive = np.zeros(n, dtype=np.bool_)
    a_start = np.zeros(n, dtype=np.float64)
    a_pend = np.zeros(n, dtype=np.float64)
    a_has = np.zeros(n, dtype=np.bool_)
    a_flag = np.zeros(n, dtype=np.bool_)
    a_kind = np.zeros(n, dtype=np.int64)
    a_ev = np.zeros(n, dtype=np.int64)
    alive_cnt = 0
    for k in range(tail_srv.shape[0]):
        s = tail_srv[k]
        alive[s] = True
        a_start[s] = tail_start[k]
        a_pend[s] = tail_when[k]
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
    dr_cap = n + 4
    dr_when = np.empty(dr_cap, dtype=np.float64)
    dr_srv = np.empty(dr_cap, dtype=np.int64)
    dr_start = np.empty(dr_cap, dtype=np.float64)
    n_dr = 0
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
                    a_pend[0] = bw + periods[0]    # free renewal chain
                    a_has[0] = True
                else:
                    dr_when[n_dr] = bw
                    dr_srv[n_dr] = 0
                    dr_start[n_dr] = a_start[0]
                    n_dr += 1
                    alive[0] = False
                    alive_cnt -= 1
                fired += 1
            else:
                if not only:
                    dr_when[n_dr] = bw
                    dr_srv[n_dr] = best
                    dr_start[n_dr] = a_start[best]
                    n_dr += 1
                    alive[best] = False
                    alive_cnt -= 1
                elif not a_flag[best]:
                    a_flag[best] = True                # grace renewal
                    a_pend[best] = bw + periods[best]
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
                    dr_when[n_dr] = bw
                    dr_srv[n_dr] = best
                    dr_start[n_dr] = a_start[best]
                    n_dr += 1
                    alive[best] = False
                    a_flag[best] = False
                    a_pend[0] = bw + periods[0]
                    a_has[0] = True
                fired += 1

    fin_srv = np.empty(n + 1, dtype=np.int64)
    fin_start = np.empty(n + 1, dtype=np.float64)
    fin_kind = np.empty(n + 1, dtype=np.int64)
    fin_ev = np.empty(n + 1, dtype=np.int64)
    n_fin = 0
    for s in range(n):
        if alive[s]:
            fin_srv[n_fin] = s
            fin_start[n_fin] = a_start[s]
            fin_kind[n_fin] = a_kind[s]
            fin_ev[n_fin] = a_ev[s]
            n_fin += 1

    return (
        trig_suppress,
        ep_when[:n_ep], ep_srv[:n_ep], ep_start[:n_ep], ep_ev[:n_ep],
        flip_req[:n_flips], flip_start[:n_flips],
        n_tx_casc,
        dr_when[:n_dr], dr_srv[:n_dr], dr_start[:n_dr],
        fin_srv[:n_fin], fin_start[:n_fin], fin_kind[:n_fin], fin_ev[:n_fin],
    )


# An environment fact for benchmark run records; no kernel path uses numba.
def numba_available() -> bool:
    """True when numba is installed."""
    return importlib.util.find_spec("numba") is not None


# ---------------------------------------------------------------------------
# Execution paths — how a slab's cells are spread over threads.
# ---------------------------------------------------------------------------


class KernelBackend:
    """The serial path: a slab's cells run one after another."""

    name = "numpy"

    def run_cells(self, n_cells: int, run_one):
        """Evaluate ``run_one(c)`` for each cell, in cell-index order."""
        return [run_one(c) for c in range(n_cells)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name}>"


class ThreadsBackend(KernelBackend):
    """Numpy passes, cells fanned out over a thread pool.

    ``ThreadPoolExecutor.map`` preserves input order, so results come back
    in cell-index order — output is positionally bit-identical to serial.
    :meth:`AutoBackend.resolve` picks this path only when the budget and
    the slab give at least two threads :data:`THREADS_MIN_CELLS_PER_THREAD`
    cells each.
    """

    name = "threads"

    def run_cells(self, n_cells: int, run_one):
        workers = min(thread_budget(), n_cells // THREADS_MIN_CELLS_PER_THREAD)
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernel"
        ) as pool:
            return list(pool.map(run_one, range(n_cells)))


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
