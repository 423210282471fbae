"""Precomputed prediction streams for the cost-only simulation engines.

The incremental predictors in :mod:`repro.predictions.oracle` answer one
query at a time (a bisect over per-server arrival times, plus a lazy RNG
draw for the noisy oracle).  The paper's algorithms consume predictions
in a rigid pattern — exactly one query per request, in global request
order, starting with the dummy request ``r_0`` — so the whole stream can
be materialised up front as a boolean array and indexed by
``request.index`` in O(1).

:class:`PredictionStream` does that materialisation with vectorized
numpy operations.  Two equivalence guarantees make it a drop-in for the
incremental predictors in the cost-only engines:

* the ground truth ``next_local_arrival <= t + lam`` is evaluated with
  the same scalar IEEE operations as the incremental ``bisect`` path;
* noisy-oracle correctness flips are drawn as one batched
  ``Generator.random(m + 1)`` call, which produces **bit-identical**
  doubles to ``m + 1`` successive ``Generator.random()`` calls from the
  same seed — the draw order of the incremental memoised path.

Streams cover the trace-backed predictor family (oracle, noisy oracle,
adversarial) plus constant predictions.  History-based predictors
(sliding window, Markov, EWMA, ensembles) observe requests one at a
time and are deliberately *not* streamable; policies using them fall
back to the reference engine.

Batched streams
---------------
Kernel slabs, down to a lone cell, consume a *prediction matrix* — one
stream per cell — and one builder makes it.  It takes ``(predictor,
lam)`` cells, computes the ground truth once per distinct lambda (the
cells of a cross-object fleet slab may carry per-object transfer
costs) and draws each seed's PCG64 stream once, shared across every
cell using it, so row ``c`` is bit-identical to the answers of cell
``c``'s predictor, fresh, queried once per request in global order.  A
noisy row is written in place: ``draw < accuracy`` into the row, then
``row == truth`` (a correct draw keeps the truth, a wrong one flips
it).  :meth:`PredictionStream.batch_for_cells` takes the ground truth
from :func:`truth_within_array`; a kernel slab builds the same matrix
with the truth of its segment chains (``succ <= reach`` of the lambda
shift, which its replays build anyway), equal entry for entry, so the
slab sorts its requests by server once, not twice.  The kernel's
passes read the cell-major rows directly;
:meth:`PredictionStream.batch_for_predictors` is the one-lambda view of
the builder, returning the request-major ``(m + 1, n_cells)`` column
layout (or the rows, with ``cell_major=True``).

Thread safety
-------------
The kernel tier's ``threads`` backend (``core/backends.py``) consumes
these streams from concurrent pass workers, which is safe by
construction: the per-lambda truth and per-seed draw memos in the batch
builder are *function-local* dicts — each call builds its own — and
every returned matrix is fully written before the caller fans passes
out, after which the workers only read their own rows.  Keep it that
way: a future cross-call memo would need a lock or thread-local
storage.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.trace import Trace
from .oracle import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
)

__all__ = ["PredictionStream", "truth_within_array"]


def truth_within_array(trace: Trace, lam: float) -> np.ndarray:
    """Vectorized ground truth for every prediction query of a run.

    Entry ``i`` answers the query issued immediately after request
    ``r_i`` (``i = 0`` is the dummy request at server 0, time 0): does
    the next request at the same server arrive within ``lam``?  Matches
    :func:`repro.predictions.oracle.ground_truth_within` query by query,
    including the "no further request means beyond" convention, at
    every ``lam`` up to ``inf``.
    """
    nxt = trace.next_local_time()  # float64 column, inf where none
    times = np.concatenate(([0.0], trace.times))
    # identical scalar comparison to the bisect path: times[i] <= time + lam
    within = nxt <= times + lam
    # a missing next request (inf) is beyond even where time + lam is
    # inf; at a finite lam it already compares False
    within &= nxt < np.inf
    return within


def _prediction_rows(cells, trace: Trace, truth) -> np.ndarray | None:
    """:meth:`PredictionStream.batch_for_cells`, with the ground-truth
    column at each distinct lambda taken from ``truth(lam)``: the
    kernel passes its segment chains' column, equal to
    :func:`truth_within_array` entry for entry."""
    cells = list(cells)
    for p, _ in cells:
        if not PredictionStream.supports_predictor(p, trace):
            return None
    m1 = len(trace) + 1
    out = np.empty((len(cells), m1), dtype=bool)
    truths: dict[float, np.ndarray] = {}
    draws: dict[int, np.ndarray] = {}
    for c, (p, lam) in enumerate(cells):
        kind = type(p)
        row = out[c]
        if kind is FixedPredictor:
            row[:] = bool(p.within)
            continue
        t = truths.get(lam)
        if t is None:
            t = truths[lam] = truth(lam)
        if kind is OraclePredictor:
            row[:] = t
        elif kind is AdversarialPredictor:
            np.logical_not(t, out=row)
        else:  # NoisyOraclePredictor (supports_predictor vetted types)
            if p.seed not in draws:
                draws[p.seed] = np.random.default_rng(p.seed).random(m1)
            # a correct draw keeps the truth, a wrong one flips it:
            # (draw < accuracy) == truth, written straight into the row
            np.less(draws[p.seed], p.accuracy, out=row)
            np.equal(row, t, out=row)
    return out


class PredictionStream:
    """Prediction matrices for the kernel engine: one boolean row per
    cell, one entry per request index.

    Entry ``i`` of a row is the prediction consumed right after serving
    request ``r_i`` (index 0 = dummy request), i.e. the value the cell's
    incremental predictor would return from ``predict_within(s_i, t_i,
    lam)``.
    """

    @classmethod
    def batch_for_cells(cls, cells, trace: Trace) -> np.ndarray | None:
        """One contiguous prediction row per ``(predictor, lam)`` cell,
        or None if any predictor is not streamable on ``trace``.

        Cells sharing a trace may carry *distinct* lambdas (per-object
        transfer costs), so the ground truth is memoised per lambda and
        each seed's PCG64 draw is computed exactly once.  Row ``c`` is
        bit-identical to what a fresh ``cells[c][0]`` answers when
        queried once per request at ``cells[c][1]``, in global order,
        dummy request first.  The layout is cell-major (``(n_cells, m +
        1)``), what the kernel engine's replays consume.
        """
        return _prediction_rows(
            cells, trace, functools.partial(truth_within_array, trace)
        )

    @classmethod
    def batch_for_predictors(
        cls, predictors, trace: Trace, lam: float, cell_major: bool = False
    ) -> np.ndarray | None:
        """One prediction column per predictor at a single ``lam``, or
        None if any is not streamable on ``trace``.

        :meth:`batch_for_cells` with every cell at ``lam``.  The default
        layout is request-major, ``(m + 1, n_cells)``;
        ``cell_major=True`` returns the builder's ``(n_cells, m + 1)``
        rows unchanged, what the kernel's multi-row passes take.
        """
        rows = cls.batch_for_cells([(p, lam) for p in predictors], trace)
        if rows is None or cell_major:
            return rows
        return np.ascontiguousarray(rows.T)

    @classmethod
    def supports_predictor(cls, predictor, trace: Trace) -> bool:
        """Whether :meth:`batch_for_cells` can stream ``predictor`` on
        ``trace`` faithfully.

        Cheap (no arrays are built) — used by the kernel's eligibility
        check on every auto-selection and slab cell.  False for
        unknown/history-based types, trace-backed predictors built from
        a *different* trace, and a noisy oracle that has already
        answered queries (its RNG position is no longer the fresh-seed
        state).
        """
        kind = type(predictor)
        if kind is FixedPredictor:
            return True
        if kind in (OraclePredictor, NoisyOraclePredictor, AdversarialPredictor):
            src = getattr(predictor, "_trace", None)
            if src is not trace and src != trace:
                return False
            if kind is NoisyOraclePredictor and predictor._memo:
                return False
            return True
        return False
