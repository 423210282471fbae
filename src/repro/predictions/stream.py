"""Precomputed prediction streams for the fast simulation engines.

The incremental predictors in :mod:`repro.predictions.oracle` answer one
query at a time (a bisect over per-server arrival times, plus a lazy RNG
draw for the noisy oracle).  The paper's algorithms consume predictions
in a rigid pattern — exactly one query per request, in global request
order, starting with the dummy request ``r_0`` — so the whole stream can
be materialised up front as a boolean array and indexed by
``request.index`` in O(1).

:class:`PredictionStream` does that materialisation with vectorized
numpy operations.  Two equivalence guarantees make it a drop-in for the
fast engine:

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
The slab tiers consume a *prediction matrix* — one stream per cell —
and :meth:`PredictionStream.batch_for_cells` is its one builder.  It
takes ``(predictor, lam)`` cells, computes the ground truth once per
distinct lambda (the cells of a cross-object fleet slab may carry
per-object transfer costs) and draws each seed's PCG64 stream once,
shared across every cell using it, so row ``c`` is bit-identical to the
scalar stream the fast engine would build for that cell.  The kernel
tier reads its cell-major rows directly;
:meth:`PredictionStream.batch_for_predictors` is the one-lambda view of
the same builder, returning the ``(m + 1, n_cells)`` column layout the
batch tier's trace pass walks (or the rows, with ``cell_major=True``).

Thread safety
-------------
The kernel tier's ``threads`` backend (``core/backends.py``) consumes
these streams from concurrent cell workers, which is safe by
construction: the per-lambda truth and per-seed draw memos in the batch
builder are *function-local* dicts — each call builds its own — and
every returned stream/matrix is fully written before the caller fans
cells out, after which the workers only read their own column.  Scalar
:class:`PredictionStream` instances additionally freeze their ``within``
array (``writeable = False``).  Keep it that way: a future cross-call
memo would need a lock or thread-local storage.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    including the "no further request means beyond" convention.
    """
    nxt = trace.next_local_time()  # float64 column, no conversion
    times = np.concatenate(([0.0], trace.times))
    # identical scalar comparison to the bisect path: times[i] <= time + lam
    return nxt <= times + lam


@dataclass(frozen=True)
class PredictionStream:
    """One boolean prediction per request index, precomputed.

    ``within[i]`` is the prediction consumed right after serving request
    ``r_i`` (index 0 = dummy request), i.e. the value the incremental
    predictor would return from ``predict_within(s_i, t_i, lam)``.
    """

    within: np.ndarray
    name: str = "stream"

    def __post_init__(self) -> None:
        # own copy: freezing an aliased caller array would make *their*
        # object read-only
        arr = np.array(self.within, dtype=bool)
        arr.flags.writeable = False
        object.__setattr__(self, "within", arr)

    def __len__(self) -> int:
        return len(self.within)

    def __getitem__(self, i: int) -> bool:
        return bool(self.within[i])

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def oracle(cls, trace: Trace, lam: float) -> "PredictionStream":
        """Perfect predictions (matches :class:`OraclePredictor`)."""
        return cls(truth_within_array(trace, lam), name="oracle")

    @classmethod
    def noisy_oracle(
        cls, trace: Trace, lam: float, accuracy: float, seed: int = 0
    ) -> "PredictionStream":
        """Ground truth flipped with probability ``1 - accuracy``.

        Bit-identical to a fresh :class:`NoisyOraclePredictor` queried
        once per request in global order: the batched ``random(m + 1)``
        call consumes the PCG64 stream exactly as the incremental
        per-query ``random()`` calls do.
        """
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        truth = truth_within_array(trace, lam)
        rng = np.random.default_rng(seed)
        correct = rng.random(len(truth)) < accuracy
        return cls(
            np.where(correct, truth, ~truth),
            name=f"noisy-oracle(p={accuracy:g})",
        )

    @classmethod
    def adversarial(cls, trace: Trace, lam: float) -> "PredictionStream":
        """Always-wrong predictions (matches :class:`AdversarialPredictor`)."""
        return cls(~truth_within_array(trace, lam), name="adversarial")

    @classmethod
    def fixed(cls, trace: Trace, within: bool) -> "PredictionStream":
        """Constant predictions (matches :class:`FixedPredictor`)."""
        return cls(
            np.full(len(trace) + 1, bool(within)),
            name=f"fixed({'within' if within else 'beyond'})",
        )

    # ------------------------------------------------------------------
    # batched constructors (one prediction stream per slab cell)
    # ------------------------------------------------------------------
    @classmethod
    def batch_for_cells(cls, cells, trace: Trace) -> np.ndarray | None:
        """One contiguous prediction row per ``(predictor, lam)`` cell,
        or None if any predictor is not streamable on ``trace``.

        Cells sharing a trace may carry *distinct* lambdas (per-object
        transfer costs), so the ground truth is memoised per lambda and
        each seed's PCG64 draw is computed exactly once.  Row ``c`` is
        bit-identical to ``for_predictor(cells[c][0], trace,
        cells[c][1]).within`` — the scalar stream the fast engine would
        build for that cell.  The layout is cell-major (``(n_cells,
        m + 1)``), what the kernel engine's per-cell replays consume.
        """
        cells = list(cells)
        if not all(cls.supports_predictor(p, trace) for p, _ in cells):
            return None
        m1 = len(trace) + 1
        out = np.empty((len(cells), m1), dtype=bool)
        truths: dict[float, np.ndarray] = {}
        draws: dict[int, np.ndarray] = {}
        for c, (p, lam) in enumerate(cells):
            kind = type(p)
            if kind is FixedPredictor:
                out[c] = bool(p.within)
                continue
            truth = truths.get(lam)
            if truth is None:
                truth = truths[lam] = truth_within_array(trace, lam)
            if kind is OraclePredictor:
                out[c] = truth
            elif kind is AdversarialPredictor:
                out[c] = ~truth
            else:  # NoisyOraclePredictor (supports_predictor vetted types)
                if p.seed not in draws:
                    draws[p.seed] = np.random.default_rng(p.seed).random(m1)
                correct = draws[p.seed] < p.accuracy
                out[c] = np.where(correct, truth, ~truth)
        return out

    @classmethod
    def batch_for_predictors(
        cls, predictors, trace: Trace, lam: float, cell_major: bool = False
    ) -> np.ndarray | None:
        """One prediction column per predictor at a single ``lam``, or
        None if any is not streamable on ``trace``.

        :meth:`batch_for_cells` with every cell at ``lam``.  The default
        ``(m + 1, n_cells)`` layout is what the batch tier's trace pass
        walks, one request row at a time; ``cell_major=True`` returns
        the builder's ``(n_cells, m + 1)`` rows unchanged.
        """
        rows = cls.batch_for_cells([(p, lam) for p in predictors], trace)
        if rows is None or cell_major:
            return rows
        return np.ascontiguousarray(rows.T)

    # ------------------------------------------------------------------
    @classmethod
    def supports_predictor(cls, predictor, trace: Trace) -> bool:
        """Whether :meth:`for_predictor` can stream ``predictor`` faithfully.

        Cheap (no arrays are built) — used by engine ``supports`` checks
        on every auto-selection.  False for unknown/history-based types,
        trace-backed predictors built from a *different* trace, and a
        noisy oracle that has already answered queries (its RNG position
        is no longer the fresh-seed state).
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

    @classmethod
    def for_predictor(
        cls, predictor, trace: Trace, lam: float
    ) -> "PredictionStream | None":
        """The stream equivalent to ``predictor`` on ``trace``, or None
        when the predictor fails :meth:`supports_predictor`."""
        if not cls.supports_predictor(predictor, trace):
            return None
        kind = type(predictor)
        if kind is FixedPredictor:
            return cls.fixed(trace, predictor.within)
        if kind is OraclePredictor:
            return cls.oracle(trace, lam)
        if kind is AdversarialPredictor:
            return cls.adversarial(trace, lam)
        return cls.noisy_oracle(trace, lam, predictor.accuracy, predictor.seed)
