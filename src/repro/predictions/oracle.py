"""Oracle-derived predictors: perfect, noisy, adversarial, and fixed.

These predictors implement the paper's experimental setup (Appendix J):
"The predictions of inter-request times are randomly generated according
to the ground truth and a specified prediction accuracy."
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.trace import Trace
from .base import Predictor

__all__ = [
    "OraclePredictor",
    "NoisyOraclePredictor",
    "AdversarialPredictor",
    "FixedPredictor",
    "ground_truth_within",
]


def ground_truth_within(trace: Trace, server: int, time: float, lam: float) -> bool:
    """Ground truth of the binary prediction.

    True iff the next request at ``server`` strictly after ``time``
    arrives at or before ``time + lam``.  When no further request exists
    at the server, the truth is "beyond" (False), matching the intuition
    that an infinite gap exceeds ``lam``.
    """
    times = trace.per_server_times().get(server)
    if times is None or len(times) == 0:
        return False
    i = bisect_right(times, time)
    if i >= len(times):
        return False
    return times[i] <= time + lam


class _TraceBacked(Predictor):
    """Shared machinery: per-server sorted arrival times from the trace.

    The per-server index is built lazily on the first query: grid slabs
    construct hundreds of these predictors only to hand them to the
    kernel engine, which streams predictions from vectorized arrays
    and never query the predictor itself.
    """

    def __init__(self, trace: Trace):
        self._trace = trace  # retained so PredictionStream can verify provenance
        self._per_server: dict[int, np.ndarray] | None = None

    @property
    def _times(self) -> dict[int, np.ndarray]:
        if self._per_server is None:
            self._per_server = self._trace.per_server_times()
        return self._per_server

    def _truth(self, server: int, time: float, lam: float) -> bool:
        times = self._times.get(server)
        if times is None or len(times) == 0:
            return False
        i = bisect_right(times, time)
        if i >= len(times):
            return False
        return bool(times[i] <= time + lam)


class OraclePredictor(_TraceBacked):
    """Perfect predictions (100% accuracy) — the consistency regime."""

    name = "oracle"

    def predict_within(self, server: int, time: float, lam: float) -> bool:
        return self._truth(server, time, lam)


class NoisyOraclePredictor(_TraceBacked):
    """Ground truth flipped independently with probability ``1 - accuracy``.

    This reproduces the paper's accuracy knob: each prediction is correct
    with probability ``accuracy``.  ``accuracy=1`` equals the oracle;
    ``accuracy=0`` equals the adversarial predictor.

    Flips are sampled lazily and memoised per (server, time) so repeated
    queries return the same answer within a run.
    """

    def __init__(self, trace: Trace, accuracy: float, seed: int = 0):
        super().__init__(trace)
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self.accuracy = float(accuracy)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._memo: dict[tuple[int, float], bool] = {}
        self.name = f"noisy-oracle(p={accuracy:g})"

    def predict_within(self, server: int, time: float, lam: float) -> bool:
        key = (server, time)
        if key not in self._memo:
            self._memo[key] = bool(self._rng.random() < self.accuracy)
        correct = self._memo[key]
        truth = self._truth(server, time, lam)
        return truth if correct else not truth


class AdversarialPredictor(_TraceBacked):
    """Always-wrong predictions (0% accuracy) — the robustness regime."""

    name = "adversarial"

    def predict_within(self, server: int, time: float, lam: float) -> bool:
        return not self._truth(server, time, lam)


class FixedPredictor(Predictor):
    """Constant prediction, independent of the trace.

    ``FixedPredictor(False)`` ("always beyond") is the prediction pattern
    of the paper's Figure 5 tight robustness example.
    """

    def __init__(self, within: bool):
        self.within = bool(within)
        self.name = f"fixed({'within' if within else 'beyond'})"

    def predict_within(self, server: int, time: float, lam: float) -> bool:
        return self.within
