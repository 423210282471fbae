"""Adapted Algorithm 1 with bounded robustness (Section 8).

The consistency/robustness trade-off of Algorithm 1 is unattractive when
``alpha`` is small: robustness ``1 + 1/alpha`` explodes.  The paper's fix
exploits that mispredictions *reveal themselves* (when a request arrives
we learn whether the previous prediction was right) and monitors an upper
bound of the online-to-optimal cost ratio online:

* ``OPT_L`` — a lower bound on the optimal offline cost: per request,
  ``lambda`` when the local gap's storage ``mu * gap`` exceeds
  ``lambda`` else that storage, plus the uncovered part ``mu * (t_i -
  t_{i-1}) - lambda`` of long global gaps (the denominator of the
  paper's equation (11); :func:`~repro.offline.opt_lower_bound`
  computes the same sum in the same order);
* ``Online_U`` — an upper bound on the online cost: the Proposition 2
  allocations of all arisen requests (transfers at ``lambda``, storage
  at the uniform rate ``mu``) plus a conservative ``lambda + mu *
  lambda`` for each server's still-open tail (its pending regular copy,
  kept at most ``lambda``, plus the worst-case misprediction penalty of
  one transfer).

Whenever ``Online_U / OPT_L > 2 + beta``, the intended duration after the
current request is forced to ``lambda`` (the conventional 2-competitive
behaviour); otherwise Algorithm 1 runs unchanged.  This maintains
robustness ``2 + beta`` while retaining consistency on good predictions.

The fallback changes only the duration picked after a request, and to
the one a "within" prediction picks, so the policy *is* Algorithm 1
under the effective prediction column ``within | forced``.
:func:`forced_column` computes ``forced`` from the trace and the
prediction column alone, which is how the cost-only engine tiers replay
this policy (``core/engine.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.costs import CostModel
from ..core.simulator import SimContext
from ..core.trace import Request
from ..predictions.base import Predictor
from .learning_augmented import (
    LearningAugmentedReplication,
    RequestType,
)

__all__ = ["AdaptiveReplication"]


class AdaptiveReplication(LearningAugmentedReplication):
    """Algorithm 1 adapted to a robustness target of ``2 + beta``.

    Parameters
    ----------
    predictor, alpha:
        As in :class:`LearningAugmentedReplication`.
    beta:
        Robustness slack ``beta >= 0``; the monitored ratio is kept at or
        below ``2 + beta``.
    warmup:
        Number of initial requests during which the original Algorithm 1
        runs unconditionally while the monitors accumulate state (the
        paper uses 100).
    """

    def __init__(
        self,
        predictor: Predictor,
        alpha: float,
        beta: float,
        warmup: int = 100,
    ):
        super().__init__(predictor, alpha)
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.beta = float(beta)
        self.warmup = int(warmup)
        self.name = (
            f"adaptive(alpha={alpha:g}, beta={beta:g}, {predictor.name})"
        )

    # ------------------------------------------------------------------
    def reset(self, model: CostModel) -> None:
        super().reset(model)
        self.opt_lower = 0.0
        self.online_upper_base = 0.0  # sum of Prop. 2 allocations so far
        self._servers_seen: set[int] = {0}
        self._prev_global_time = 0.0
        self._requests_seen = 0
        self._force_conventional = False
        #: history of (request_index, monitored_ratio, forced) for analysis
        self.monitor_history: list[tuple[int, float, bool]] = []

    # ------------------------------------------------------------------
    @property
    def online_upper(self) -> float:
        """Current ``Online_U``: allocations + ``lambda + mu * lambda``
        per active server."""
        assert self._model is not None
        lam = self._model.lam
        tail = lam + self._model.storage_rates[0] * lam
        return self.online_upper_base + tail * len(self._servers_seen)

    @property
    def monitored_ratio(self) -> float:
        """Current ``Online_U / OPT_L`` (inf while ``OPT_L = 0``)."""
        if self.opt_lower <= 0.0:
            return float("inf")
        return self.online_upper / self.opt_lower

    # ------------------------------------------------------------------
    def _note_request(
        self,
        ctx: SimContext,
        request: Request,
        rtype: RequestType,
        l_i: float,
        t_prime: float,
        t_p: float,
    ) -> None:
        assert self._model is not None
        lam = self._model.lam
        mu = self._model.storage_rates[0]     # uniform (reset checks)
        t = request.time
        self._requests_seen += 1
        self._servers_seen.add(request.server)

        # --- OPT_L (denominator of eq. 11), opt_lower_bound's terms -----
        local_gap = t - t_p if not math.isnan(t_p) else float("inf")
        local = mu * local_gap
        self.opt_lower += lam if local > lam else local
        global_gap = mu * (t - self._prev_global_time)
        if global_gap > lam:
            self.opt_lower += global_gap - lam
        self._prev_global_time = t

        # --- Online_U (Prop. 2 allocations of arisen requests) ---------
        held = 0.0 if math.isnan(l_i) else l_i
        if rtype is RequestType.TYPE_1:
            self.online_upper_base += lam + mu * held
        elif rtype is RequestType.TYPE_2:
            self.online_upper_base += lam + mu * (t - t_prime) + mu * held
        else:  # Type-3 / Type-4: t_i - t_p(i)
            self.online_upper_base += mu * (t - t_p)

        # --- trip / release the conventional fallback -------------------
        forced = False
        if self._requests_seen > self.warmup:
            forced = self.monitored_ratio > 2.0 + self.beta
        self._force_conventional = forced
        self.monitor_history.append(
            (request.index, self.monitored_ratio, forced)
        )

    # ------------------------------------------------------------------
    def _duration_for(self, predicted_within: bool) -> float:
        assert self._model is not None
        if self._force_conventional:
            return self._model.lam
        return super()._duration_for(predicted_within)


def forced_column(
    t_all: np.ndarray,
    j_all: np.ndarray,
    within: np.ndarray,
    n: int,
    lam: float,
    mu: float,
    alpha: float,
    beta: float,
    warmup: int,
) -> np.ndarray:
    """The fallback flags :class:`AdaptiveReplication` raises on a trace.

    ``t_all`` / ``j_all`` are the dummy-prefixed time and server columns
    of an ``n``-server trace and ``within`` the policy's prediction
    column (``within[i]`` is consumed after request ``i``).  Returns a
    bool column of length ``m + 1`` whose entry ``i`` is the trip
    decision ``_note_request`` takes at request ``i`` (``forced[0]``,
    the dummy, is False), for the policy with ``alpha``, ``beta`` and
    ``warmup`` under ``lam`` and the uniform storage rate ``mu``.

    One scalar pass over per-server state, with no simulator.  ``E[s]``
    is the expiry ``t + d`` set at server ``s``'s latest request
    (``-inf`` before it).  Algorithm 1 drops a copy only at its expiry
    while another copy lives, or right after a special copy serves a
    transfer, so the copies alive at request ``i`` are ``{s : E[s] >=
    t_i}`` (an expiry at exactly ``t_i`` fires after the request), plus
    the special copy when every ``E`` has passed: the ``(E[s], s)``
    maximum, the expiry heap's last pop.  That yields each request's
    Section 4.1 type, ``l_i`` and ``t'_i``; the monitors then repeat
    ``_note_request``'s float operations in its order, so every trip
    decision is the reference policy's, bit for bit.
    """
    times = t_all.tolist()
    servers = j_all.tolist()
    preds = within.tolist()
    m = len(times) - 1
    inf = math.inf
    beyond = alpha * lam            # the reference's single multiply
    tail = lam + mu * lam           # open-tail allowance per seen server
    bound = 2.0 + beta
    d = lam if preds[0] else beyond
    expiry = [-inf] * n
    # last intended duration; 0.0 stands in for the reference's NaN,
    # which the Online_U terms read as 0.0
    last_d = [0.0] * n
    last_t = [math.nan] * n         # last local time t_p
    expiry[0], last_d[0], last_t[0] = d, d, 0.0
    top_e, top_s = d, 0             # the (E[s], s) maximum
    seen = 1                        # len(servers_seen)
    opt_lower = 0.0
    upper_base = 0.0
    prev_t = 0.0
    forced = [False] * (m + 1)
    for i in range(1, m + 1):
        t = times[i]
        j = servers[i]
        t_p = last_t[j]
        # Online_U: Proposition 2 allocation of the request's type
        if top_e < t:                # die-out: only the special copy lives
            if top_s == j:           # Type 4
                upper_base += mu * (t - t_p)
            else:                    # Type 2, t' = the special's expiry
                upper_base += lam + mu * (t - top_e) + mu * last_d[j]
        elif expiry[j] >= t:         # Type 3
            upper_base += mu * (t - t_p)
        else:                        # Type 1
            upper_base += lam + mu * last_d[j]
        # OPT_L (denominator of eq. 11)
        if t_p != t_p:               # first request at j
            seen += 1
            local_gap = inf
        else:
            local_gap = t - t_p
        local = mu * local_gap
        opt_lower += lam if local > lam else local
        global_gap = mu * (t - prev_t)
        if global_gap > lam:
            opt_lower += global_gap - lam
        prev_t = t
        # trip test, then the duration _duration_for picks
        f = False
        if i > warmup:
            if opt_lower <= 0.0:
                ratio = inf
            else:
                ratio = (upper_base + tail * seen) / opt_lower
            f = forced[i] = ratio > bound
        d = lam if f or preds[i] else beyond
        e = t + d
        expiry[j], last_d[j], last_t[j] = e, d, t
        if e > top_e or (e == top_e and j > top_s):
            top_e, top_s = e, j
        elif j == top_s:             # the maximum moved down: rescan
            top_e, top_s = -inf, 0
            for s in range(n):
                if expiry[s] >= top_e:
                    top_e, top_s = expiry[s], s
    return np.array(forced, dtype=bool)
