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
under the effective prediction column ``within | forced``, which is how
the kernel replays it (``core/engine.py``).  Two array twins of the
monitor serve that replay: :class:`_ArrayMonitor` reads the trips off
the masks of a replay the kernel has run (a replay that never trips is
the policy's), and :func:`forced_column`, one scalar pass over the trace
and the prediction column, computes ``forced`` for the rows that trip,
up to their first release or, for rows that trip again, in full.
"""

from __future__ import annotations

import itertools
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


def _scalar_rows(cols: tuple, start: int):
    """``(i, cols[0][i], cols[1][i], ...)`` for each index ``i`` of the
    equal-length ``cols`` from ``start`` on, in Python scalars.  The
    columns convert in blocks that grow 4-fold from 512 entries, so a
    loop that stops early converts little more than it reads, and one
    that runs to the end pays a handful of slices."""

    def blocks():
        lo, size, end = start, 512, len(cols[0])
        while lo < end:
            hi = min(end, lo + size)
            yield zip(range(lo, hi), *(c[lo:hi].tolist() for c in cols))
            lo, size = hi, 4 * size

    return itertools.chain.from_iterable(blocks())


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
    until_release: bool = False,
) -> np.ndarray:
    """The fallback flags :class:`AdaptiveReplication` raises on a trace.

    ``t_all`` / ``j_all`` are the dummy-prefixed time and server columns
    of an ``n``-server trace and ``within`` the policy's prediction
    column (``within[i]`` is consumed after request ``i``).  Returns a
    bool column of length ``m + 1`` whose entry ``i`` is the trip
    decision ``_note_request`` takes at request ``i`` (``forced[0]``,
    the dummy, is False), for the policy with ``alpha``, ``beta`` and
    ``warmup`` under ``lam`` and the uniform storage rate ``mu``.  With
    ``until_release`` the machine stops at the first release, the first
    request ``r`` at which the fallback ends after a trip, and returns
    the prefix ``forced[:r + 1]`` (the whole column if the fallback
    never ends).

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

    The kernel finds the trips of a replay it has run in the replay's
    own pass (:class:`_ArrayMonitor`), so it runs this machine only for
    rows whose replay tripped: up to the first release, and over the
    whole trace only for rows that trip again after it.  It remains
    the reference for the trip column.
    """
    m = len(t_all) - 1
    inf = math.inf
    beyond = alpha * lam            # the reference's single multiply
    tail = lam + mu * lam           # open-tail allowance per seen server
    bound = 2.0 + beta
    d = lam if within[0] else beyond
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
    for i, t, j, p in _scalar_rows((t_all, j_all, within), 1):
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
            if until_release and not f and forced[i - 1]:
                return np.array(forced[: i + 1], dtype=bool)
        d = lam if f or p else beyond
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


class _ArrayMonitor:
    """The monitor of :class:`AdaptiveReplication` over arrays, for the
    kernel's replays on one trace at ``lam`` and the uniform storage
    rate ``mu``.

    A replay of a prediction column yields each request's Section 4.1
    type, ``l_i`` and ``t'_i`` from masks its pass builds anyway
    (``core/engine.py``); :meth:`trips` turns them into the trip
    decisions the monitor takes over that replay.  The float operations
    are ``_note_request``'s, in its order:

    * ``Online_U`` and ``OPT_L`` are sequential ``np.add.accumulate``
      prefix sums of the per-request terms, and a skipped ``OPT_L``
      term (a global gap below ``lambda``) adds an exact ``+0.0``;
    * the ratio ``(Online_U + (lam + mu * lam) * seen) / OPT_L`` is
      tested against ``2 + beta`` only after the warm-up, and ``OPT_L
      <= 0`` reads as an infinite ratio.

    Everything but ``Online_U`` is independent of the trips, so it is
    built once here: ``OPT_L`` and the open-tail allowance after each
    request, and each request's local-gap storage ``mu * (t_i - t_p)``.
    """

    __slots__ = (
        "lam", "mu", "t", "first", "charge", "opt_lower", "open_tail",
        "empty",
    )

    def __init__(
        self,
        t_all: np.ndarray,
        prev_ok: np.ndarray,
        prev_clip: np.ndarray,
        lam: float,
        mu: float,
    ):
        """``t_all`` is the dummy-prefixed time column; ``prev_ok[i - 1]``
        says whether request ``i`` has an earlier local request (the
        dummy counts at server 0), and ``prev_clip[i - 1]`` is its index
        (any index where there is none)."""
        self.lam, self.mu = lam, mu
        self.t = t = t_all[1:]
        m = t.size
        # requests 1..m with no earlier local request (column i - 1)
        self.first = first = np.flatnonzero(~prev_ok)
        # mu * (t_i - t_p): a Type 3 / 4 allocation, and OPT_L's local
        # storage, infinite at a server's first request
        gap = t - t_all.take(prev_clip)
        gap[first] = math.inf
        self.charge = charge = mu * gap
        # OPT_L: two terms per request, summed in the scalar order.
        # min(local, lam) is `lam if local > lam else local`, and
        # max(gap - lam, 0.0) the global-gap term, where a skipped term
        # adds an exact +0.0
        terms = np.empty((m, 2))
        np.minimum(charge, lam, out=terms[:, 0])
        np.multiply(mu, np.diff(t_all), out=terms[:, 1])
        np.subtract(terms[:, 1], lam, out=terms[:, 1])
        np.maximum(terms[:, 1], 0.0, out=terms[:, 1])
        flat = terms.reshape(-1)
        np.add.accumulate(flat, out=flat)
        self.opt_lower = terms[:, 1].copy()
        # the open-tail allowance, lam + mu * lam per server seen so far
        # (server 0's dummy copy counts from the start)
        seen = np.repeat(
            np.arange(1, first.size + 2), np.diff(first, prepend=0, append=m)
        )
        self.open_tail = (lam + mu * lam) * seen
        # OPT_L never decreases (its terms are non-negative), so the
        # requests at which it is still 0 are a prefix
        self.empty = int(np.count_nonzero(self.opt_lower <= 0.0))

    def trips(
        self,
        alpha: float,
        policies: list,
        within_prev: np.ndarray,
        renew: np.ndarray,
        dies: tuple,
    ) -> np.ndarray:
        """The trip columns of ``policies``' rows of one replay: a
        ``(rows, m + 1)`` bool matrix laid out like :func:`forced_column`.

        ``within_prev[r, i - 1]`` is the column entry of request ``i``'s
        local predecessor (its duration is ``l_i``), ``renew[r, i - 1]``
        whether request ``i`` renews its regular copy (Type 3), and
        ``dies`` is ``(rows, requests, local, t_special)`` over the
        die-outs: the special copy serves Type 4 when ``local`` and
        Type 2 otherwise, with ``t'`` its expiry ``t_special``.
        """
        lam, mu = self.lam, self.mu
        n_rows, m = renew.shape
        # mu * l_i, the predecessor's duration (0.0 before a server's
        # first request); a Type 1 allocation is lam + mu * l_i
        held = np.where(within_prev, mu * lam, mu * (alpha * lam))
        held[:, self.first] = 0.0
        upper = held + lam
        np.copyto(upper, self.charge, where=renew)
        rows, req, local, t_special = dies
        q = req - 1
        upper[rows, q] = np.where(
            local,
            self.charge[q],
            lam + mu * (self.t[q] - t_special) + held[rows, q],
        )
        np.add.accumulate(upper, axis=1, out=upper)
        upper += self.open_tail
        with np.errstate(divide="ignore"):
            upper /= self.opt_lower
        trips = np.zeros((n_rows, m + 1), dtype=bool)
        bounds = np.array([2.0 + p.beta for p in policies])
        np.greater(upper, bounds[:, None], out=trips[:, 1:])
        trips[:, 1 : 1 + self.empty] = True
        for r, policy in enumerate(policies):
            trips[r, : policy.warmup + 1] = False
        return trips
