"""Adversarial instances from the paper's analysis sections.

* :func:`robustness_tight_trace` — Figure 5: two servers with gaps
  ``alpha*lambda + eps`` and always-"beyond" predictions drive
  Algorithm 1 to ratio ``1 + 1/alpha``.
* :func:`consistency_tight_trace` — Figure 6: three-request cycles where
  even perfect predictions cost ``(5 + alpha) / 3`` times the optimum.
* :func:`wang_counterexample_trace` — Figure 9: requests ``2*lambda +
  eps`` apart at one server push Wang et al.'s algorithm to ratio 5/2.
* :class:`LowerBoundAdversary` — Section 9: the adaptive adversary that
  forces ratio >= 3/2 on *any* deterministic learning-augmented
  algorithm, implemented against the interactive simulation API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.costs import CostModel
from ..core.policy import ReplicationPolicy
from ..core.simulator import InteractiveSimulation, SimulationResult
from ..core.trace import Trace

__all__ = [
    "robustness_tight_trace",
    "consistency_tight_trace",
    "wang_counterexample_trace",
    "LowerBoundAdversary",
    "AdversaryOutcome",
]


def robustness_tight_trace(
    lam: float, alpha: float, m: int, eps: float | None = None
) -> Trace:
    """Figure 5's tight robustness instance.

    Requests alternate between two servers with per-server gap
    ``alpha*lambda + eps``: ``r_1`` at server 1 at ``eps``, then each
    subsequent request lands just after the previous regular copy of its
    own server expired (predictions are always "beyond", so durations are
    ``alpha*lambda``).  Online cost ``(m-1)(alpha*lambda + lambda) +
    lambda`` vs optimal ``(m-1)(alpha*lambda + eps) + lambda``; the ratio
    tends to ``1 + 1/alpha`` as ``m -> inf``, ``eps -> 0``.

    Use with ``FixedPredictor(within=False)`` (which is *wrong* for these
    gaps — that is the point of the robustness regime).
    """
    if m < 1:
        raise ValueError(f"need m >= 1 requests, got {m}")
    if eps is None:
        eps = alpha * lam * 1e-3
    gap = alpha * lam + eps
    # dummy r_0 at server 0 / time 0 is implicit; r_1 at server 1 at eps,
    # then the servers alternate with per-server gap alpha*lambda + eps.
    i = np.arange(1, m + 1, dtype=float)
    odd = np.arange(1, m + 1) % 2 == 1
    times = np.where(odd, eps + (i - 1) / 2 * gap, i / 2 * gap)
    servers = odd.astype(np.int64)  # r_1, r_3, ... at server 1
    order = np.lexsort((servers, times))
    return Trace.from_arrays(times[order], servers[order], n=2)


def consistency_tight_trace(
    lam: float, cycles: int = 1, eps: float | None = None
) -> Trace:
    """Figure 6's tight consistency instance (extended to many cycles).

    One cycle: ``r_1`` at server 1 at ``t = lambda``, ``r_2`` at server 0
    at ``lambda + eps``, ``r_3`` at server 1 at ``2*lambda + eps``.  With
    perfect predictions (every local gap exceeds ``lambda``) Algorithm 1
    pays ``5*lambda + alpha*lambda`` per cycle versus the optimal
    ``3*lambda + 2*eps``; the paper notes the example repeats by treating
    ``r_3`` as the next cycle's ``r_0`` with server roles swapped.
    """
    if cycles < 1:
        raise ValueError(f"need >= 1 cycle, got {cycles}")
    if eps is None:
        eps = lam * 1e-4
    # cycle starts t0_c satisfy t0_{c+1} = (t0_c + 2*lam) + eps; the
    # interleaved accumulate reproduces that two-step addition chain bit
    # for bit (ufunc.accumulate == repeated left-to-right additions)
    inc = np.empty(2 * cycles)
    inc[0::2] = 2 * lam
    inc[1::2] = eps
    acc = np.add.accumulate(inc)
    t0 = np.concatenate(([0.0], acc[1::2][:-1]))
    times = np.empty(3 * cycles)
    times[0::3] = t0 + lam                # r_1 at the other server
    times[1::3] = (t0 + lam) + eps        # r_2 back at r_0's server
    times[2::3] = acc[1::2]               # r_3 = next cycle's r_0
    # roles (a = "server of r_0", b = other) swap every cycle
    c = np.arange(cycles, dtype=np.int64)
    a = c % 2
    b = 1 - a
    servers = np.empty(3 * cycles, dtype=np.int64)
    servers[0::3] = b
    servers[1::3] = a
    servers[2::3] = b
    return Trace.from_arrays(times, servers, n=2)


def wang_counterexample_trace(
    lam: float, m: int, eps: float | None = None
) -> Trace:
    """Figure 9's counterexample to Wang et al.'s claimed 2-competitiveness.

    ``r_1`` arises at server 0 (merged into the implicit dummy request in
    our convention: the object starts at server 0 at time 0), ``r_2`` at
    server 1 at ``eps``, and subsequent requests hit server 1 every
    ``2*lambda + eps``.  Wang et al.'s algorithm pays ~``5*lambda`` per
    cycle; the optimum pays ``2*lambda + eps`` (keep a copy at server 1).
    The ratio approaches 5/2.

    ``m`` counts the requests at server 1 (the paper's ``r_2 .. r_m``).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if m < 1:
        raise ValueError(f"need m >= 1 requests, got {m}")
    if eps is None:
        eps = lam * 1e-4
    # paper times: t2 = eps, t3 = 2 lam + 2 eps, t4 = 4 lam + 3 eps, ...
    times = eps + np.arange(m, dtype=float) * (2 * lam + eps)
    return Trace.from_arrays(times, np.ones(m, dtype=np.int64), n=2)


@dataclass
class AdversaryOutcome:
    """Result of one adversary run: the generated trace, the online run,
    and the adversary's per-request bookkeeping."""

    trace: Trace
    result: SimulationResult
    kinds: list[str]  # "K1a" | "K1b" | "K1c" | "K2" per generated request


class LowerBoundAdversary:
    """The Section 9 adaptive adversary (two servers).

    Feeds correct "beyond" predictions implicitly (all gaps it generates
    exceed ``lambda`` per server) and chooses each next request from the
    observed behaviour of the algorithm:

    * if the idle server ``s`` holds no copy at
      ``t' = max(t_{i-1} + eps, t_k + lambda + eps)``, request at ``s`` at
      ``t'`` (Type-K1a/K1b — forces a transfer);
    * else if ``s`` drops its copy at ``t*`` within ``(t', t_{i-1} +
      lambda)``, request at ``s`` at ``t* + eps`` (Type-K1c — forces a
      transfer);
    * else (``s`` paid storage throughout) request at ``s[r_{i-1}]`` at
      ``t_{i-1} + lambda + eps`` (Type-K2).

    Against any deterministic algorithm the online-to-optimal ratio of
    the generated instance approaches at least 3/2 as ``eps -> 0``.
    """

    def __init__(self, lam: float, eps: float | None = None):
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        self.lam = lam
        self.eps = eps if eps is not None else lam * 1e-4

    def run(
        self,
        policy: ReplicationPolicy,
        n_requests: int,
        model: CostModel | None = None,
    ) -> AdversaryOutcome:
        """Generate ``n_requests`` adversarial requests against ``policy``."""
        if n_requests < 1:
            raise ValueError(f"need n_requests >= 1, got {n_requests}")
        lam, eps = self.lam, self.eps
        model = model or CostModel(lam=lam, n=2)
        sim = InteractiveSimulation(2, model, policy)
        kinds: list[str] = []

        # r_1 at the other server right after time 0
        last_time = eps
        last_server = 1
        # last request time per server; dummy r_0 at server 0, time 0
        last_at = {0: 0.0, 1: eps}
        sim.submit(eps, 1)
        kinds.append("K1b")  # r_1 always forces a transfer

        for _ in range(n_requests - 1):
            s = 1 - last_server
            t_k = last_at[s]
            t_prime = max(last_time + eps, t_k + lam + eps)
            if not sim.holds_copy_at(s, t_prime):
                kind = "K1a" if t_prime == t_k + lam + eps else "K1b"
                sim.submit(t_prime, s)
                last_time, last_server = t_prime, s
                last_at[s] = t_prime
                kinds.append(kind)
                continue
            t_star = sim.watch_for_drop(s, last_time + lam)
            if t_star is not None and t_star > t_prime:
                t_req = t_star + eps
                sim.submit(t_req, s)
                last_time, last_server = t_req, s
                last_at[s] = t_req
                kinds.append("K1c")
            else:
                t_req = last_time + lam + eps
                sim.submit(t_req, last_server)
                last_at[last_server] = t_req
                last_time = t_req
                kinds.append("K2")

        result = sim.finish()
        return AdversaryOutcome(result.trace, result, kinds)
