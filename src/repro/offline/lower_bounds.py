"""Lower bounds on the optimal offline cost.

``opt_lower_bound`` is the quantity ``OPT_L`` from the paper's Section 8
(the denominator of equation (11)); the adapted algorithm maintains it
incrementally, and tests verify the incremental and batch versions agree
and that the bound never exceeds the exact optimum.
"""

from __future__ import annotations

from ..core.costs import CostModel
from ..core.trace import Trace
from .dp import _uniform_rate

__all__ = ["opt_lower_bound"]


def opt_lower_bound(trace: Trace, model: CostModel) -> float:
    """The paper's ``OPT_L`` lower bound on the optimal offline cost.

    Per request ``r_i``:

    * if the local gap ``t_i - t_p(i)`` exceeds ``lambda``, any strategy
      pays at least ``lambda`` for ``r_i`` (a transfer, or >= ``lambda``
      of storage); otherwise it pays at least the gap itself
      (Proposition 5);
    * first requests at servers other than server 0 have no preceding
      local copy, hence cost at least ``lambda`` (counted via the
      infinite-gap convention);
    * additionally, the at-least-one-copy requirement forces storage
      ``t_i - t_{i-1}`` across every global gap; the part beyond
      ``lambda`` is not already counted, contributing
      ``t_i - t_{i-1} - lambda`` when positive.

    Storage is charged at the servers' shared rate ``mu``: per request
    ``min(lambda, mu * gap)``, per global gap ``gg`` ``max(0, mu * gg -
    lambda)``.  The bound stays valid because an instance's cost at rate
    ``mu`` is ``mu`` times its cost at rate 1 with ``lambda / mu``.  Like
    :func:`~repro.offline.dp.optimal_cost`, it rejects non-uniform rates.
    """
    mu = _uniform_rate(trace, model)
    lam = model.lam
    total = 0.0
    gaps = trace.inter_request_gaps()
    prev_t = 0.0
    for r, gap in zip(trace, gaps):
        local = mu * gap
        total += lam if local > lam else local
        global_gap = mu * (r.time - prev_t)
        if global_gap > lam:
            total += global_gap - lam
        prev_t = r.time
    return total
