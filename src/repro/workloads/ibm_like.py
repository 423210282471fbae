"""Substitute for the IBM Cloud Object Storage trace used in Appendix J.

The paper evaluates on read requests of one object from the public IBM
object-storage traces (object ``652aaef228286e0a``: 11688 reads over 7
days, i.e. a mean inter-arrival of ~52 s and a mean *per-server*
inter-request time of ~500 s once spread over 10 servers by the Zipf
rule).  The traces are not redistributable and unavailable offline, so
this module synthesises an arrival sequence that matches the statistics
the paper's analysis actually depends on (a real log in the IBM layout
replaces it through :func:`repro.system.trace_io.load_access_log_csv`):

* total request count and 7-day span (mean per-server gap ~500 s);
* heavy-tailed, bursty inter-arrivals (log-normal mixture: dense bursts
  well below the smaller ``lambda`` values and long idles well above the
  larger ones), so that each ``lambda`` in {10, 100, 1000, 10000} splits
  the gap distribution non-trivially — the property §J.2's reasoning is
  built on;
* diurnal intensity modulation over the 7 days.

The generator is deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from ..core.trace import Trace
from .synthetic import assign_servers_zipf, dedupe_times

__all__ = ["ibm_like_arrivals", "ibm_like_trace", "IBM_TRACE_REQUESTS", "IBM_TRACE_SPAN"]

#: request count of the paper's representative object
IBM_TRACE_REQUESTS = 11688
#: 7 days in seconds
IBM_TRACE_SPAN = 7 * 24 * 3600.0


def ibm_like_arrivals(
    m: int = IBM_TRACE_REQUESTS,
    span: float = IBM_TRACE_SPAN,
    seed: int = 0,
    burst_fraction: float = 0.55,
    burst_scale: float = 4.0,
    idle_sigma: float = 1.6,
) -> np.ndarray:
    """Arrival times of an IBM-like object-access stream.

    Inter-arrival gaps are a mixture: with probability ``burst_fraction``
    a short log-normal gap (median ``burst_scale`` seconds — bursts of
    closely spaced reads), otherwise a long log-normal gap (heavy tail —
    idle periods of minutes to hours).  A diurnal sinusoid modulates the
    gaps.  The sequence is rescaled to end exactly at ``span``.
    """
    if m < 2:
        raise ValueError(f"need at least 2 requests, got {m}")
    rng = np.random.default_rng(seed)
    is_burst = rng.random(m) < burst_fraction
    short = rng.lognormal(mean=np.log(burst_scale), sigma=1.0, size=m)
    long_med = span / m * 3.0  # long gaps dominate the total span
    long = rng.lognormal(mean=np.log(long_med), sigma=idle_sigma, size=m)
    gaps = np.where(is_burst, short, long)
    t = np.cumsum(gaps)
    # diurnal modulation: compress gaps during "day", stretch at "night"
    phase = 2 * np.pi * (t / 86400.0)
    t = np.cumsum(gaps * (1.0 + 0.45 * np.sin(phase)))
    # rescale to the exact span, keep strictly positive increasing times
    t = t / t[-1] * span
    return dedupe_times(np.maximum.accumulate(t), min_sep=1e-6)


def ibm_like_trace(
    n: int = 10,
    m: int = IBM_TRACE_REQUESTS,
    span: float = IBM_TRACE_SPAN,
    seed: int = 0,
    zipf_exponent: float = 1.0,
) -> Trace:
    """The paper's experimental workload: IBM-like arrivals spread over
    ``n`` servers by the Zipf rule (Appendix J.1)."""
    times = ibm_like_arrivals(m=m, span=span, seed=seed)
    return assign_servers_zipf(times, n, exponent=zipf_exponent, seed=seed + 7)
