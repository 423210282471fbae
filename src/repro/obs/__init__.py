"""``repro.obs`` — zero-overhead telemetry: spans, metrics, exporters.

DESIGN
======

Why an observability layer
--------------------------
The engine tiers, the slab runner, and the mmap trace spool made grid
evaluation fast, but also *opaque*: engine-tier selection decisions,
cache hit rates, slab shapes, worker utilization, and spool behaviour
all happened silently.  This package is the system's telemetry spine —
every layer records into one process-local :class:`~.metrics.Registry`,
and three exporters (JSON snapshot, Prometheus text exposition, Chrome
trace-event timelines) turn a run into data a dashboard, a CI trend
gate, or Perfetto can consume.

The zero-overhead argument
--------------------------
Telemetry is off by default and must cost (almost) nothing when off:

* every instrumented call site is guarded by **one module-attribute
  read** — ``if metrics.enabled:`` — before any telemetry object is
  touched.  A Python attribute load plus a branch is a few tens of
  nanoseconds; the call sites sit at cell/slab/file granularity (never
  inside per-request loops), so a full grid pays a few hundred checks
  total.  ``benchmarks/bench_obs.py`` measures the end-to-end cost on
  the fig25 kernel grid and gates it below 2%;
* the constructors the guard protects are never reached when disabled;
  API entry points that cannot be guarded (a ``with obs span`` in
  caller code) return the shared :data:`~.metrics.NOOP_SPAN` singleton,
  whose enter/exit do not even read the clock;
* instruments are lock-free plain-attribute accumulators: recording,
  when enabled, is a dict get + integer add.

The bit-identity-neutrality argument
------------------------------------
Instrumentation must never change *what* the system computes, only
observe it.  That holds by construction, not by testing alone:

* telemetry draws **no randomness** — there is no sampling, so the RNG
  streams that make engine results reproducible are never advanced by
  an observation;
* telemetry imposes **no ordering** — instruments are updated after
  decisions are made, never consulted by them; no simulation value is
  read back from a counter or span;
* the only values telemetry reads are the monotonic clock (which no
  engine consumes) and already-computed results (counts, byte sizes);
* worker deltas ride on the existing result IPC and merge into the
  parent with commutative operations (counter/histogram addition, gauge
  max), so worker scheduling cannot leak into merged counts.

``tests/test_obs.py`` pins the consequence: sweep/runner results are
bit-identical with telemetry enabled vs disabled across every engine
tier, and serial counters equal pooled counters.

Public surface
--------------
:mod:`repro.obs.metrics`
    ``enabled`` flag + ``enable()``/``disable()``, ``Counter`` /
    ``Gauge`` / ``Histogram`` (fixed log-spaced buckets via
    ``log_buckets``), ``span()`` / ``timed_span()`` / ``@traced``,
    the fork-aware process ``Registry`` and the worker
    ``drain()`` / ``merge_delta()`` protocol.
:mod:`repro.obs.exporters`
    ``write_snapshot_json`` / ``load_snapshot_json``,
    ``to_prometheus`` (text exposition format), ``to_chrome_trace``
    (Perfetto-loadable), ``summarize`` (the ``repro obs summary``
    pretty-printer).
:mod:`repro.obs.logging`
    stdlib-``logging`` structured logs (key=value or JSON lines),
    library-silent by default, configured by the CLI's
    ``--log-level`` / ``--log-json`` flags.

CLI wiring: ``repro experiments run|fleet run|bench --metrics-out M
--spans-out S`` enable telemetry for the run and export on exit;
``repro obs summary M`` pretty-prints a snapshot.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    Span,
    SpanRecord,
    counter,
    disable,
    drain,
    enable,
    enabled_scope,
    gauge,
    get_registry,
    histogram,
    log_buckets,
    merge_delta,
    reset,
    span,
    timed_span,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
    "SpanRecord",
    "counter",
    "disable",
    "drain",
    "enable",
    "enabled_scope",
    "gauge",
    "get_registry",
    "histogram",
    "log_buckets",
    "merge_delta",
    "reset",
    "span",
    "timed_span",
    "traced",
]
