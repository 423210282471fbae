"""Metric names, units and the layer -> end-to-end prediction table.

Names and units of every metric in the result line come from
``BENCHMARK.json``.  This module holds only what that file cannot: the
end-to-end metric (and workload) a change to each layer should move,
written down before any change is measured, and the rows the traced run
prints and records but leaves out of the result line, because they read
exactly 0 on a workload whose path never enters the layer (the batch
tier runs on none of the four).
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])

#: (name, unit) of the measured run's metrics
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])

#: printed with the end-to-end metrics; not in the result line because it
#: is 0 on correct code (failed / attempted carry it there)
FAILED_FRAC = ("failed_frac", "ratio")

#: (name, unit) of the traced run's print-only rows
PRINT_ONLY = (
    ("workloads.trace_s", "s"),
    ("system.ingest_s", "s"),
    ("system.ingest_rows_per_s", "rows/s"),
    ("engine.kernel.busy_s", "s"),
    ("engine.kernel.cells", "count"),
    ("engine.batch.busy_s", "s"),
    ("engine.batch.cells", "count"),
    ("engine.fast.busy_s", "s"),
    ("engine.fast.cells", "count"),
    ("engine.reference.busy_s", "s"),
    ("engine.reference.cells", "count"),
)

#: every per-layer metric, in table order -> the end-to-end metric a
#: change to its layer should move
SHOULD_MOVE = {
    "workloads.trace_s": "setup_s on paper-grid, long-grid, adaptive-grid",
    "system.ingest_s": "setup_s on fleet-log",
    "system.ingest_rows_per_s": "setup_s on fleet-log",
    "system.npz_save_s": "wall_s on long-grid (spool hand-off)",
    "system.npz_load_s": "wall_s on long-grid (spool hand-off)",
    "offline.dp_s": "wall_s, cpu_s: fleet-log most, then long-grid, paper-grid",
    "offline.dp_calls": "wall_s, cpu_s with offline.dp_s",
    "offline.dp_share": "wall_s, cpu_s with offline.dp_s",
    "predictions.stream_s": "wall_s on long-grid and paper-grid",
    "engine.kernel.fixed_ms": "wall_s on paper-grid",
    "engine.kernel.cell_ms": "wall_s on long-grid",
    "engine.kernel.busy_s": "wall_s on paper-grid, long-grid",
    "engine.kernel.cells": "wall_s on paper-grid, long-grid",
    "engine.batch.busy_s": "wall_s on fleet-log",
    "engine.batch.cells": "wall_s on fleet-log",
    "engine.fast.busy_s": "wall_s on fleet-log",
    "engine.fast.cells": "wall_s on fleet-log",
    "engine.reference.busy_s": "wall_s on adaptive-grid",
    "engine.reference.cells": "wall_s on adaptive-grid",
    "engine.reference.requests_per_s": "wall_s on adaptive-grid",
    "engine.busy_s": "wall_s on every workload",
    "engine.cells": "wall_s on every workload",
    "experiments.cache.put_ms": "wall_s on paper-grid",
    "experiments.cache.get_ms": "wall_s on paper-grid",
    "experiments.cache.entries": "wall_s on paper-grid",
    "experiments.runner.parallel_eff": "wall_s on fleet-log and paper-grid",
    "experiments.runner.overhead_s": "wall_s on fleet-log and paper-grid",
    "trace.wall_s": "completeness: compare with wall_s",
    "trace.unattributed_s": "completeness: time outside the layers",
}

_IN_JSON = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
_UNITS = {**_IN_JSON, **dict(PRINT_ONLY)}

#: (name, unit, should move, in the result line)
PER_LAYER = tuple(
    (name, _UNITS[name], move, name in _IN_JSON) for name, move in SHOULD_MOVE.items()
)

ENGINE_TIERS = ("kernel", "batch", "fast", "reference")
