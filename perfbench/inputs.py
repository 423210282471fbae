"""Seeded benchmark inputs and workload sizes.

The fleet-log access log is generated here, by the benchmark, from the
workload seed alone; the program only ever sees the file.  Read counts
are deterministic per popularity rank (the seed decides which object
gets which rank), so every seed replays the same number of reads and
runs stay comparable across seeds.  Each object's read times come from
the repo's IBM-like arrival model (``repro.workloads.ibm_like_arrivals``:
bursty log-normal gaps with a diurnal cycle over the paper object's
seven days), drawn with a per-object seed.

The write rows are this benchmark's own choice, not taken from a trace:
a quarter as many writes as reads, on uniformly drawn objects at
uniform times over the week.  They exist so the ingest's read filter
drops rows; the program ignores them otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.workloads import ibm_like_arrivals

#: the paper object's seven days, in the log's millisecond timestamps
LOG_SPAN_MS = 7 * 24 * 3600 * 1000
LOG_START_MS = 1_600_000_000_000
READ_OP = "REST.GET.OBJECT"
WRITE_OP = "REST.PUT.OBJECT"
#: writes interleaved per read, so the ingest's read filter drops rows
WRITES_PER_READ = 0.25
#: popularity skew of read counts over object ranks
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Size:
    """Every size knob of the four workloads."""

    paper_m: int | None          # None: the paper's m = 11,688
    long_m: int
    coarse_paper: bool           # 3x3 sub-grid per figure instead of 11x11
    fleet_objects: int
    fleet_reads: int             # target total; met exactly up to rounding
    fleet_cap: int
    min_passes: int


SIZES = {
    "full": Size(
        paper_m=None,
        long_m=200_000,
        coarse_paper=False,
        # 5k objects keep every run of the four workloads within the
        # benchmark's time budget on a 2-core box
        fleet_objects=5_000,
        fleet_reads=287_500,
        fleet_cap=5_000,
        min_passes=3,
    ),
    # seconds-scale shapes for the benchmark's own tests
    "tiny": Size(
        paper_m=1_500,
        long_m=4_000,
        coarse_paper=True,
        fleet_objects=120,
        fleet_reads=2_400,
        fleet_cap=200,
        min_passes=2,
    ),
}


def zipf_read_counts(n_objects: int, total: int, cap: int) -> np.ndarray:
    """Read count per popularity rank: ``clip(round(c / rank**s), 2, cap)``.

    ``c`` is found by bisection so the counts sum to about ``total``.
    Every object gets at least 2 reads, the access-log loader's default
    minimum, so every generated object reaches the fleet.
    """
    if total < 2 * n_objects:
        raise ValueError(f"need >= 2 reads per object, got {total} for {n_objects}")
    ranks = np.arange(1, n_objects + 1, dtype=np.float64)

    def counts(c: float) -> np.ndarray:
        return np.clip(np.rint(c / ranks**ZIPF_EXPONENT), 2, cap).astype(np.int64)

    lo, hi = 0.0, float(cap) * float(n_objects) ** ZIPF_EXPONENT
    for _ in range(100):
        mid = (lo + hi) / 2
        if counts(mid).sum() < total:
            lo = mid
        else:
            hi = mid
    return counts(hi)


@dataclass(frozen=True)
class AccessLog:
    path: Path
    objects: int
    reads: int
    rows: int


def write_access_log(path: Path, seed: int, size: Size) -> AccessLog:
    """Write an IBM-format log (``timestamp op object_id``), time-ordered.

    The seed shuffles popularity ranks over object ids, seeds every
    object's IBM-like read arrivals and draws the write rows.
    """
    rng = np.random.default_rng(seed)
    rank = rng.permutation(size.fleet_objects)      # object -> popularity rank
    counts = zipf_read_counts(size.fleet_objects, size.fleet_reads, size.fleet_cap)[rank]
    # an odd multiplier is a bijection mod 2**64: unique 16-hex-digit ids
    base = int(rng.integers(0, 2**62))
    ids = [
        f"{((base + i) * 0x9E3779B97F4A7C15) % 2**64:016x}"
        for i in range(size.fleet_objects)
    ]
    reads = int(counts.sum())
    n_writes = int(reads * WRITES_PER_READ)
    obj = np.concatenate(
        [
            np.repeat(np.arange(size.fleet_objects), counts),
            rng.integers(0, size.fleet_objects, n_writes),
        ]
    )
    is_read = np.arange(len(obj)) < reads
    object_seeds = rng.integers(0, 2**31, size.fleet_objects).tolist()
    read_s = np.concatenate(
        [
            ibm_like_arrivals(m=int(m), seed=s)
            for m, s in zip(counts.tolist(), object_seeds)
        ]
    )
    offset = np.concatenate(
        [read_s * 1000.0, rng.uniform(0, LOG_SPAN_MS, n_writes)]
    )
    ts = LOG_START_MS + offset.astype(np.int64)
    order = np.argsort(ts, kind="stable")
    ts, is_read, obj = ts[order], is_read[order], obj[order]
    ops = (WRITE_OP, READ_OP)
    chunk = 100_000     # bounded memory: the log never sits in RAM as text
    with path.open("w", encoding="utf-8") as fh:
        for lo in range(0, len(ts), chunk):
            hi = lo + chunk
            fh.writelines(
                f"{t} {ops[r]} {ids[o]}\n"
                for t, r, o in zip(
                    ts[lo:hi].tolist(), is_read[lo:hi].tolist(), obj[lo:hi].tolist()
                )
            )
    return AccessLog(path=path, objects=size.fleet_objects, reads=reads, rows=len(ts))
