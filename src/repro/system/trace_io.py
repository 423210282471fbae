"""Trace persistence and access-log ingestion.

Lets users plug their own workloads into the library:

* CSV / JSONL round-tripping of :class:`~repro.core.trace.Trace`, with
  transparent gzip compression for ``.csv.gz`` / ``.jsonl.gz`` paths;
* a binary columnar ``.npz`` format (:func:`save_trace_npz` /
  :func:`load_trace_npz`) that stores the trace's ``times`` / ``servers``
  columns directly — loading is one bulk read instead of m parsed rows,
  and ``mmap=True`` maps the columns straight off disk with **zero
  copies**, so many processes loading the same file share one physical
  copy in the page cache;
* format autodetection (:func:`detect_trace_format`, :func:`load_trace`,
  :func:`save_trace`) keyed on the path suffix, used by the
  ``repro trace info|convert`` CLI;
* :func:`load_access_log_csv` parses object-storage access logs in the
  layout of the IBM traces the paper evaluates on
  (``timestamp_ms operation object_id [size ...]``), filters read
  operations, and produces per-object traces — so when the real IBM
  trace is available the paper's exact experiment can be rerun without
  code changes (until then :mod:`repro.workloads.ibm_like` stands in for
  it).
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
import zipfile
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from ..core.trace import Trace, TraceError
from ..obs import metrics as _obs
from ..obs.logging import get_logger, kv
from ..workloads.synthetic import dedupe_times, zipf_server_probabilities

_log = get_logger("system.trace_io")

__all__ = [
    "TRACE_FORMATS",
    "detect_trace_format",
    "save_trace",
    "load_trace",
    "save_trace_csv",
    "load_trace_csv",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "save_trace_npz",
    "load_trace_npz",
    "load_access_log_csv",
]

#: formats understood by :func:`save_trace` / :func:`load_trace`,
#: detected from the path suffix
TRACE_FORMATS: tuple[str, ...] = ("csv", "csv.gz", "jsonl", "jsonl.gz", "npz")


def _open_text(path: Path, mode: str, gz: bool | None = None) -> IO[str]:
    """Open a text trace file, transparently gzipped for ``.gz`` paths.

    ``gz=None`` infers compression from the path suffix; an explicit
    bool (from a ``fmt`` override) wins over the suffix.  ``newline=""``
    keeps the csv module in charge of line endings on both paths.
    """
    if gz if gz is not None else path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return path.open(mode, newline="", encoding="utf-8")


def detect_trace_format(path: str | Path) -> str:
    """The trace format implied by ``path``'s suffix.

    Raises :class:`TraceError` for a suffix outside
    :data:`TRACE_FORMATS`.
    """
    name = Path(path).name.lower()
    for fmt in sorted(TRACE_FORMATS, key=len, reverse=True):
        if name.endswith("." + fmt):
            return fmt
    raise TraceError(
        f"{path}: cannot detect trace format from suffix; expected one of "
        + ", ".join("." + f for f in TRACE_FORMATS)
    )


def save_trace(trace: Trace, path: str | Path, fmt: str | None = None) -> None:
    """Write ``trace`` in the format implied by ``path`` (or ``fmt``).

    An explicit ``fmt`` wins over the path suffix — ``fmt="npz"`` with a
    suffix-less path still writes the binary format to exactly ``path``.
    """
    fmt = fmt or detect_trace_format(path)
    with _obs.span("trace_io.save", fmt=fmt) if _obs.enabled else _obs.NOOP_SPAN:
        if fmt in ("csv", "csv.gz"):
            save_trace_csv(trace, path, gz=fmt.endswith(".gz"))
        elif fmt in ("jsonl", "jsonl.gz"):
            save_trace_jsonl(trace, path, gz=fmt.endswith(".gz"))
        elif fmt == "npz":
            save_trace_npz(trace, path)
        else:
            raise TraceError(f"unknown trace format {fmt!r}")


def load_trace(
    path: str | Path, fmt: str | None = None, mmap: bool = False
) -> Trace:
    """Read a trace in the format implied by ``path`` (or ``fmt``).

    ``mmap`` applies to the ``npz`` format only (text formats always
    parse row by row).  An explicit ``fmt`` wins over the path suffix.
    """
    fmt = fmt or detect_trace_format(path)
    with _obs.span("trace_io.load", fmt=fmt) if _obs.enabled else _obs.NOOP_SPAN:
        if fmt in ("csv", "csv.gz"):
            return load_trace_csv(path, gz=fmt.endswith(".gz"))
        if fmt in ("jsonl", "jsonl.gz"):
            return load_trace_jsonl(path, gz=fmt.endswith(".gz"))
        if fmt == "npz":
            return load_trace_npz(path, mmap=mmap)
        raise TraceError(f"unknown trace format {fmt!r}")


# ----------------------------------------------------------------------
# text formats (CSV / JSONL, optionally gzipped)
# ----------------------------------------------------------------------


def save_trace_csv(
    trace: Trace, path: str | Path, gz: bool | None = None
) -> None:
    """Write a trace as ``time,server`` rows with an ``n`` header.

    A ``.csv.gz`` path is gzip-compressed transparently (or force
    compression with ``gz``).
    """
    path = Path(path)
    times = trace.times.tolist()
    servers = trace.servers.tolist()
    with _open_text(path, "w", gz) as fh:
        writer = csv.writer(fh)
        writer.writerow(["# n", trace.n])
        writer.writerow(["time", "server"])
        writer.writerows(
            (repr(times[i]), servers[i]) for i in range(len(times))
        )


def load_trace_csv(path: str | Path, gz: bool | None = None) -> Trace:
    """Read a trace written by :func:`save_trace_csv` (plain or ``.gz``)."""
    path = Path(path)
    with _open_text(path, "r", gz) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "# n":
            raise TraceError(f"{path}: missing '# n' header row")
        n = int(header[1])
        cols = next(reader, None)
        if cols != ["time", "server"]:
            raise TraceError(f"{path}: expected 'time,server' column row")
        times: list[float] = []
        servers: list[int] = []
        for t, s in reader:
            times.append(float(t))
            servers.append(int(s))
    return Trace.from_arrays(
        np.asarray(times, dtype=np.float64),
        np.asarray(servers, dtype=np.int64),
        n=n,
    )


def save_trace_jsonl(
    trace: Trace, path: str | Path, gz: bool | None = None
) -> None:
    """Write one JSON object per request plus a metadata first line.

    A ``.jsonl.gz`` path is gzip-compressed transparently (or force
    compression with ``gz``).
    """
    path = Path(path)
    times = trace.times.tolist()
    servers = trace.servers.tolist()
    with _open_text(path, "w", gz) as fh:
        fh.write(json.dumps({"kind": "trace-meta", "n": trace.n}) + "\n")
        for i in range(len(times)):
            fh.write(
                json.dumps(
                    {"time": times[i], "server": servers[i], "index": i + 1}
                )
                + "\n"
            )


def load_trace_jsonl(path: str | Path, gz: bool | None = None) -> Trace:
    """Read a trace written by :func:`save_trace_jsonl` (plain or ``.gz``)."""
    path = Path(path)
    with _open_text(path, "r", gz) as fh:
        meta_line = fh.readline()
        if not meta_line:
            raise TraceError(f"{path}: empty file")
        meta = json.loads(meta_line)
        if meta.get("kind") != "trace-meta":
            raise TraceError(f"{path}: first line must be trace-meta")
        times: list[float] = []
        servers: list[int] = []
        for line in fh:
            rec = json.loads(line)
            times.append(float(rec["time"]))
            servers.append(int(rec["server"]))
    return Trace.from_arrays(
        np.asarray(times, dtype=np.float64),
        np.asarray(servers, dtype=np.int64),
        n=int(meta["n"]),
    )


# ----------------------------------------------------------------------
# binary columnar format (.npz)
# ----------------------------------------------------------------------


def save_trace_npz(trace: Trace, path: str | Path) -> None:
    """Write a trace as an uncompressed ``.npz`` with columnar arrays.

    Members: ``times`` (float64), ``servers`` (int64), ``n`` (int64
    scalar).  Uncompressed storage is what makes the ``mmap=True`` load
    path possible — the raw column bytes live contiguously in the file.
    """
    path = Path(path)
    # write through a file object: np.savez given a *filename* appends
    # '.npz' when the suffix is missing, which would break fmt overrides
    with _obs.span("trace_io.save_npz", m=len(trace)) if _obs.enabled \
            else _obs.NOOP_SPAN:
        with path.open("wb") as fh:
            np.savez(
                fh,
                times=np.asarray(trace.times, dtype=np.float64),
                servers=np.asarray(trace.servers, dtype=np.int64),
                n=np.int64(trace.n),
            )
    if _obs.enabled:
        _obs.counter("repro_trace_io_files_total", op="save", fmt="npz").inc()
        _obs.counter("repro_trace_io_bytes_total", op="save").inc(
            path.stat().st_size
        )
    _log.debug(
        "trace saved", **kv(fmt="npz", m=len(trace), path=str(path))
    )


def _npz_column_mmaps(path: Path) -> dict[str, np.ndarray] | None:
    """Memory-map every array member of an uncompressed ``.npz``.

    Returns None when the file cannot be mapped (compressed members,
    unsupported npy headers) — callers fall back to a copying load.
    The zip local-file headers are parsed directly so each member's
    array data offset within the single file is known exactly; the
    returned arrays are read-only ``np.memmap`` views sharing the OS
    page cache across processes.
    """
    out: dict[str, np.ndarray] = {}
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            for info in zf.infolist():
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                fh.seek(info.header_offset)
                local = fh.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    return None
                name_len, extra_len = struct.unpack("<HH", local[26:30])
                fh.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                if shape == ():
                    # 0-d scalars (the n member) are tiny: plain read
                    out[name] = np.fromfile(fh, dtype=dtype, count=1).reshape(())
                else:
                    out[name] = np.memmap(
                        path, dtype=dtype, mode="r", offset=fh.tell(), shape=shape
                    )
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    return out


def load_trace_npz(
    path: str | Path, mmap: bool = False, validate: bool = True
) -> Trace:
    """Read a trace written by :func:`save_trace_npz`.

    With ``mmap=True`` the ``times`` / ``servers`` columns are
    memory-mapped read-only straight off disk and adopted by the trace
    without copying: construction is O(1) in the trace length, pages are
    faulted in on first touch, and every process mapping the same file
    shares one physical copy.  Falls back to a regular load when the
    file cannot be mapped.  ``validate=False`` skips the invariant scan
    for trusted files (it would fault in every page).
    """
    path = Path(path)
    if _obs.enabled:
        _obs.counter(
            "repro_trace_io_files_total", op="load", fmt="npz", mmap=bool(mmap)
        ).inc()
        _obs.counter("repro_trace_io_bytes_total", op="load").inc(
            path.stat().st_size
        )
        sp = _obs.span("trace_io.load_npz", mmap=bool(mmap))
    else:
        sp = _obs.NOOP_SPAN
    with sp:
        trace = _load_trace_npz(path, mmap, validate)
    _log.debug(
        "trace loaded", **kv(fmt="npz", m=len(trace), mmap=bool(mmap))
    )
    return trace


def _load_trace_npz(path: Path, mmap: bool, validate: bool) -> Trace:
    if mmap:
        members = _npz_column_mmaps(path)
        if members is not None:
            try:
                times = members["times"]
                servers = members["servers"]
                n = int(members["n"])
            except KeyError as exc:
                raise TraceError(
                    f"{path}: not a trace .npz (missing member {exc.args[0]!r})"
                ) from None
            return Trace.from_arrays(times, servers, n=n, validate=validate)
    try:
        z = np.load(path)
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise TraceError(f"{path}: not a valid .npz file ({exc})") from None
    if not hasattr(z, "files"):  # a bare .npy, not an archive
        raise TraceError(f"{path}: not a trace .npz archive")
    with z:
        try:
            times = z["times"]
            servers = z["servers"]
            n = int(z["n"])
        except KeyError as exc:
            raise TraceError(
                f"{path}: not a trace .npz (missing member {exc.args[0]!r})"
            ) from None
    return Trace.from_arrays(times, servers, n=n, validate=validate)


# ----------------------------------------------------------------------
# access-log ingestion
# ----------------------------------------------------------------------


def load_access_log_csv(
    path: str | Path,
    n: int,
    read_ops: Iterable[str] = ("REST.GET.OBJECT", "GET", "read"),
    time_unit: float = 1e-3,
    zipf_exponent: float = 1.0,
    seed: int = 0,
    delimiter: str = " ",
    min_requests: int = 2,
) -> dict[str, Trace]:
    """Parse an IBM-style object-storage access log into per-object traces.

    Expected row layout (whitespace- or ``delimiter``-separated):
    ``timestamp operation object_id [extra columns ignored]``.  Rows whose
    operation is not in ``read_ops`` are dropped (the paper filters out
    writes).  Each object's requests are distributed over ``n`` servers by
    the paper's Zipf rule, mirroring Appendix J.1.

    Per-object post-processing (sort, anchor shift, timestamp-collision
    nudge, server assignment) is fully vectorized; only the line parsing
    itself is per-row.

    Parameters
    ----------
    time_unit:
        Multiplier converting log timestamps to seconds (IBM logs are in
        milliseconds, hence the 1e-3 default).
    min_requests:
        Objects with fewer read requests are skipped.
    """
    path = Path(path)
    read_ops = set(read_ops)
    per_object: dict[str, list[float]] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split(delimiter) if delimiter != " " else raw.split()
            if len(parts) < 3:
                raise TraceError(
                    f"{path}:{lineno}: expected >= 3 columns, got {len(parts)}"
                )
            ts, op, obj = parts[0], parts[1], parts[2]
            if op not in read_ops:
                continue
            try:
                t = float(ts) * time_unit
            except ValueError:
                raise TraceError(
                    f"{path}:{lineno}: timestamp {ts!r} is not a number"
                ) from None
            per_object.setdefault(obj, []).append(t)

    rng = np.random.default_rng(seed)
    probs = zipf_server_probabilities(n, zipf_exponent)
    out: dict[str, Trace] = {}
    for obj, raw_times in per_object.items():
        if len(raw_times) < min_requests:
            continue
        times = np.sort(np.asarray(raw_times, dtype=np.float64))
        # anchor at 1s so time 0 stays the dummy's, then nudge collisions
        # forward (strictly increasing times, the paper's assumption)
        shifted = dedupe_times(times - times[0] + 1.0, min_sep=1e-6)
        servers = rng.choice(n, size=len(shifted), p=probs)
        out[obj] = Trace.from_arrays(shifted, servers, n=n)
    return out
