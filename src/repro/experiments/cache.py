"""Content-addressed on-disk result cache for experiment runs.

Every cacheable unit of work (one simulation cell, one offline-optimal
computation) is identified by a *key payload*: a JSON-serialisable
mapping of everything the result depends on — the trace content digest,
the cost-model and policy parameters, the scenario version, and the
global :data:`CACHE_VERSION`.  The payload is canonicalised and hashed
with SHA-256 into the entry's id.

Because the trace *content* (not its generator's name) is part of the
key, editing a workload generator automatically invalidates the affected
entries.  Changes to policy code are not content-hashed; bump the
scenario's ``version`` (or :data:`CACHE_VERSION` for package-wide
changes) to invalidate.

Layout: append-only JSON-lines *segments*, one per writer.  Each
:class:`ResultCache` appends one line ``{"id": <content key>, "key":
<payload>, "value": <value>}`` per :meth:`~ResultCache.put` to its own
segment ``<root>/<pid>-<random token>.jsonl``, created by its first put
(a forked child that puts gets a segment of its own).  Each line is one
``os.write`` on an ``O_APPEND`` descriptor, so an interrupted grid
keeps every cell it completed, and concurrent runs on one root never
write the same file.  Entries of the older one-file-per-entry layout
(``<root>/<key[:2]>/<key>.json``) are not read.

Reads go through an in-memory id -> value index.  A line that is torn
(no trailing newline), does not parse, or does not hold an object value
counts as no entry; of the lines for one id, the last wins, reading the
segments least recently modified first (equal times in name order).  An instance loads the index
from every segment at its first lookup (``get``, ``contains``,
``len()`` or ``put``) and then adds its own puts: it sees the entries
on disk at its first lookup plus its own puts.  Another process's later
appends can cost a recomputation, never a wrong value.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

from ..core.trace import Trace
from ..obs import metrics as _obs

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "NullCache",
    "content_key",
    "trace_digest",
]

#: bump to invalidate every existing cache entry (e.g. after a change to
#: the simulator or the offline solver)
CACHE_VERSION = 1


def content_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: server count plus every request."""
    h = hashlib.sha256()
    h.update(str(trace.n).encode())
    h.update(trace.times.tobytes())
    h.update(trace.servers.tobytes())
    return h.hexdigest()


def _segments(root: Path) -> list[Path]:
    """The segments under ``root``, least recently modified first."""
    stamped = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    for name in names:
        if name.endswith(".jsonl"):
            path = root / name
            try:
                stamped.append((path.stat().st_mtime_ns, name, path))
            except FileNotFoundError:  # removed by a concurrent clear()
                pass
    return [path for _, _, path in sorted(stamped)]


def _load(root: Path) -> dict[str, dict[str, Any]]:
    """The id -> value index of every segment under ``root``."""
    index: dict[str, dict[str, Any]] = {}
    for path in _segments(root):
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            continue
        # the piece after the last newline is empty or a torn line
        for line in data.split(b"\n")[:-1]:
            try:
                entry = json.loads(line)
                key, value = entry["id"], entry["value"]
            except (ValueError, TypeError, KeyError):
                continue
            if isinstance(key, str) and isinstance(value, dict):
                index[key] = value
    return index


class ResultCache:
    """Disk-backed key/value store for experiment results.

    Values are small JSON objects (costs, not full simulation logs).
    ``hits`` / ``misses`` counters make cache behaviour observable in
    tests and progress reports.  See the module docstring for the
    segment layout and which entries an instance sees.
    """

    def __init__(self, root: str | os.PathLike[str], version: int = CACHE_VERSION):
        self.root = Path(root)
        self.version = int(version)
        self.hits = 0
        self.misses = 0
        self._index: dict[str, dict[str, Any]] | None = None
        # (pid of the writing process, its segment)
        self._segment: tuple[int, Path] | None = None

    # ------------------------------------------------------------------
    def _key(self, payload: Mapping[str, Any]) -> str:
        return content_key({**payload, "cache_version": self.version})

    def _entries(self) -> dict[str, dict[str, Any]]:
        """The id -> value index, loaded from disk on first use."""
        if self._index is None:
            self._index = _load(self.root)
        return self._index

    def _segment_path(self) -> Path:
        """The segment this process appends to."""
        pid = os.getpid()
        if self._segment is None or self._segment[0] != pid:
            self.root.mkdir(parents=True, exist_ok=True)
            name = f"{pid}-{os.urandom(6).hex()}.jsonl"
            self._segment = (pid, self.root / name)
        return self._segment[1]

    # ------------------------------------------------------------------
    def get(self, payload: Mapping[str, Any]) -> dict[str, Any] | None:
        """Return a fresh copy of the stored value for ``payload``, or
        None on a miss (an unreadable line is no entry, so the caller
        recomputes it and :meth:`put` supersedes it)."""
        value = self._entries().get(self._key(payload))
        if value is None:
            self.misses += 1
            if _obs.enabled:
                _obs.counter("repro_cache_requests_total", outcome="miss").inc()
            return None
        self.hits += 1
        if _obs.enabled:
            _obs.counter("repro_cache_requests_total", outcome="hit").inc()
        return dict(value)

    def put(self, payload: Mapping[str, Any], value: Mapping[str, Any]) -> str:
        """Append ``value`` under ``payload``'s key; returns the key."""
        key = self._key(payload)
        index = self._entries()
        line = json.dumps(
            {"id": key, "key": dict(payload), "value": dict(value)}, default=str
        ) + "\n"
        data = line.encode("utf-8")
        fd = os.open(
            self._segment_path(), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"short write to the result cache under {self.root}")
        # the value as a reader of the line sees it
        index[key] = json.loads(line)["value"]
        if _obs.enabled:
            _obs.counter("repro_cache_writes_total").inc()
        return key

    def contains(self, payload: Mapping[str, Any]) -> bool:
        """Whether :meth:`get` would hit (the counters do not move)."""
        return self._key(payload) in self._entries()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of entries :meth:`get` can read."""
        return len(self._entries())

    def clear(self) -> int:
        """Delete every segment; returns the number of entries removed."""
        removed = len(_load(self.root))
        for path in _segments(self.root):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._index = None
        return removed


class NullCache:
    """Cache stand-in that never stores anything (``--no-cache``)."""

    hits = 0
    misses = 0

    def get(self, payload: Mapping[str, Any]) -> None:
        return None

    def put(self, payload: Mapping[str, Any], value: Mapping[str, Any]) -> str:
        return ""

    def contains(self, payload: Mapping[str, Any]) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
