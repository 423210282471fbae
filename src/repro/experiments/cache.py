"""Content-addressed on-disk result cache for experiment runs.

Every cacheable unit of work (one simulation cell, one offline-optimal
computation) is identified by a *key payload*: a JSON-serialisable
mapping of everything the result depends on — the trace content digest,
the cost-model and policy parameters, the scenario version, and the
global :data:`CACHE_VERSION`.  The payload is canonicalised, hashed with
SHA-256, and the result stored at ``<root>/<key[:2]>/<key>.json``.

Because the trace *content* (not its generator's name) is part of the
key, editing a workload generator automatically invalidates the affected
entries.  Changes to policy code are not content-hashed; bump the
scenario's ``version`` (or :data:`CACHE_VERSION` for package-wide
changes) to invalidate.

Writes are atomic (temp file + ``os.replace``), so an interrupted grid
leaves only whole entries behind and the next run resumes from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
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


class ResultCache:
    """Disk-backed key/value store for experiment results.

    Values are small JSON objects (costs, not full simulation logs).
    ``hits`` / ``misses`` counters make cache behaviour observable in
    tests and progress reports.
    """

    def __init__(self, root: str | os.PathLike[str], version: int = CACHE_VERSION):
        self.root = Path(root)
        self.version = int(version)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _key(self, payload: Mapping[str, Any]) -> str:
        return content_key({**payload, "cache_version": self.version})

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: Path) -> dict[str, Any] | None:
        """The value stored at ``path``, or None when there is no entry.

        An unreadable entry — truncated JSON, or a file whose content is
        not a ``{"value": {...}}`` object — counts as no entry, so
        :meth:`get`, :meth:`contains` and ``len()`` agree on it.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                value = json.load(fh)["value"]
        except (OSError, ValueError, TypeError, KeyError):
            return None
        return value if isinstance(value, dict) else None

    def get(self, payload: Mapping[str, Any]) -> dict[str, Any] | None:
        """Return the stored value for ``payload``, or None on a miss.

        An unreadable entry is a miss too (see :meth:`_read`), so the
        caller recomputes it and :meth:`put` overwrites it.
        """
        value = self._read(self._path(self._key(payload)))
        if value is None:
            self.misses += 1
            if _obs.enabled:
                _obs.counter("repro_cache_requests_total", outcome="miss").inc()
            return None
        self.hits += 1
        if _obs.enabled:
            _obs.counter("repro_cache_requests_total", outcome="hit").inc()
        return value

    def put(self, payload: Mapping[str, Any], value: Mapping[str, Any]) -> str:
        """Store ``value`` under ``payload``'s key; returns the key."""
        key = self._key(payload)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": dict(payload), "value": dict(value)}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, default=str)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if _obs.enabled:
            _obs.counter("repro_cache_writes_total").inc()
        return key

    def contains(self, payload: Mapping[str, Any]) -> bool:
        """Whether :meth:`get` would hit (the counters do not move)."""
        return self._read(self._path(self._key(payload))) is not None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of entries :meth:`get` can read."""
        if not self.root.exists():
            return 0
        return sum(
            1 for p in self.root.glob("*/*.json") if self._read(p) is not None
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
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
