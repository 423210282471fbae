"""Request traces for the data replication problem.

A :class:`Trace` is the fundamental input to every algorithm in this
package: a time-ordered sequence of data-access requests, each arising at
one of ``n`` servers.  Following the paper's conventions (Section 2):

* all request times are strictly increasing,
* server ``0`` initially holds the only data copy,
* a *dummy request* ``r_0`` arises at server ``0`` at time ``0``; it incurs
  no service cost but anchors the initial copy's prediction.

The dummy request is **not** stored in :attr:`Trace.requests`; it is
implicit and exposed through helpers such as :meth:`Trace.with_dummy`.

Columnar storage
----------------
A trace is a structure-of-arrays: the primary storage is two parallel
NumPy columns, ``times`` (float64) and ``servers`` (int64), validated
with vectorized operations at construction.  :class:`Request` dataclass
objects are materialised **lazily** — only when a caller indexes,
iterates, or touches :attr:`Trace.requests` — so array-native producers
(the workload generators, the binary trace loader) and array-native
consumers (the kernel engine, prediction streams, the offline DP)
never pay O(m) Python object churn.  :meth:`Trace.from_arrays` is the
zero-copy fast path: a contiguous float64/int64 input array is adopted
as-is (as a read-only view) rather than copied, which is what makes
memory-mapped traces shared across worker processes practical.

Callers that hand arrays to :meth:`from_arrays` must not mutate them
afterwards; the trace takes a read-only *view*, not a defensive copy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Request",
    "Trace",
    "TraceError",
    "merge_traces",
]


class TraceError(ValueError):
    """Raised when a request sequence violates the problem's assumptions."""


@dataclass(frozen=True, slots=True)
class Request:
    """A single data-access request.

    Attributes
    ----------
    time:
        Arrival time ``t_i`` (seconds, or any consistent time unit).
    server:
        Index of the server ``s[r_i]`` at which the request arises,
        ``0 <= server < n``.
    index:
        Position of the request in the global sequence (1-based, matching
        the paper's ``r_1, r_2, ...``; the dummy request is index 0).
    """

    time: float
    server: int
    index: int = -1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise TraceError(f"request time must be >= 0, got {self.time}")
        if self.server < 0:
            raise TraceError(f"server index must be >= 0, got {self.server}")


def _columns_from_requests(
    requests: Iterable["Request | tuple[float, int]"],
) -> tuple[np.ndarray, np.ndarray]:
    """Convert the legacy request-sequence input to (times, servers)."""
    items = list(requests)
    if not items:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    times = np.empty(len(items), dtype=np.float64)
    servers = np.empty(len(items), dtype=np.int64)
    for i, r in enumerate(items):
        if isinstance(r, Request):
            times[i] = r.time
            servers[i] = r.server
        else:
            t, s = r
            times[i] = float(t)
            servers[i] = int(s)
    return times, servers


def _rebuild(n: int, times: np.ndarray, servers: np.ndarray) -> "Trace":
    """Pickle reconstructor (arrays were validated before pickling)."""
    return Trace._from_columns(n, times, servers, validate=False)


class Trace:
    """An immutable, validated request sequence over ``n`` servers.

    Parameters
    ----------
    n:
        Number of servers in the system.
    requests:
        The requests ``r_1, ..., r_m`` in strictly increasing time order,
        as :class:`Request` objects or ``(time, server)`` tuples.  The
        dummy request ``r_0`` (server 0, time 0) is implicit.  Array
        producers should prefer :meth:`from_arrays`, which skips this
        per-item conversion entirely.

    Notes
    -----
    Construction validates the paper's assumptions with vectorized
    checks: strictly increasing arrival times, all strictly positive
    (the dummy request occupies time 0), and all server indices within
    range.
    """

    __slots__ = ("n", "_times", "_servers", "_requests", "_hash")

    def __init__(self, n: int, requests: Iterable[Request | tuple[float, int]] = ()):
        times, servers = _columns_from_requests(requests)
        self._init_columns(int(n), times, servers, validate=True)

    # ------------------------------------------------------------------
    # columnar construction core
    # ------------------------------------------------------------------
    def _init_columns(
        self, n: int, times: np.ndarray, servers: np.ndarray, validate: bool
    ) -> None:
        if n <= 0:
            raise TraceError(f"need at least one server, got n={n}")
        if validate:
            _validate_columns(n, times, servers)
        tv = times.view()
        tv.flags.writeable = False
        sv = servers.view()
        sv.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_times", tv)
        object.__setattr__(self, "_servers", sv)
        object.__setattr__(self, "_requests", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"Trace is immutable (cannot set {name!r})"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"Trace is immutable (cannot delete {name!r})"
        )

    @classmethod
    def _from_columns(
        cls, n: int, times: np.ndarray, servers: np.ndarray, validate: bool = True
    ) -> "Trace":
        """Adopt validated float64/int64 columns without conversion."""
        obj = object.__new__(cls)
        obj._init_columns(int(n), times, servers, validate)
        return obj

    @staticmethod
    def from_arrays(
        times: Sequence[float] | np.ndarray,
        servers: Sequence[int] | np.ndarray,
        n: int | None = None,
        validate: bool = True,
    ) -> "Trace":
        """Build a trace from parallel arrays of times and server indices.

        This is the zero-copy fast path: a C-contiguous float64 ``times``
        / int64 ``servers`` pair is adopted as-is (the trace keeps a
        read-only view; the caller must not mutate the arrays
        afterwards).  Other dtypes and plain sequences are converted.
        ``validate=False`` skips the vectorized invariant checks for
        inputs that are known-good by construction (e.g. a slice of an
        already-validated trace, or a trusted binary file).
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        servers = np.ascontiguousarray(servers, dtype=np.int64)
        if times.shape != servers.shape:
            raise TraceError(
                f"times and servers must align, got {times.shape} vs {servers.shape}"
            )
        if times.ndim != 1:
            raise TraceError(f"expected 1-d columns, got shape {times.shape}")
        if n is None:
            n = int(servers.max(initial=-1)) + 1 if servers.size else 1
        return Trace._from_columns(int(n), times, servers, validate=validate)

    # ------------------------------------------------------------------
    # pickling (drops the lazy Request cache; columns round-trip)
    # ------------------------------------------------------------------
    def __reduce__(self):
        # np.array(): detach from memory-maps and shared buffers so the
        # pickle is self-contained
        return (_rebuild, (self.n, np.array(self._times), np.array(self._servers)))

    # ------------------------------------------------------------------
    # equality / hashing (content-based, array-native)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._servers, other._servers)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self._times.tobytes(), self._servers.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Trace(n={self.n}, m={len(self._times)}, span={self.span:g})"

    # ------------------------------------------------------------------
    # basic container protocol (Requests materialise lazily)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Request]:
        if self._requests is not None:
            return iter(self._requests)
        return self._iter_lazy()

    def _iter_lazy(self) -> Iterator[Request]:
        times = self._times.tolist()
        servers = self._servers.tolist()
        for i in range(len(times)):
            yield Request(times[i], servers[i], i + 1)

    def __getitem__(self, i: int | slice) -> Request | tuple[Request, ...]:
        if self._requests is not None:
            return self._requests[i]
        m = len(self._times)
        if isinstance(i, slice):
            # materialise only the sliced Requests (no full-tuple cache):
            # a small window of a huge mmap-backed trace stays O(slice)
            return tuple(
                Request(float(self._times[j]), int(self._servers[j]), j + 1)
                for j in range(*i.indices(m))
            )
        idx = operator.index(i)
        if idx < 0:
            idx += m
        if not 0 <= idx < m:
            raise IndexError("trace index out of range")
        return Request(float(self._times[idx]), int(self._servers[idx]), idx + 1)

    @property
    def requests(self) -> tuple[Request, ...]:
        """The requests as :class:`Request` objects (materialised lazily
        on first access and cached)."""
        req = self._requests
        if req is None:
            times = self._times.tolist()
            servers = self._servers.tolist()
            req = tuple(
                Request(times[i], servers[i], i + 1) for i in range(len(times))
            )
            object.__setattr__(self, "_requests", req)
        return req

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Arrival times as a float array (read-only, zero-copy)."""
        return self._times

    @property
    def servers(self) -> np.ndarray:
        """Server indices as an int array (read-only, zero-copy)."""
        return self._servers

    @property
    def span(self) -> float:
        """Time of the final request ``t_m`` (0 for an empty trace)."""
        return float(self._times[-1]) if len(self._times) else 0.0

    @property
    def servers_touched(self) -> tuple[int, ...]:
        """Sorted indices of servers that receive at least one request."""
        return tuple(int(s) for s in np.unique(self._servers))

    def with_dummy(self) -> tuple[Request, ...]:
        """The sequence including the implicit dummy request ``r_0``."""
        return (Request(0.0, 0, 0),) + self.requests

    def per_server_times(self) -> dict[int, np.ndarray]:
        """Map each server to the sorted arrival times of its requests.

        Server 0's list is prefixed with the dummy request time ``0.0``,
        matching the paper's convention that ``r_0`` arises at ``s_1``.
        Built with one stable sort over the server column; no Request
        objects are materialised.
        """
        order = np.argsort(self._servers, kind="stable")
        sorted_servers = self._servers[order]
        sorted_times = self._times[order]
        bounds = np.searchsorted(sorted_servers, np.arange(self.n + 1))
        out: dict[int, np.ndarray] = {}
        for s in range(self.n):
            ts = sorted_times[bounds[s] : bounds[s + 1]]
            if s == 0:
                ts = np.concatenate(([0.0], ts))
            out[s] = ts
        return out

    def preceding_local_index(self) -> list[int]:
        """For each request ``r_i``, the global index of ``r_{p(i)}``.

        Returns a list ``p`` of length ``m`` where ``p[i-1]`` is the
        1-based global index of the preceding request at the same server,
        ``0`` if the predecessor is the dummy request (server 0 only), and
        ``-1`` if the request is the first ever at its server.
        """
        m = len(self._times)
        sd = np.concatenate(([0], self._servers))
        order = np.argsort(sd, kind="stable")
        prev = np.full(m + 1, -1, dtype=np.int64)
        same = sd[order][1:] == sd[order][:-1]
        prev[order[1:][same]] = order[:-1][same]
        return prev[1:].tolist()

    def inter_request_gaps(self) -> np.ndarray:
        """Per-request gap ``t_i - t_{p(i)}``; ``inf`` for first requests.

        The dummy request at time 0 counts as the predecessor for server 0.
        Vectorized: one stable sort over the server column.
        """
        m = len(self._times)
        td = np.concatenate(([0.0], self._times))
        sd = np.concatenate(([0], self._servers))
        order = np.argsort(sd, kind="stable")
        gaps = np.full(m + 1, np.inf)
        same = sd[order][1:] == sd[order][:-1]
        cur = order[1:][same]
        gaps[cur] = td[cur] - td[order[:-1][same]]
        return gaps[1:]

    def next_local_time(self) -> np.ndarray:
        """For each request, the arrival time of the next request at the
        same server (``inf`` if none).  Index 0 of the returned array
        corresponds to the dummy request ``r_0``."""
        m1 = len(self._times) + 1
        sd = np.concatenate(([0], self._servers))
        td = np.concatenate(([0.0], self._times))
        # stable sort by server keeps arrival order within each server, so
        # consecutive equal-server positions are local successors
        order = sd.argsort(kind="stable")
        s_sorted = sd[order]
        nxt = np.full(m1, np.inf)
        same = s_sorted[1:] == s_sorted[:-1]
        nxt[order[:-1][same]] = td[order[1:][same]]
        return nxt

    def slice_time(self, t_start: float, t_end: float) -> "Trace":
        """Sub-trace of requests with ``t_start < t <= t_end``.

        Times are **not** shifted; the result is useful for inspecting
        windows of a longer trace.  The slice shares this trace's column
        storage (zero-copy views).
        """
        lo = int(np.searchsorted(self._times, t_start, side="right"))
        hi = int(np.searchsorted(self._times, t_end, side="right"))
        return Trace._from_columns(
            self.n, self._times[lo:hi], self._servers[lo:hi], validate=False
        )

    def request_at_or_after(self, t: float) -> Request | None:
        """First request with arrival time ``>= t`` (None if past the end)."""
        i = int(np.searchsorted(self._times, t, side="left"))
        return self[i] if i < len(self._times) else None

    def count_in_window(self, server: int, t_start: float, t_end: float) -> int:
        """Number of requests at ``server`` with ``t_start < t <= t_end``."""
        return int(
            np.count_nonzero(
                (self._servers == server)
                & (self._times > t_start)
                & (self._times <= t_end)
            )
        )

    def summary(self) -> dict[str, float]:
        """Aggregate statistics used in reports and sanity checks."""
        gaps = self.inter_request_gaps()
        finite = gaps[np.isfinite(gaps)]
        return {
            "n_servers": float(self.n),
            "n_requests": float(len(self._times)),
            "span": self.span,
            "mean_local_gap": float(np.mean(finite)) if finite.size else float("nan"),
            "median_local_gap": (
                float(np.median(finite)) if finite.size else float("nan")
            ),
            "servers_touched": float(len(self.servers_touched)),
        }


def _validate_columns(n: int, times: np.ndarray, servers: np.ndarray) -> None:
    """Vectorized invariant checks (finite, strictly increasing > 0,
    servers in range), with first-violation error messages."""
    if times.shape != servers.shape:
        raise TraceError(
            f"times and servers must align, got {times.shape} vs {servers.shape}"
        )
    m = times.shape[0]
    if m == 0:
        return
    prevs = np.empty_like(times)
    prevs[0] = 0.0
    prevs[1:] = times[:-1]
    # NaN compares False both ways, so the order check alone misses it
    bad_f = ~np.isfinite(times)
    bad_t = times <= prevs
    bad_s = (servers < 0) | (servers >= n)
    bad = bad_f | bad_t | bad_s
    if bad.any():
        k = int(np.argmax(bad))
        if bad_f[k]:
            raise TraceError(
                f"request times must be finite (violation at index {k + 1}: "
                f"{times[k]})"
            )
        if bad_t[k]:
            raise TraceError(
                "request times must be strictly increasing and > 0 "
                f"(violation at index {k + 1}: {times[k]} <= {prevs[k]})"
            )
        if servers[k] < 0:
            raise TraceError(f"server index must be >= 0, got {servers[k]}")
        raise TraceError(f"request {k + 1} at server {servers[k]} but n={n}")


def merge_traces(traces: Iterable[Trace], n: int | None = None) -> Trace:
    """Merge several traces into one global time-ordered trace.

    Requests keep their server indices; a collision of identical arrival
    times raises :class:`TraceError` (the paper assumes distinct times).
    Stays in column space: one concatenation plus one lexsort.
    """
    traces = list(traces)
    max_n = 0
    for tr in traces:
        max_n = max(max_n, tr.n)
    if not traces:
        return Trace(n if n is not None else max_n, [])
    times = np.concatenate([tr.times for tr in traces])
    servers = np.concatenate([tr.servers for tr in traces])
    # (time, server) lexicographic order, matching a tuple sort; ties in
    # time are then rejected by validation
    order = np.lexsort((servers, times))
    return Trace.from_arrays(
        times[order], servers[order], n=n if n is not None else max_n
    )
