"""In-memory spans recorded around calls into the program's layers.

Spans are recorded by the benchmark's own code, from outside the
program: each is a name, start, end, parent and tags.  They stay in
memory and are written out as JSON lines when the traced run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one workload's traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        """Time the body; the yielded tag dict may be filled in by it."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, start=time.perf_counter(), parent=parent, tags=tags)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp.tags
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (total self time, span count)``."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, s in enumerate(self.spans):
            out[s.name][0] += s.duration - child_time[i]
            out[s.name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def children_total(self, parent: Span) -> float:
        idx = self.spans.index(parent)
        return sum(s.duration for s in self.spans if s.parent == idx)

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "parent": s.parent,
                            "workload": self.workload,
                            **({"tags": s.tags} if s.tags else {}),
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Drop-in for :class:`Tracer` in the measured (untraced) run."""

    @contextmanager
    def span(self, name: str, **tags):
        yield tags
