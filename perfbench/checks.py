"""Output checks behind ``failed``/``attempted`` and ``failed_frac``.

A cell (grid cell or fleet object) passes when its online cost is
finite and at least the offline optimum, when an Algorithm-1 cell with
``alpha > 0`` stays within the paper's robustness bound ``1 + 1/alpha``,
when every pass of a run reproduces the first pass's cost bit for bit,
and when a seeded sample of cells, re-run through the reference
simulator, reproduces the same cost bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: tolerance of the cost >= OPT check (the DP and the replays sum in
#: different orders)
OPT_RTOL = 1e-9


@dataclass(frozen=True)
class Cell:
    """One evaluated unit of a pass: its identity and its costs."""

    key: tuple
    online: float
    optimal: float
    bound: float | None     # robustness bound on online/optimal, if any
    requests: int


def cell_ok(cell: Cell) -> bool:
    """Range checks on one cell's costs."""
    if not (math.isfinite(cell.online) and math.isfinite(cell.optimal)):
        return False
    if cell.optimal <= 0 or cell.online < cell.optimal * (1 - OPT_RTOL):
        return False
    return cell.bound is None or cell.online / cell.optimal <= cell.bound


@dataclass
class CheckResult:
    attempted: int
    failed: int
    reasons: list[str]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_passes(
    passes: list[list[Cell] | None],
    expected: int,
    reference: dict[tuple, float],
) -> CheckResult:
    """Count failed cells over every pass of a run.

    ``passes`` holds each pass's cells in a fixed order, or None for a
    pass that raised (all ``expected`` of its cells count as failed).
    ``reference`` maps sampled cell keys to their reference-simulator
    costs; a cell whose cost differs from it fails in every pass.
    """
    attempted = failed = 0
    reasons: list[str] = []
    baseline = next((p for p in passes if p is not None), None)
    for k, cells in enumerate(passes):
        attempted += expected
        if cells is None:
            failed += expected
            reasons.append(f"pass {k} raised")
            continue
        if len(cells) != expected:
            failed += expected
            reasons.append(f"pass {k}: {len(cells)} cells, expected {expected}")
            continue
        for cell, first in zip(cells, baseline):
            why = None
            if not cell_ok(cell):
                why = "out of range"
            elif cell.key != first.key or cell.online != first.online:
                why = "differs from pass 0"
            elif cell.key in reference and reference[cell.key] != cell.online:
                why = f"reference cost {reference[cell.key]!r}"
            if why is not None:
                failed += 1
                if len(reasons) < 20:
                    reasons.append(
                        f"pass {k} cell {cell.key}: online {cell.online!r} "
                        f"opt {cell.optimal!r}: {why}"
                    )
    return CheckResult(attempted=attempted, failed=failed, reasons=reasons)
