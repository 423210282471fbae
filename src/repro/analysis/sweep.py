"""Parameter-sweep harness reproducing the paper's evaluation grids.

The paper's Appendix J sweeps the hyper-parameter ``alpha``, the transfer
cost ``lambda``, and the prediction accuracy, normalising online costs by
the optimal offline cost.  :func:`sweep_grid` runs that grid for any
algorithm factory and :func:`format_table` renders the rows the paper
plots (one table per ``lambda``, accuracy across columns, ``alpha`` down
rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.costs import CostModel
from ..core.engine import Engine, run_slab
from ..core.policy import ReplicationPolicy
from ..core.trace import Trace
from ..obs import metrics as _obs
from ..offline.dp import optimal_cost
from ..predictions.oracle import NoisyOraclePredictor, OraclePredictor

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_grid",
    "format_table",
    "PAPER_ALPHAS",
    "PAPER_LAMBDAS",
    "PAPER_ACCURACIES",
]

#: the paper's hyper-parameter grid (Appendix J.1); alpha=0 is the
#: full-trust limit, permitted via allow_zero_alpha
PAPER_ALPHAS: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(0, 11))
PAPER_LAMBDAS: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
PAPER_ACCURACIES: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(0, 11))


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: parameters plus the measured cost ratio."""

    lam: float
    alpha: float
    accuracy: float
    online_cost: float
    optimal_cost: float

    @property
    def ratio(self) -> float:
        if self.optimal_cost == 0:
            return float("inf")
        return self.online_cost / self.optimal_cost


@dataclass
class SweepResult:
    """All grid cells of one sweep, with lookup helpers."""

    points: list[SweepPoint] = field(default_factory=list)
    _index: dict[tuple[float, float, float], SweepPoint] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for p in self.points:  # index points passed to the constructor
            self._index.setdefault((p.lam, p.alpha, p.accuracy), p)

    def add(self, p: SweepPoint) -> None:
        self.points.append(p)
        self._index.setdefault((p.lam, p.alpha, p.accuracy), p)

    def at(self, lam: float, alpha: float, accuracy: float) -> SweepPoint:
        """O(1) lookup of one grid cell (tolerant fallback on near-misses)."""
        hit = self._index.get((float(lam), float(alpha), float(accuracy)))
        if hit is not None:
            return hit
        # fallback: inexact query values, or points appended directly
        for p in self.points:
            if (
                np.isclose(p.lam, lam)
                and np.isclose(p.alpha, alpha)
                and np.isclose(p.accuracy, accuracy)
            ):
                return p
        raise KeyError((lam, alpha, accuracy))

    def lambdas(self) -> list[float]:
        return sorted({p.lam for p in self.points})

    def alphas(self) -> list[float]:
        return sorted({p.alpha for p in self.points})

    def accuracies(self) -> list[float]:
        return sorted({p.accuracy for p in self.points})

    def ratios_for_lambda(self, lam: float) -> np.ndarray:
        """Matrix of ratios, shape (len(alphas), len(accuracies))."""
        alphas, accs = self.alphas(), self.accuracies()
        out = np.full((len(alphas), len(accs)), np.nan)
        for p in self.points:
            if np.isclose(p.lam, lam):
                i = alphas.index(p.alpha)
                j = accs.index(p.accuracy)
                out[i, j] = p.ratio
        return out


PolicyFactory = Callable[[Trace, float, float, float, int], ReplicationPolicy]
"""Factory signature: (trace, lam, alpha, accuracy, seed) -> policy.

The trace is provided so oracle-backed predictors can be constructed."""


def algorithm1_factory(
    trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
) -> ReplicationPolicy:
    """Default factory: Algorithm 1 with a noisy-oracle predictor."""
    from ..algorithms.learning_augmented import LearningAugmentedReplication

    if accuracy >= 1.0:
        predictor = OraclePredictor(trace)
    else:
        predictor = NoisyOraclePredictor(trace, accuracy, seed=seed)
    return LearningAugmentedReplication(
        predictor, alpha, allow_zero_alpha=True
    )


def sweep_grid(
    trace: Trace,
    lambdas: Sequence[float],
    alphas: Sequence[float],
    accuracies: Sequence[float],
    factory: PolicyFactory = algorithm1_factory,
    seed: int = 0,
    optimal_cache: dict[float, float] | None = None,
    runner=None,
    engine: str | Engine | None = None,
) -> SweepResult:
    """Run the full (lambda, alpha, accuracy) grid on one trace.

    The optimal offline cost depends only on ``lambda`` and is cached
    across the inner grid.

    ``runner`` may be an :class:`repro.experiments.ExperimentRunner`;
    the grid is then sharded across its worker processes (with on-disk
    caching if the runner has a cache) and yields bit-identical results
    to this serial path.  The default preserves serial execution.

    ``engine`` selects the simulation engine; the default (``None``)
    means ``"auto"`` — each ``(trace, lambda)``'s whole slab of
    ``(alpha, accuracy)`` cells runs as one kernel slab, one loop-free
    multi-row pass per alpha, when the kernel supports the factory's
    policies (grid cells consume only ``total_cost``), per-cell on the
    reference engine otherwise — or, with a ``runner``,
    whatever engine the runner was configured with.  Per-cell results
    are bit-identical across engines; pass ``"reference"`` to force the
    full-telemetry simulator.
    """
    if runner is not None:
        return runner.run_grid(
            trace,
            lambdas,
            alphas,
            accuracies,
            factory=factory,
            seed=seed,
            optimal_cache=optimal_cache,
            engine=engine,
        )
    if engine is None:
        engine = "auto"
    result = SweepResult()
    opt_cache = optimal_cache if optimal_cache is not None else {}
    # one slab per lambda: every (alpha, accuracy) cell shares the trace
    # and cost model, which is exactly the kernel slab's unit of work
    cells = [(alpha, acc, seed) for alpha in alphas for acc in accuracies]
    for lam in lambdas:
        model = CostModel(lam=lam, n=trace.n)
        if lam not in opt_cache:
            opt_cache[lam] = optimal_cost(trace, model)
        opt = opt_cache[lam]
        if _obs.enabled:
            with _obs.span("sweep.slab", lam=lam, cells=len(cells)):
                runs = run_slab(trace, model, cells, factory, engine=engine)
            _obs.counter("repro_sweep_cells_total").inc(len(cells))
        else:
            runs = run_slab(trace, model, cells, factory, engine=engine)
        for (alpha, acc, _), run in zip(cells, runs):
            result.add(
                SweepPoint(
                    lam=lam,
                    alpha=alpha,
                    accuracy=acc,
                    online_cost=run.total_cost,
                    optimal_cost=opt,
                )
            )
    return result


def format_table(
    result: SweepResult,
    lam: float,
    title: str | None = None,
    float_fmt: str = "{:7.3f}",
) -> str:
    """Render one lambda's grid as the text analogue of Figures 25-28:
    rows are ``alpha`` values, columns are prediction accuracies, cells
    are online-to-optimal cost ratios."""
    alphas = result.alphas()
    accs = result.accuracies()
    mat = result.ratios_for_lambda(lam)
    lines = []
    header = title if title is not None else f"lambda = {lam:g}"
    lines.append(header)
    lines.append(
        "alpha\\acc " + " ".join(f"{a:7.0%}" for a in accs)
    )
    for i, alpha in enumerate(alphas):
        row = " ".join(
            float_fmt.format(mat[i, j]) if np.isfinite(mat[i, j]) else "    inf"
            for j in range(len(accs))
        )
        lines.append(f"{alpha:9.1f} {row}")
    return "\n".join(lines)
