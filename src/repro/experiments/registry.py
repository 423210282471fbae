"""Named, reproducible experiment configurations.

A :class:`Scenario` bundles everything needed to replicate one of the
paper's evaluation grids — a workload factory, a policy factory, and the
``lambda x alpha x accuracy x seed`` axes — under a stable name.  The
module-level registry maps names to scenarios so that benchmarks, the
CLI (``repro experiments run fig25``), and tests all resolve the same
configuration, and adding a new experiment family is one registration.

Built-ins cover the paper's evaluation (Zuo, Tang, Lee, SPAA 2024):

* ``fig25`` .. ``fig28`` — Algorithm 1 on the IBM-like trace, one
  scenario per ``lambda`` in {10, 100, 1000, 10000} (Appendix J.2);
* ``fig29`` .. ``fig32`` — the adapted algorithm with robustness target
  ``2 + beta`` for ``(lambda, beta)`` in {1000, 10000} x {0.1, 1};
* ``ablation-alpha`` and ``ablation-predictor-*`` — the ablations of
  ``benchmarks/bench_ablation.py`` (alpha as the consistency/robustness
  dial, and the learned predictors a deployment could run);
* ``tight-robustness`` / ``tight-consistency`` — the Figure 5/6 tight
  examples;
* ``wang-counterexample`` — the Figure 9 instance against Wang et al.'s
  algorithm;
* ``adversarial-lower-bound`` — the Section 9 adaptive adversary;
* ``bursty`` / ``periodic`` / ``diurnal`` — Algorithm 1 grids over the
  synthetic workload family (burst/idle alternation, jittered
  round-robin, and day/night heavy-tail sessions), seeded per
  replication;
* ``smoke`` — a seconds-scale grid for CI and quick installs checks.

Scenarios are declarative: no trace is built and no simulation runs at
registration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..analysis.sweep import (
    PAPER_ACCURACIES,
    PAPER_ALPHAS,
    PolicyFactory,
    accuracy_predictor,
    algorithm1_factory,
)
from ..core.policy import ReplicationPolicy
from ..core.trace import Trace

__all__ = [
    "Scenario",
    "PolicyFactory",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "unregister_scenario",
]

#: job parameters a trace factory may declare a dependency on
_JOB_PARAMS = ("lam", "alpha", "accuracy", "seed")


@dataclass(frozen=True)
class Scenario:
    """One named, reproducible experiment grid.

    ``trace_factory`` is called with the keyword subset of job parameters
    named in ``trace_params`` (empty tuple: one fixed trace for the whole
    grid; ``("seed",)``: one trace per replication seed; the tight
    examples use ``("lam", "alpha")`` because the instance itself depends
    on those).  ``version`` participates in cache keys — bump it whenever
    the factories change meaning, so stale cached results are never
    returned.
    """

    name: str
    description: str
    trace_factory: Callable[..., Trace]
    policy_factory: PolicyFactory
    lambdas: tuple[float, ...]
    alphas: tuple[float, ...]
    accuracies: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)
    trace_params: tuple[str, ...] = ("seed",)
    tags: tuple[str, ...] = ()
    version: int = 1
    cache_salt: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        for axis in ("lambdas", "alphas", "accuracies", "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"scenario {self.name}: {axis} must be non-empty")
        bad = [p for p in self.trace_params if p not in _JOB_PARAMS]
        if bad:
            raise ValueError(
                f"scenario {self.name}: unknown trace_params {bad}; "
                f"allowed: {_JOB_PARAMS}"
            )

    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return (
            len(self.lambdas)
            * len(self.alphas)
            * len(self.accuracies)
            * len(self.seeds)
        )

    def trace_args(
        self, lam: float, alpha: float, accuracy: float, seed: int
    ) -> dict[str, float | int]:
        """The keyword arguments ``trace_factory`` receives for one cell."""
        values = {"lam": lam, "alpha": alpha, "accuracy": accuracy, "seed": seed}
        return {k: values[k] for k in self.trace_params}

    def build_trace(
        self, lam: float, alpha: float, accuracy: float, seed: int
    ) -> Trace:
        return self.trace_factory(**self.trace_args(lam, alpha, accuracy, seed))

    def with_grid(
        self,
        lambdas: Sequence[float] | None = None,
        alphas: Sequence[float] | None = None,
        accuracies: Sequence[float] | None = None,
        seeds: Sequence[int] | None = None,
        name: str | None = None,
    ) -> "Scenario":
        """A copy with some axes replaced (e.g. a coarse/smoke variant)."""
        return replace(
            self,
            name=name if name is not None else self.name,
            lambdas=tuple(lambdas) if lambdas is not None else self.lambdas,
            alphas=tuple(alphas) if alphas is not None else self.alphas,
            accuracies=(
                tuple(accuracies) if accuracies is not None else self.accuracies
            ),
            seeds=tuple(seeds) if seeds is not None else self.seeds,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register_scenario(obj: Scenario | Callable[[], Scenario]):
    """Register a scenario under its name.

    Usable directly (``register_scenario(Scenario(...))``) or as a
    decorator on a zero-argument builder function, which is called once
    at import time::

        @register_scenario
        def fig25() -> Scenario:
            return Scenario(name="fig25", ...)
    """
    scenario = obj() if callable(obj) and not isinstance(obj, Scenario) else obj
    if not isinstance(scenario, Scenario):
        raise TypeError(f"expected a Scenario, got {type(scenario).__name__}")
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return obj


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario; raises KeyError with suggestions."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def list_scenarios(tag: str | None = None) -> list[Scenario]:
    """All registered scenarios (optionally filtered by tag), by name."""
    out = [
        s
        for s in _REGISTRY.values()
        if tag is None or tag in s.tags
    ]
    return sorted(out, key=lambda s: s.name)


def scenario_names(tag: str | None = None) -> list[str]:
    return [s.name for s in list_scenarios(tag)]


def unregister_scenario(name: str) -> None:
    """Remove a registration (primarily for tests)."""
    _REGISTRY.pop(name, None)


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------

def _paper_trace(seed: int) -> Trace:
    """The Appendix J.1 workload: IBM-like arrivals over 10 servers."""
    from ..workloads import ibm_like_trace

    return ibm_like_trace(n=10, seed=seed)


def _adaptive_factory(beta: float, warmup: int = 100) -> PolicyFactory:
    """Policy factory for the adapted algorithm (Figures 29-32)."""

    def factory(
        trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
    ) -> ReplicationPolicy:
        from ..algorithms import AdaptiveReplication

        # the adaptive variant requires alpha > 0; the paper's grids use
        # 0.1 as the stand-in for the full-trust limit
        return AdaptiveReplication(
            accuracy_predictor(trace, accuracy, seed),
            alpha if alpha > 0 else 0.1,
            beta=beta,
            warmup=warmup,
        )

    return factory


def _fixed_beyond_factory(
    trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
) -> ReplicationPolicy:
    """Algorithm 1 fed constant "beyond" predictions (robustness regime)."""
    from ..algorithms import LearningAugmentedReplication
    from ..predictions import FixedPredictor

    return LearningAugmentedReplication(FixedPredictor(False), alpha)


def _oracle_factory(
    trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
) -> ReplicationPolicy:
    """Algorithm 1 with perfect predictions (consistency regime)."""
    from ..algorithms import LearningAugmentedReplication
    from ..predictions import OraclePredictor

    return LearningAugmentedReplication(OraclePredictor(trace), alpha)


def _robustness_trace(lam: float, alpha: float) -> Trace:
    from ..workloads import robustness_tight_trace

    return robustness_tight_trace(lam, alpha, m=2001)


def _consistency_trace(lam: float) -> Trace:
    from ..workloads import consistency_tight_trace

    return consistency_tight_trace(lam, cycles=667)


def _wang_factory(
    trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
) -> ReplicationPolicy:
    """Wang et al.'s algorithm, which takes no predictions and no alpha."""
    from ..algorithms import WangReplication

    return WangReplication()


def _wang_trace(lam: float) -> Trace:
    from ..workloads import wang_counterexample_trace

    return wang_counterexample_trace(lam, m=1000)


def _adversary_trace(lam: float, alpha: float) -> Trace:
    """The Section 9 adaptive adversary's instance against Algorithm 1.

    The adversary adapts to the deterministic policy; replaying the same
    policy on the generated trace reproduces the adversarial run.
    """
    from ..algorithms import LearningAugmentedReplication
    from ..predictions import FixedPredictor
    from ..workloads import LowerBoundAdversary

    policy = LearningAugmentedReplication(FixedPredictor(False), alpha)
    return LowerBoundAdversary(lam=lam).run(policy, n_requests=500).trace


def _smoke_trace(seed: int) -> Trace:
    from ..workloads import uniform_random_trace

    return uniform_random_trace(n=4, m=60, horizon=500.0, seed=seed)


def _bursty_scenario_trace(seed: int) -> Trace:
    """Burst/idle alternation: ~1000 requests in 200 tight bursts."""
    from ..workloads import bursty_trace

    return bursty_trace(
        n=10, n_bursts=200, burst_size=5, burst_spread=15.0,
        quiet_gap=800.0, seed=seed,
    )


def _periodic_scenario_trace(seed: int) -> Trace:
    """Jittered round-robin: periodic structure with noise."""
    from ..workloads import periodic_trace

    return periodic_trace(n=8, period=40.0, cycles=150, jitter=12.0, seed=seed)


def _diurnal_scenario_trace(seed: int) -> Trace:
    """Two days of day/night traffic with heavy-tail sessions."""
    from ..workloads import diurnal_trace

    return diurnal_trace(
        n=10, days=2, base_rate=0.05, peak_rate=1.0, day_length=400.0,
        seed=seed,
    )


def _register_builtins() -> None:
    for figure, lam in (
        ("fig25", 10.0),
        ("fig26", 100.0),
        ("fig27", 1000.0),
        ("fig28", 10000.0),
    ):
        register_scenario(
            Scenario(
                name=figure,
                description=(
                    f"Appendix J.2 grid at lambda={lam:g}: Algorithm 1 with "
                    "noisy-oracle predictions on the IBM-like trace"
                ),
                trace_factory=_paper_trace,
                policy_factory=algorithm1_factory,
                lambdas=(lam,),
                alphas=PAPER_ALPHAS,
                accuracies=PAPER_ACCURACIES,
                tags=("figures", "paper-grid"),
            )
        )

    for figure, lam, beta in (
        ("fig29", 1000.0, 0.1),
        ("fig30", 10000.0, 0.1),
        ("fig31", 1000.0, 1.0),
        ("fig32", 10000.0, 1.0),
    ):
        register_scenario(
            Scenario(
                name=figure,
                description=(
                    f"Adapted algorithm grid at lambda={lam:g}, beta={beta:g} "
                    f"(robustness target {2 + beta:g}, 100-request warm-up)"
                ),
                trace_factory=_paper_trace,
                policy_factory=_adaptive_factory(beta),
                lambdas=(lam,),
                alphas=PAPER_ALPHAS,
                accuracies=PAPER_ACCURACIES,
                tags=("figures", "adaptive"),
            )
        )

    register_scenario(
        Scenario(
            name="ablation-alpha",
            description=(
                "Consistency/robustness dial: alpha sweep at lambda=1000 "
                "and accuracies {0, 50%, 100%} on the IBM-like trace"
            ),
            # the ablation fixes the workload and varies only the policy,
            # so the trace ignores the replication seed
            trace_factory=lambda: _paper_trace(0),
            policy_factory=algorithm1_factory,
            lambdas=(1000.0,),
            alphas=(0.05, 0.2, 0.5, 1.0),
            accuracies=(0.0, 0.5, 1.0),
            seeds=(4,),
            trace_params=(),
            tags=("ablation",),
        )
    )

    for pred_name, factory in _PREDICTOR_ABLATIONS.items():
        register_scenario(
            Scenario(
                name=f"ablation-predictor-{pred_name}",
                description=(
                    f"Deployable-predictor ablation: {pred_name} predictor "
                    "on the bursty workload (alpha=0.25, lambda=300)"
                ),
                trace_factory=_bursty_ablation_trace,
                policy_factory=factory,
                lambdas=(300.0,),
                alphas=(0.25,),
                accuracies=(1.0,),
                trace_params=(),
                tags=("ablation", "predictors"),
            )
        )

    register_scenario(
        Scenario(
            name="tight-robustness",
            description=(
                "Figure 5 tight robustness instances: always-'beyond' "
                "predictions, ratio -> 1 + 1/alpha"
            ),
            trace_factory=_robustness_trace,
            policy_factory=_fixed_beyond_factory,
            lambdas=(100.0,),
            alphas=(0.2, 0.5, 1.0),
            accuracies=(0.0,),
            trace_params=("lam", "alpha"),
            tags=("tight", "adversarial"),
        )
    )

    register_scenario(
        Scenario(
            name="tight-consistency",
            description=(
                "Figure 6 tight consistency instances: perfect predictions "
                "still cost (5 + alpha)/3 times the optimum"
            ),
            trace_factory=_consistency_trace,
            policy_factory=_oracle_factory,
            lambdas=(100.0,),
            alphas=(0.2, 0.5, 1.0),
            accuracies=(1.0,),
            trace_params=("lam",),
            tags=("tight", "adversarial"),
        )
    )

    register_scenario(
        Scenario(
            name="wang-counterexample",
            description=(
                "Figure 9 counterexample: Wang et al.'s algorithm approaches "
                "5/2 times the optimum, refuting its claimed ratio 2"
            ),
            trace_factory=_wang_trace,
            policy_factory=_wang_factory,
            lambdas=(100.0,),
            # one cell: the policy ignores alpha and accuracy
            alphas=(1.0,),
            accuracies=(0.0,),
            trace_params=("lam",),
            tags=("adversarial",),
        )
    )

    register_scenario(
        Scenario(
            name="adversarial-lower-bound",
            description=(
                "Section 9 adaptive adversary vs Algorithm 1 "
                "(deterministic lower bound 3/2)"
            ),
            trace_factory=_adversary_trace,
            policy_factory=_fixed_beyond_factory,
            lambdas=(100.0,),
            alphas=(0.2, 0.5, 1.0),
            accuracies=(0.0,),
            trace_params=("lam", "alpha"),
            tags=("adversarial",),
        )
    )

    for name, factory, blurb in (
        (
            "bursty",
            _bursty_scenario_trace,
            "burst/idle workload (200 bursts of 5, long quiet gaps)",
        ),
        (
            "periodic",
            _periodic_scenario_trace,
            "jittered round-robin workload (8 servers, 150 cycles)",
        ),
        (
            "diurnal",
            _diurnal_scenario_trace,
            "day/night heavy-tail sessions (2 days, Pareto session sizes)",
        ),
    ):
        register_scenario(
            Scenario(
                name=name,
                description=(
                    f"Algorithm 1 with noisy-oracle predictions on the "
                    f"{blurb}"
                ),
                trace_factory=factory,
                policy_factory=algorithm1_factory,
                lambdas=(100.0, 1000.0),
                alphas=(0.1, 0.2, 0.5, 1.0),
                accuracies=(0.0, 0.5, 0.8, 1.0),
                seeds=(0, 1),
                tags=("workloads", "synthetic"),
            )
        )

    register_scenario(
        Scenario(
            name="smoke",
            description=(
                "Seconds-scale CI grid: Algorithm 1 on a small uniform "
                "random trace (4 servers, 60 requests)"
            ),
            trace_factory=_smoke_trace,
            policy_factory=algorithm1_factory,
            lambdas=(10.0, 100.0),
            alphas=(0.2, 1.0),
            accuracies=(0.0, 1.0),
            tags=("smoke",),
        )
    )


def _bursty_ablation_trace() -> Trace:
    from ..workloads import bursty_trace

    return bursty_trace(
        n=8, n_bursts=150, burst_size=6, burst_spread=20.0, quiet_gap=1200.0,
        seed=31,
    )


def _predictor_factory(make):
    def factory(
        trace: Trace, lam: float, alpha: float, accuracy: float, seed: int
    ) -> ReplicationPolicy:
        from ..algorithms import LearningAugmentedReplication

        return LearningAugmentedReplication(make(trace), alpha)

    return factory


def _make_oracle(trace):
    from ..predictions import OraclePredictor

    return OraclePredictor(trace)


def _make_sliding_window(trace):
    from ..predictions import SlidingWindowPredictor

    return SlidingWindowPredictor(window=5)


def _make_markov(trace):
    from ..predictions import MarkovChainPredictor

    return MarkovChainPredictor()


def _make_ewma(trace):
    from ..predictions import EwmaPredictor

    return EwmaPredictor(decay=0.4)


def _make_always_wrong(trace):
    from ..predictions import NoisyOraclePredictor

    return NoisyOraclePredictor(trace, 0.0, seed=1)


_PREDICTOR_ABLATIONS: dict[str, PolicyFactory] = {
    "oracle": _predictor_factory(_make_oracle),
    "sliding-window": _predictor_factory(_make_sliding_window),
    "markov": _predictor_factory(_make_markov),
    "ewma": _predictor_factory(_make_ewma),
    "always-wrong": _predictor_factory(_make_always_wrong),
}

_register_builtins()
