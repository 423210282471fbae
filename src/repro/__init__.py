"""repro — reproduction of "Cost-Driven Data Replication with Predictions".

Zuo, Tang, Lee (SPAA 2024, arXiv:2404.16489).

A learning-augmented online algorithm for dynamically creating and
deleting copies of a data object across geo-distributed servers, with

* ``(5 + alpha) / 3``-consistency and ``(1 + 1/alpha)``-robustness,
* an adaptive variant with bounded robustness ``2 + beta``,
* exact optimal offline solvers, predictors, workload generators,
  adversarial instances, and a full reproduction of the paper's
  experimental evaluation.

Quickstart::

    from repro import (
        CostModel, simulate, LearningAugmentedReplication,
        OraclePredictor, optimal_cost,
    )
    from repro.workloads import poisson_trace

    trace = poisson_trace(n=10, rate=0.02, horizon=100_000.0, seed=1)
    model = CostModel(lam=1000.0, n=trace.n)
    policy = LearningAugmentedReplication(OraclePredictor(trace), alpha=0.3)
    run = simulate(trace, model, policy)
    print(run.total_cost / optimal_cost(trace, model))
"""

from .algorithms import (
    AdaptiveReplication,
    AlwaysHold,
    BlindFollowPredictions,
    ConventionalReplication,
    LearningAugmentedReplication,
    NeverHold,
    RandomizedSkiRental,
    RequestClassification,
    RequestType,
    WangReplication,
)
from .analysis import (
    analyze_run,
    competitive_ratio,
    consistency_bound,
    robustness_bound,
    sweep_grid,
)
from .core import (
    CostLedger,
    CostModel,
    CostResult,
    Engine,
    EngineError,
    EventKind,
    EventLog,
    InteractiveSimulation,
    KernelCostEngine,
    PolicyError,
    ReferenceEngine,
    ReplicationPolicy,
    Request,
    SimulationResult,
    Trace,
    TraceError,
    get_backend,
    get_engine,
    run_slab,
    select_engine,
    simulate,
)
from .offline import (
    brute_force_optimal_cost,
    opt_lower_bound,
    optimal_cost,
    optimal_schedule,
)
from .experiments import (
    ArtifactStore,
    ExperimentResult,
    ExperimentRunner,
    ResultCache,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from .predictions import (
    AdversarialPredictor,
    EwmaPredictor,
    FixedPredictor,
    LastGapPredictor,
    MarkovChainPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    PredictionStream,
    Predictor,
    SlidingWindowPredictor,
)
from .system import (
    FleetReport,
    MultiObjectSystem,
    ObjectOutcome,
    ObjectSpec,
    load_access_log_csv,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
    split_trace_by_object,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Trace",
    "TraceError",
    "Request",
    "CostModel",
    "CostLedger",
    "EventKind",
    "EventLog",
    "ReplicationPolicy",
    "PolicyError",
    "SimulationResult",
    "simulate",
    "InteractiveSimulation",
    # engines (tiered simulation)
    "Engine",
    "EngineError",
    "CostResult",
    "KernelCostEngine",
    "ReferenceEngine",
    "get_engine",
    "run_slab",
    "select_engine",
    "get_backend",
    "PredictionStream",
    # algorithms
    "LearningAugmentedReplication",
    "AdaptiveReplication",
    "ConventionalReplication",
    "WangReplication",
    "AlwaysHold",
    "NeverHold",
    "BlindFollowPredictions",
    "RandomizedSkiRental",
    "RequestType",
    "RequestClassification",
    # offline
    "optimal_cost",
    "optimal_schedule",
    "brute_force_optimal_cost",
    "opt_lower_bound",
    # predictions
    "Predictor",
    "OraclePredictor",
    "NoisyOraclePredictor",
    "AdversarialPredictor",
    "FixedPredictor",
    "EwmaPredictor",
    "LastGapPredictor",
    "SlidingWindowPredictor",
    "MarkovChainPredictor",
    # analysis
    "analyze_run",
    "competitive_ratio",
    "consistency_bound",
    "robustness_bound",
    "sweep_grid",
    # system (deployment-facing layer)
    "MultiObjectSystem",
    "ObjectSpec",
    "ObjectOutcome",
    "FleetReport",
    "split_trace_by_object",
    "save_trace_csv",
    "load_trace_csv",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "load_access_log_csv",
    # experiments (orchestration layer)
    "ExperimentRunner",
    "ExperimentResult",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "ResultCache",
    "ArtifactStore",
]
