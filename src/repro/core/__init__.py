"""Core substrate: traces, cost model, event log, and the simulator."""

from .backends import (
    get_backend,
    numba_available,
    set_thread_budget,
    thread_budget,
)
from .costs import CostLedger, CostModel
from .engine import (
    ENGINE_NAMES,
    CostResult,
    Engine,
    EngineError,
    KernelCostEngine,
    ReferenceEngine,
    get_engine,
    run_slab,
    select_engine,
)
from .events import Event, EventKind, EventLog
from .policy import PolicyError, ReplicationPolicy
from .simulator import (
    CopyRecord,
    InteractiveSimulation,
    ServeRecord,
    SimContext,
    SimulationResult,
    simulate,
)
from .trace import Request, Trace, TraceError, merge_traces
from .validate import ValidationReport, validate_result

__all__ = [
    "get_backend",
    "numba_available",
    "set_thread_budget",
    "thread_budget",
    "CostLedger",
    "CostModel",
    "Engine",
    "EngineError",
    "ENGINE_NAMES",
    "CostResult",
    "KernelCostEngine",
    "ReferenceEngine",
    "get_engine",
    "run_slab",
    "select_engine",
    "Event",
    "EventKind",
    "EventLog",
    "PolicyError",
    "ReplicationPolicy",
    "CopyRecord",
    "InteractiveSimulation",
    "ServeRecord",
    "SimContext",
    "SimulationResult",
    "simulate",
    "Request",
    "Trace",
    "TraceError",
    "merge_traces",
    "ValidationReport",
    "validate_result",
]
