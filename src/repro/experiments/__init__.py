"""Parallel experiment orchestration: registry, runner, cache, artifacts.

The subsystem turns the paper's embarrassingly parallel evaluation grids
into named, cacheable, resumable experiments::

    from repro.experiments import ExperimentRunner, ResultCache

    runner = ExperimentRunner(workers=8, cache=ResultCache(".repro-cache"))
    result = runner.run("fig25")          # registered scenario by name
    print(result.sweep_result().at(10.0, 0.2, 1.0).ratio)

or, from the command line::

    repro experiments list
    repro experiments run fig25 --workers 8
"""

from .artifacts import ArtifactStore, provenance
from .cache import CACHE_VERSION, NullCache, ResultCache, content_key, trace_digest
from .progress import ConsoleProgress, NullProgress, ProgressReporter, summary_table
from .registry import (
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from .runner import (
    ExperimentResult,
    ExperimentRunner,
    Job,
    JobResult,
    WorkerCrashError,
)

__all__ = [
    # registry
    "Scenario",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "unregister_scenario",
    # runner
    "ExperimentRunner",
    "ExperimentResult",
    "Job",
    "JobResult",
    "WorkerCrashError",
    # cache
    "ResultCache",
    "NullCache",
    "CACHE_VERSION",
    "content_key",
    "trace_digest",
    # artifacts
    "ArtifactStore",
    "provenance",
    # progress
    "ProgressReporter",
    "NullProgress",
    "ConsoleProgress",
    "summary_table",
]
