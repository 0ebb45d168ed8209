"""TCP messenger measurement workbench.

A relay server and scripted clients run chat and file-transfer
workloads over real TCP while every socket-boundary frame is counted.
The captured telemetry feeds two utilization models for cross-checking:
aggregate response (received throughput over link capacity) and
classical M/M/1 Little's law analytics.  Topology comes along for the
ride: per-client round trips become a distance matrix, Neighbor-Joining
turns it into a tree, and a binary link/path filter matrix answers
failure-robustness queries.

Every name in ``__all__`` is resolved from its home module on first
use, so ``import biokm`` imports no submodule.  Only the topology
modules (``phylo``, ``route_filter``) and ``simulate_mm1`` load numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> home module, or "module.attribute" where the name differs
_EXPORTS = {
    "ScenarioMode": "loadgen.Mode",
    "ScenarioSpec": "loadgen",
    "generate_schedule": "loadgen",
    "run_scenario": "loadgen",
    "DistanceMatrix": "phylo",
    "PhyloTree": "phylo",
    "from_newick": "phylo",
    "net_divergence": "phylo",
    "nj_build": "phylo",
    "star_distances": "phylo",
    "to_newick": "phylo",
    "QueueStats": "queueing",
    "SimulationResult": "queueing",
    "SteadyStateRow": "queueing",
    "UnstableQueue": "queueing",
    "mm1_stats": "queueing",
    "simulate_mm1": "queueing",
    "steady_state_table": "queueing",
    "ComparisonReport": "report",
    "ReportMode": "report.Mode",
    "PipelineResult": "report",
    "compare": "report",
    "full_pipeline": "report",
    "FilterMatrix": "route_filter",
    "build_filter": "route_filter",
    "relation_domain": "route_filter",
    "relation_range": "route_filter",
    "surviving_paths": "route_filter",
    "transpose": "route_filter",
    "MessengerServer": "server",
    "ServerConfig": "server",
    "start_server": "server",
    "AggregateResponse": "telemetry",
    "RunMetrics": "telemetry",
    "SessionMetrics": "telemetry",
    "aggregate_response": "telemetry",
    "analyze_capture": "telemetry",
    "average_runs": "telemetry",
    "capacity_bps": "telemetry",
    "rates": "telemetry",
    "throughput_bps": "telemetry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module, _, attribute = _EXPORTS[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attribute or name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
