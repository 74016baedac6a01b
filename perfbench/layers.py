"""Which function of which layer the traced run wraps, and what it counts.

Layer names are the program's module names.  Each spanned function
``F`` of layer ``L`` yields ``L.F.calls`` (exact) and ``L.F.self_s``.
Beside them come work counters that repeat exactly on any host: some
taken at the wrapped boundary (links scanned, events, directions
polled), the rest summed from the job results the program already
returns (optimizer search effort, sanitizer samples, diagnosis
verdicts).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.controller import CorrOptController
from repro.core.diagnosis import CauseClassifier, DiagnosisStats
from repro.core.fast_checker import FastChecker
from repro.core.optimizer import GlobalOptimizer, OptimizerStats
from repro.core.path_counting import PathCounter
from repro.core import segmentation
from repro.core.switch_local import SwitchLocalChecker
from repro.faults.telemetry_faults import FaultyTransport
from repro.obs.health import HealthTracker
from repro.parallel.worker import JobRecord
from repro.routing.ecmp import EcmpRouter
from repro.simulation.kernel import (
    OracleSensing,
    SimulationKernel,
    TelemetrySensing,
)
from repro.telemetry.counters import DirectionCounters
from repro.telemetry.poller import SnmpPoller
from repro.telemetry.sanitizer import TelemetrySanitizer
from repro.telemetry.store import TelemetryStore
from repro.topology.graph import Topology
from repro.workloads import generator
from repro.workloads.dcn_profiles import DCNProfile

from perfbench.tracing import Probe, Tracer

#: (span name, owner, attribute) of every function the run passes wrap.
RUN_SPANS: Tuple[Tuple[str, object, str], ...] = (
    ("topology.corrupting_links", Topology, "corrupting_links"),
    ("topology.upstream_links", Topology, "upstream_links"),
    ("topology.copy", Topology, "copy"),
    ("path_counting.notify_link_change", PathCounter, "notify_link_change"),
    ("path_counting.tor_fractions", PathCounter, "tor_fractions"),
    ("path_counting.restricted_fractions", PathCounter, "restricted_fractions"),
    ("fast_checker.check", FastChecker, "check"),
    ("optimizer.plan", GlobalOptimizer, "plan"),
    ("segmentation.segment_links", segmentation, "segment_links"),
    ("switch_local.check", SwitchLocalChecker, "check"),
    ("switch_local.reevaluate", SwitchLocalChecker, "reevaluate"),
    ("kernel.run_until", SimulationKernel, "run_until"),
    ("kernel.snapshot", SimulationKernel, "snapshot"),
    ("sensing.handle_poll", TelemetrySensing, "handle_poll"),
    ("sensing.current_penalty", OracleSensing, "current_penalty"),
    ("sensing.current_penalty", TelemetrySensing, "current_penalty"),
    ("health.note_poll", HealthTracker, "note_poll"),
    ("poller.poll_once", SnmpPoller, "poll_once"),
    ("transport.deliver", FaultyTransport, "deliver"),
    ("sanitizer.ingest", TelemetrySanitizer, "ingest"),
    ("store.append_rates", TelemetryStore, "append_rates"),
    ("store.last_sample", TelemetryStore, "last_sample"),
    ("controller.report_corruption", CorrOptController, "report_corruption"),
    ("controller.activate_link", CorrOptController, "activate_link"),
    ("diagnosis.classify", CauseClassifier, "classify"),
    ("routing.up_path", EcmpRouter, "up_path"),
)

#: Spans of the set-up phase (scenario builds).
SETUP_SPANS: Tuple[Tuple[str, object, str], ...] = (
    ("setup.build_topology", DCNProfile, "build"),
    ("setup.generate_trace", generator, "generate_trace"),
)

SPAN_NAMES: List[str] = list(
    dict.fromkeys(name for name, _, _ in RUN_SPANS + SETUP_SPANS)
)


def _scanned(tracer: Tracer, args: tuple, _result) -> None:
    tracer.count("topology.links_scanned", args[0].num_links)


def _events(tracer: Tracer, _args: tuple, result) -> None:
    tracer.count("kernel.events", result)


def _allowed(tracer: Tracer, _args: tuple, result) -> None:
    tracer.count("fast_checker.allowed", int(result.allowed))


_AFTER = {
    "topology.corrupting_links": _scanned,
    "kernel.run_until": _events,
    "fast_checker.check": _allowed,
}


def run_probes(live_counters: List[PathCounter]) -> List[Probe]:
    """Probes for the job passes.

    Path counters created during a job are collected so their exact
    ``stats.links_visited`` can be summed once the job is done; the
    caller empties ``live_counters`` after each job.
    """
    probes = [
        Probe(name, owner, attr, _AFTER.get(name))
        for name, owner, attr in RUN_SPANS
    ]
    probes.append(
        Probe(
            "path_counting.instances",
            PathCounter,
            "__init__",
            lambda _t, args, _r: live_counters.append(args[0]),
            span=False,
        )
    )
    probes.append(
        Probe("poller.directions", DirectionCounters, "snapshot", span=False)
    )
    return probes


def setup_probes() -> List[Probe]:
    return [Probe(name, owner, attr) for name, owner, attr in SETUP_SPANS]


def result_counters(records: Sequence[JobRecord]) -> Dict[str, float]:
    """Exact work counters summed from one pass's job results."""
    optimizer = OptimizerStats()
    diagnosis = DiagnosisStats()
    samples = degraded = 0
    for record in records:
        result = record.result
        if result.optimizer_stats is not None:
            optimizer.merge(result.optimizer_stats)
        if getattr(result, "diagnosis", None) is not None:
            diagnosis.merge(result.diagnosis)
        if result.chaos is not None:
            samples += result.sanitizer_stats["samples"]
            degraded += result.chaos.degraded_samples
    return {
        "optimizer.subsets_evaluated": optimizer.subsets_evaluated,
        "optimizer.feasibility_checks": optimizer.feasibility_checks,
        "optimizer.reject_cache_hit_rate": optimizer.reject_cache_hit_rate(),
        "sanitizer.degraded_ratio": degraded / samples if samples else 0.0,
        "diagnosis.precision_corruption": (
            diagnosis.precision("corruption") or 0.0
        ),
    }


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "topology.links_scanned": "count",
    "path_counting.links_visited": "count",
    "fast_checker.allowed_ratio": "1",
    "optimizer.subsets_evaluated": "count",
    "optimizer.feasibility_checks": "count",
    "optimizer.reject_cache_hit_rate": "1",
    "kernel.events": "count",
    "poller.directions": "count",
    "sanitizer.degraded_ratio": "1",
    "diagnosis.precision_corruption": "1",
    "trace.overhead_ratio": "1",
    "trace.coverage": "1",
}
