"""The benchmark's workloads: seeded job lists run serially in-process.

Each workload is a batch of :class:`repro.parallel.spec.JobSpec` jobs
generated from the ``--seed`` argument and executed one after another
through the public entry :func:`repro.parallel.worker.execute_job`, so
the program receives only the generated specs.  Why each workload exists
is recorded in ``why`` (and in ``README.md``): together they put the
time in different layers, so an optimisation of one layer has a
workload that exercises it and one that should not move.

Every finished job is reduced to the SHA-256 of its canonical
``record_row(..., timing=False)``; a job *fails* if it raises, breaks a
workload invariant, or produces a digest other than the one recorded in
``digests.json`` for that seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.parallel.aggregate import record_row
from repro.parallel.spec import JobSpec
from repro.parallel.worker import JobRecord, execute_job, worker_cache

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Figure 17's constraint axis.  c=0.25 is "all safe after pruning";
#: c>=0.75 forces the contested segment search.
FIG17_CONSTRAINTS = (0.25, 0.5, 0.75, 0.9)
FIG17_STRATEGIES = ("corropt", "switch-local")
#: The trace Figure 17's committed report uses.
FIG17_TRACE_SEED = 300
#: The closed-loop workloads also keep one trace (each the one their
#: seed 0 drew) and let the seed draw the fault streams: across trace
#: seeds the work of a pass varied by ~10%, which would hide a change
#: of that size between two sets of runs.
CHAOS_TRACE_SEED = 1108995750
VOTING_TRACE_SEED = 440783767
#: The reference loop runs after each job for this share of its time.
REFERENCE_SHARE = 0.25
CHAOS_PRESETS = ("none", "mild", "harsh", "flaky-collector")
VOTING_PRESETS = ("none", "mild")


def derive(workload: str, seed: int, role: str) -> int:
    """A 31-bit seed for one input of one workload, from ``--seed``."""
    text = f"{workload}/{seed}/{role}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def oracle_fig17(seed: int) -> List[JobSpec]:
    """Figure 17's grid on the large DCN at the committed bench scale.

    One shared trace, oracle sensing.  The seed draws the repair RNG of
    each constraint (shared by both strategies, so each pair is
    compared on the same repair outcomes).
    """
    return [
        JobSpec(
            preset="large",
            scale=0.35,
            duration_days=10.0,
            trace_seed=FIG17_TRACE_SEED,
            events_per_10k=15.0,
            capacity=capacity,
            strategy=strategy,
            repair_seed=derive("oracle-fig17", seed, f"repair/{capacity}"),
            track_capacity=False,
        )
        for capacity in FIG17_CONSTRAINTS
        for strategy in FIG17_STRATEGIES
    ]


def chaos_telemetry(seed: int) -> List[JobSpec]:
    """Closed-loop telemetry sensing under the four fault presets.

    One fixed trace; the seed draws each preset's fault stream.
    """
    return [
        JobSpec(
            kind="chaos",
            preset="medium",
            scale=0.06,
            duration_days=1.0,
            trace_seed=CHAOS_TRACE_SEED,
            events_per_10k=400.0,
            capacity=0.75,
            chaos_preset=preset,
            fault_seed=derive("chaos-telemetry", seed, f"faults/{preset}"),
        )
        for preset in CHAOS_PRESETS
    ]


def localize_voting(seed: int) -> List[JobSpec]:
    """The chaos slice with 007-style voting, hotspots and miswiring.

    One fixed trace; the seed draws each preset's fault stream.
    """
    return [
        JobSpec(
            kind="chaos",
            preset="medium",
            scale=0.06,
            duration_days=1.0,
            trace_seed=VOTING_TRACE_SEED,
            events_per_10k=400.0,
            capacity=0.75,
            chaos_preset=preset,
            fault_seed=derive("localize-voting", seed, f"faults/{preset}"),
            congestion_preset="hotspots",
            miswire_pairs=4,
            sensing="voting",
        )
        for preset in VOTING_PRESETS
    ]


def _fig17_problems(records: List[JobRecord]) -> List[str]:
    """CorrOpt never carries more penalty than switch-local (Figure 17)."""
    integrals = {
        (r.spec.capacity, r.spec.strategy): r.result.penalty_integral
        for r in records
        if r.ok
    }
    problems = []
    for capacity in FIG17_CONSTRAINTS:
        corropt = integrals.get((capacity, "corropt"))
        local = integrals.get((capacity, "switch-local"))
        if corropt is not None and local is not None and corropt > local:
            problems.append(
                f"c={capacity}: corropt penalty {corropt} > "
                f"switch-local {local}"
            )
    return problems


def _job_problems(record: JobRecord) -> List[str]:
    """Per-job invariants every closed-loop job must keep."""
    result = record.result
    problems = []
    if not result.invariants_ok():
        problems.append("chaos invariants broken")
    diagnosis = getattr(result, "diagnosis", None)
    if diagnosis is not None and diagnosis.congestion_mitigations:
        problems.append(
            f"{diagnosis.congestion_mitigations} congestion-only links "
            "mitigated"
        )
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: Callable[[int], List[JobSpec]]
    pass_problems: Callable[[List[JobRecord]], List[str]] = lambda _: []


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "oracle-fig17",
            "decision-bound Figure 17 grid: topology scans, optimizer and "
            "switch-local; telemetry layers do no work",
            oracle_fig17,
            _fig17_problems,
        ),
        Workload(
            "chaos-telemetry",
            "per-link per-poll bound closed loop: poller, fault transport, "
            "sanitizer and store; optimizer and path DP near zero",
            chaos_telemetry,
        ),
        Workload(
            "localize-voting",
            "same slice read back per link: flow voting, ECMP routing, "
            "probes and the cause classifier beside the telemetry writes",
            localize_voting,
        ),
    )
}


def scenario_specs(specs: List[JobSpec]) -> List[JobSpec]:
    """One spec per distinct scenario (topology + trace), in job order."""
    seen = {}
    for spec in specs:
        seen.setdefault(spec.scenario_key(), spec)
    return list(seen.values())


def build_scenarios(specs: List[JobSpec]) -> float:
    """Cold-build every distinct scenario through the scenario cache.

    Leaves the cache warm for the jobs; returns the build time.
    """
    cache = worker_cache()
    cache.clear()
    start = time.perf_counter()
    for spec in scenario_specs(specs):
        cache.get(spec)
    return time.perf_counter() - start


def row_digest(record: JobRecord, index: int) -> str:
    """SHA-256 of the job's canonical, timing-free sweep row."""
    row = record_row(record, index, timing=False)
    canonical = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def output_digest(job_digests: List[str]) -> str:
    """One digest over a whole pass, comparable across commits."""
    joined = "\n".join(job_digests).encode("utf-8")
    return "sha256:" + hashlib.sha256(joined).hexdigest()


def load_recorded() -> Dict[str, Dict[str, dict]]:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@dataclass
class PassResult:
    """One serial execution of a workload's whole job list."""

    wall_s: float
    records: List[Optional[JobRecord]]
    digests: List[Optional[str]]
    problems: List[str]
    #: Wall time of each job, as the harness timed it.
    job_s: List[float] = field(default_factory=list)
    #: Mean reference-loop times: one before the first job and one after
    #: every job (empty when the pass ran without a reference).
    ref_s: List[float] = field(default_factory=list)

    @property
    def failed_jobs(self) -> int:
        return sum(1 for d in self.digests if d is None)


def run_pass(
    workload: Workload,
    specs: List[JobSpec],
    expected: Optional[List[str]] = None,
    after_job: Optional[Callable[[], None]] = None,
    reference: Optional[Callable[[float], float]] = None,
) -> PassResult:
    """Run every job once, serially, and gate each output.

    A job's digest slot is ``None`` when it failed: it raised, broke an
    invariant, or (with ``expected``) its digest differs from the
    recorded one.  ``after_job`` runs outside the timed region, and so
    does ``reference``, which is timed before the first job and, for
    ``REFERENCE_SHARE`` of the job's time, after every job.
    """
    gc.collect()
    records: List[Optional[JobRecord]] = []
    job_s: List[float] = []
    ref_s: List[float] = [reference(0.0)] if reference is not None else []
    wall_s = 0.0
    problems: List[str] = []
    for spec in specs:
        start = time.perf_counter()
        try:
            record = execute_job(spec)
        except Exception:  # a failed job is counted, the run goes on
            problems.append(traceback.format_exc(limit=3))
            record = None
        job_s.append(time.perf_counter() - start)
        wall_s += job_s[-1]
        records.append(record)
        if reference is not None:
            ref_s.append(reference(REFERENCE_SHARE * job_s[-1]))
        if after_job is not None:
            after_job()
    digests: List[Optional[str]] = []
    for index, record in enumerate(records):
        if record is None:
            digests.append(None)
            continue
        job_problems = _job_problems(record)
        digest = row_digest(record, index)
        if expected is not None and digest != expected[index]:
            job_problems.append(
                f"job {index}: digest {digest} != recorded {expected[index]}"
            )
        problems.extend(job_problems)
        digests.append(None if job_problems else digest)
    problems.extend(workload.pass_problems([r for r in records if r]))
    return PassResult(wall_s, records, digests, problems, job_s, ref_s)
