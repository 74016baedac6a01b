"""One benchmark run: set-up, timed passes, gates, metrics, report.

A run is one process and runs every job serially (``jobs=1``), so no
number depends on how many cores the host has; the host is stamped on
every result instead, so runs from different hosts are never compared
silently.

- ``--trace 0`` times cold scenario builds (``setup_s``) and then whole
  passes over the workload's job list with tracing off, until
  ``--seconds`` have been measured.  Every time is scaled to a nominal
  host speed by a reference loop timed next to it (``reference.py``,
  ``nominal_times`` below), which cancels the drift of a shared
  host's CPU speed; the measured seconds are printed beside them.
- ``--trace 1`` alternates an untraced pass with a traced one, so the
  tracing overhead is measured on the same host in the same process;
  the wrappers are removed between passes.  Counts must repeat exactly
  from one traced pass to the next, and traced outputs must equal the
  untraced ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy

from perfbench import layers
from perfbench.reference import NOMINAL_S, at_nominal_speed_of, reference_loop
from perfbench.tracing import Tracer, installed
from perfbench.workloads import (
    DIGESTS_PATH,
    REFERENCE_SHARE,
    WORKLOADS,
    PassResult,
    Workload,
    build_scenarios,
    load_recorded,
    output_digest,
    run_pass,
    scenario_specs,
)
from repro.parallel.worker import worker_cache

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Before every pass, cold builds repeat until this much build time is
#: measured (at least once, at most 250 times), so set-up is sampled
#: across the whole run like the passes; ``setup_s`` is their median,
#: each scaled by the reference loop timed before and after the batch.
SETUP_SECONDS = 0.25
SETUP_REPEATS = (1, 250)
#: A run measures at least this many passes (traced run: pairs of an
#: untraced and a traced pass) even if ``--seconds`` is shorter.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_s_p50": "s",
    "link_days_per_s": "link-day/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------- #
# Host stamp
# ---------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the program and benchmark sources (names + bytes).

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        Path(__file__).parent.glob("*.py")
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()


def host_stamp() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source": _source_digest(),
        "jobs": 1,
    }


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #


class Gate:
    """Accumulates the passes of one run and judges their outputs."""

    def __init__(self, workload: Workload, seed: int):
        recorded = load_recorded().get(workload.name, {}).get(str(seed))
        self.expected: Optional[List[str]] = (
            recorded["jobs"] if recorded else None
        )
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[List[Optional[str]]] = None

    def add(self, result: PassResult, label: str) -> None:
        self.attempted += len(result.digests)
        self.failed += result.failed_jobs
        self.problems.extend(f"{label}: {p}" for p in result.problems)
        if self.reference is None:
            self.reference = result.digests
        elif result.digests != self.reference:
            self.problems.append(f"{label}: outputs differ from first pass")

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    @property
    def output_digest(self) -> str:
        return output_digest([d or "failed" for d in self.reference or []])


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #


def _link_days(specs) -> float:
    """Σ links × simulated days over the job list (warm cache lookups)."""
    cache = worker_cache()
    return sum(
        cache.get(spec)[0].num_links * spec.duration_days for spec in specs
    )


def _repeat_setup(specs, after=lambda: None) -> List[float]:
    """Cold-build the workload's scenarios repeatedly; leaves them cached."""
    low, high = SETUP_REPEATS
    times: List[float] = []
    gc.collect()
    while len(times) < low or (sum(times) < SETUP_SECONDS and len(times) < high):
        times.append(build_scenarios(specs))
        after()
    return times


def _repeat_for(seconds: float, minimum: int, step: Callable[[], None]) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call
    of the same length still ends within ``seconds``."""
    start = time.perf_counter()
    calls, last = 0, 0.0
    while calls < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        calls += 1


def nominal_times(passes: List[PassResult]):
    """``run_s`` and ``job_s_p50`` of a set of identical passes.

    Each job's wall time is scaled to the nominal host speed by the mean
    of the reference-loop times measured just before and just after it
    (``reference.at_nominal_speed_of``).  ``run_s`` sums over the jobs the
    median of that time over the passes: one serial pass.  ``job_s_p50``
    is the median of the same, computed from ``JobRecord.wall_s``, over
    every job of every pass.
    """
    run_s = 0.0
    job_s: List[float] = []
    for i in range(len(passes[0].job_s)):
        times = []
        for p in passes:
            around = (p.ref_s[i], p.ref_s[i + 1])
            times.append(at_nominal_speed_of(p.job_s[i], *around))
            if p.records[i] is not None:
                job_s.append(at_nominal_speed_of(p.records[i].wall_s, *around))
        run_s += statistics.median(times)
    return run_s, statistics.median(job_s) if job_s else run_s


def _timed(workload: Workload, specs, gate: Gate, seconds: float):
    setup: List[float] = []
    setup_wall: List[float] = []
    passes: List[PassResult] = []

    def one_pass() -> None:
        before = reference_loop(REFERENCE_SHARE * SETUP_SECONDS)
        builds = _repeat_setup(specs)
        after = reference_loop(REFERENCE_SHARE * sum(builds))
        setup_wall.extend(builds)
        setup.extend(at_nominal_speed_of(t, before, after) for t in builds)
        result = run_pass(
            workload, specs, gate.expected, reference=reference_loop
        )
        gate.add(result, f"pass {len(passes)}")
        passes.append(result)

    _repeat_for(seconds, MIN_PASSES, one_pass)
    run_s, job_s_p50 = nominal_times(passes)
    pass_wall = statistics.median(p.wall_s for p in passes)
    job_walls = [r.wall_s for p in passes for r in p.records if r is not None]
    ref_s = [t for p in passes for t in p.ref_s]
    link_days = _link_days(specs)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "job_s_p50": job_s_p50,
        "link_days_per_s": link_days / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    measured = "measured, not scaled:"
    notes = {
        "setup_s": f"median of {len(setup)} cold builds of "
        f"{len(scenario_specs(specs))} scenario(s); {measured} "
        f"{statistics.median(setup_wall):.6f} s",
        "run_s": f"{len(specs)} jobs, median of {len(passes)} passes; "
        f"{measured} median pass {pass_wall:.3f} s, median reference loop "
        f"{statistics.median(ref_s):.4f} s (nominal {NOMINAL_S} s)",
        "job_s_p50": f"median of {len(job_walls)} jobs ({len(specs)} per "
        f"pass); {measured} {statistics.median(job_walls):.3f} s",
        "link_days_per_s": f"{link_days:.0f} link-days per pass; "
        f"{measured} {link_days / pass_wall:.0f} link-day/s",
        "peak_rss_mb": "whole process",
    }
    detail = {
        "setup_s": setup_wall,
        "pass_s": [p.wall_s for p in passes],
        "job_s": job_walls,
        "ref_s": ref_s,
    }
    return metrics, END_TO_END_UNITS, notes, detail, None


def _traced(workload: Workload, specs, gate: Gate, seconds: float):
    tracer = Tracer(layers.SPAN_NAMES)
    setup_names = [name for name, _, _ in layers.SETUP_SPANS]
    setup_runs: List[dict] = []

    def record_setup() -> None:
        tracer.check_complete()
        setup_runs.append(
            {n: (tracer.calls[tracer.index[n]], tracer.self_s[tracer.index[n]])
             for n in setup_names}
        )
        tracer.reset()

    with installed(tracer, layers.setup_probes()):
        _repeat_setup(specs, after=record_setup)

    live_counters: list = []
    probes = layers.run_probes(live_counters)
    plain: List[float] = []
    traced: List[dict] = []

    def one_pair() -> None:
        result = run_pass(workload, specs, gate.expected)
        gate.add(result, f"untraced pass {len(plain)}")
        plain.append(result.wall_s)

        tracer.reset()
        visited = 0

        def collect_counters() -> None:
            nonlocal visited
            visited += sum(c.stats.links_visited for c in live_counters)
            live_counters.clear()

        with installed(tracer, probes):
            result = run_pass(
                workload, specs, gate.expected, after_job=collect_counters
            )
        tracer.check_complete()
        gate.add(result, f"traced pass {len(traced)}")
        checks = tracer.calls[tracer.index["fast_checker.check"]]
        work = {
            **{f"{n}.calls": c for n, c in zip(tracer.names, tracer.calls)},
            **tracer.counters,
            **layers.result_counters([r for r in result.records if r]),
            "path_counting.links_visited": visited,
            "fast_checker.allowed_ratio": (
                tracer.counters.get("fast_checker.allowed", 0) / checks
                if checks else 0.0
            ),
        }
        if traced and work != traced[0]["work"]:
            gate.problems.append(
                f"traced pass {len(traced)}: work counts differ from the "
                "first traced pass"
            )
        traced.append(
            {
                "wall_s": result.wall_s,
                "self_s": list(tracer.self_s),
                "covered_s": tracer.total_self_s,
                "work": work,
            }
        )

    _repeat_for(seconds, MIN_TRACED_PAIRS, one_pair)

    units = layers.PER_LAYER_UNITS
    metrics: Dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        if name in setup_names:
            metrics[f"{name}.calls"] = setup_runs[0][name][0]
            self_s = [run[name][1] for run in setup_runs]
        else:
            self_s = [t["self_s"][i] for t in traced]
        metrics[f"{name}.self_s"] = statistics.median(self_s)
    traced_s = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(plain)
    metrics["trace.coverage"] = statistics.median(
        t["covered_s"] / t["wall_s"] for t in traced
    )
    for name in units:
        if name not in metrics:
            metrics[name] = traced[0]["work"].get(name, 0)
    notes = {
        "trace.overhead_ratio": f"median traced pass {traced_s:.3f} s over "
        f"{len(plain)} untraced / {len(traced)} traced passes",
        "trace.coverage": f"{len(tracer.start)} spans in the last traced pass",
    }
    detail = {
        "untraced_pass_s": plain,
        "traced_pass_s": [t["wall_s"] for t in traced],
    }
    return metrics, units, notes, detail, tracer


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def run(workload_name: str, seed: int, seconds: float, trace: int) -> int:
    if workload_name not in WORKLOADS:
        print(
            f"perfbench: unknown workload {workload_name!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[workload_name]
    specs = workload.specs(seed)
    gate = Gate(workload, seed)
    measure = _traced if trace else _timed
    metrics, units, notes, detail, tracer = measure(
        workload, specs, gate, seconds
    )
    if threading.active_count() > len(os.sched_getaffinity(0)):
        gate.problems.append(f"{threading.active_count()} threads running")

    stamp = host_stamp()
    print(
        f"perfbench {workload.name} seed={seed} trace={trace} "
        f"jobs/pass={len(specs)} serial (jobs=1)"
    )
    print("host " + json.dumps(stamp, sort_keys=True))
    print(
        f"output_digest {gate.output_digest} "
        + ("(checked against digests.json)" if gate.expected else
           "(no recorded digests for this seed; passes checked against "
           "each other)")
    )
    for name in units:
        note = notes.get(name, "")
        print(f"{name} {_fmt(metrics[name])} {units[name]}"
              + (f"  ({note})" if note else ""))
    print(
        f"failed_ratio {gate.failed / gate.attempted:.6g} 1  "
        f"({gate.failed} of {gate.attempted} jobs)"
    )
    for problem in gate.problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    if tracer is not None:
        # One span file per workload (the latest run's), not per seed.
        tracer.write_spans(
            OUT_DIR / f"{workload.name}.spans.npz",
            {"workload": workload.name, "seed": seed, "host": stamp},
        )
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "workload": workload.name,
                "seed": seed,
                "host": stamp,
                "output_digest": gate.output_digest,
                "job_digests": gate.reference,
                "problems": gate.problems,
                "detail": detail,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def record_digests(seeds: List[int]) -> int:
    """Rewrite ``digests.json`` from one untraced pass per workload × seed."""
    recorded: Dict[str, Dict[str, dict]] = {}
    for workload in WORKLOADS.values():
        recorded[workload.name] = {}
        for seed in seeds:
            specs = workload.specs(seed)
            result = run_pass(workload, specs)
            if result.problems or result.failed_jobs:
                for problem in result.problems:
                    print(f"{workload.name} seed {seed}: {problem}",
                          file=sys.stderr)
                return 1
            recorded[workload.name][str(seed)] = {
                "output_digest": output_digest(result.digests),
                "jobs": result.digests,
            }
            print(f"{workload.name} seed {seed}: "
                  f"{output_digest(result.digests)} ({result.wall_s:.1f} s)")
    DIGESTS_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0
