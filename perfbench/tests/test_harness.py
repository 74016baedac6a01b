"""Tests of the benchmark harness itself (not of the program).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
import time
import types
from pathlib import Path

import numpy
import pytest

from perfbench import harness, layers, reference, workloads
from perfbench.tracing import Probe, SpansDropped, Tracer, installed
from repro.parallel.spec import JobSpec

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [6, 8].
    tracer = Tracer(["outer", "a", "b"], clock=FakeClock(0, 1, 2, 3, 4, 6, 8, 10))
    tracer.enter(0)
    tracer.enter(1)
    tracer.enter(2)
    tracer.exit()
    tracer.exit()
    tracer.enter(2)
    tracer.exit()
    tracer.exit()
    tracer.check_complete()

    assert tracer.calls == [1, 1, 2]
    assert tracer.self_s == [10 - 3 - 2, 3 - 1, 1 + 2]
    assert tracer.total_self_s == 10  # self times tile the outer span
    # Spans are kept in exit order with their parent's id.
    assert list(tracer.name_idx) == [2, 1, 2, 0]
    assert list(tracer.parent_id) == [2, 1, 1, 0]


def test_repeated_top_level_spans_accumulate():
    tracer = Tracer(["f"], clock=FakeClock(0.0, 0.5, 1.0, 1.25))
    for _ in range(2):
        tracer.enter(0)
        tracer.exit()
    assert tracer.calls == [2]
    assert tracer.self_s == [pytest.approx(0.75)]


def test_dropped_spans_refuse_the_run():
    tracer = Tracer(["f"], capacity=2)
    for _ in range(3):
        tracer.enter(0)
        tracer.exit()
    assert tracer.calls == [3]  # counts stay exact past capacity
    assert len(tracer.start) == 2 and tracer.dropped == 1
    with pytest.raises(SpansDropped):
        tracer.check_complete()


def test_open_span_refuses_the_run():
    tracer = Tracer(["f"])
    tracer.enter(0)
    with pytest.raises(SpansDropped):
        tracer.check_complete()


def test_spans_are_written_out(tmp_path):
    tracer = Tracer(["layer.f", "layer.g"], clock=FakeClock(1.0, 1.25, 1.5, 2.0))
    tracer.enter(0)
    tracer.enter(1)
    tracer.exit()
    tracer.exit()
    path = tmp_path / "spans.npz"
    tracer.write_spans(path, {"workload": "w"})
    with numpy.load(path) as data:
        assert list(data["names"]) == ["layer.f", "layer.g"]
        assert data["name"].tolist() == [1, 0]
        assert data["parent_id"].tolist() == [1, 0]
        assert (data["end_s"] - data["start_s"]).tolist() == [0.25, 1.0]
        assert json.loads(str(data["metadata"])) == {"workload": "w"}


# ---------------------------------------------------------------------- #
# Wrapper install and restore
# ---------------------------------------------------------------------- #


@pytest.fixture
def fake_modules(monkeypatch):
    """A module defining a function, and one that imported it by name."""
    lib = types.ModuleType("fakepkg.lib")

    def helper(x):
        return x + 1

    lib.helper = helper

    class Widget:
        def spin(self, n):
            return lib.helper(n) * 2

    lib.Widget = Widget
    user = types.ModuleType("fakepkg.user")
    user.helper = helper
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return lib, user


def test_install_wraps_every_binding_and_restores(fake_modules):
    lib, user = fake_modules
    original_helper = lib.helper
    original_spin = lib.Widget.__dict__["spin"]
    tracer = Tracer(["lib.spin", "lib.helper"])
    probes = [
        Probe("lib.spin", lib.Widget, "spin"),
        Probe("lib.helper", lib, "helper"),
    ]
    with installed(tracer, probes, module_prefix="fakepkg"):
        assert lib.helper is not original_helper
        assert user.helper is lib.helper  # the by-name import is wrapped too
        assert lib.Widget().spin(1) == 4
        assert user.helper(1) == 2
    assert lib.helper is original_helper
    assert user.helper is original_helper
    assert lib.Widget.__dict__["spin"] is original_spin
    assert tracer.calls == [1, 2]
    # Exit order: helper nested in spin, spin, then the top-level helper.
    assert list(tracer.parent_id) == [1, 0, 0]


def test_install_restores_after_an_exception(fake_modules):
    lib, _ = fake_modules
    original = lib.Widget.__dict__["spin"]
    tracer = Tracer(["lib.spin"])
    with pytest.raises(RuntimeError):
        with installed(tracer, [Probe("lib.spin", lib.Widget, "spin")]):
            raise RuntimeError("boom")
    assert lib.Widget.__dict__["spin"] is original


def test_spans_close_when_the_wrapped_function_raises(fake_modules):
    lib, _ = fake_modules

    def broken(self, n):
        raise ValueError(n)

    lib.Widget.spin = broken
    tracer = Tracer(["lib.spin"])
    with installed(tracer, [Probe("lib.spin", lib.Widget, "spin")]):
        with pytest.raises(ValueError):
            lib.Widget().spin(3)
    tracer.check_complete()
    assert tracer.calls == [1]


def test_probe_on_inherited_method_is_refused(fake_modules):
    lib, _ = fake_modules

    class Child(lib.Widget):
        pass

    tracer = Tracer(["lib.spin"])
    with pytest.raises(AttributeError):
        with installed(tracer, [Probe("lib.spin", Child, "spin")]):
            pass


def test_layer_table_installs_and_restores_exactly():
    probes = layers.run_probes([]) + layers.setup_probes()
    before = [
        (probe.owner, probe.attr, vars(probe.owner)[probe.attr])
        for probe in probes
    ]
    tracer = Tracer(layers.SPAN_NAMES)
    with installed(tracer, probes):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


# ---------------------------------------------------------------------- #
# Output gate and traced-run isolation
# ---------------------------------------------------------------------- #

TINY = workloads.Workload(
    "tiny",
    "small mixed job list for harness tests",
    lambda seed: [
        JobSpec(
            preset="medium",
            scale=0.1,
            duration_days=5.0,
            trace_seed=seed,
            events_per_10k=15.0,
            repair_seed=seed,
        ),
        JobSpec(
            kind="chaos",
            preset="medium",
            scale=0.06,
            duration_days=0.5,
            trace_seed=seed,
            events_per_10k=400.0,
            chaos_preset="mild",
            fault_seed=seed + 1,
        ),
    ],
)


@pytest.fixture(scope="module")
def tiny_reference():
    specs = TINY.specs(3)
    workloads.build_scenarios(specs)
    result = workloads.run_pass(TINY, specs)
    assert result.problems == [] and result.failed_jobs == 0
    return specs, result.digests


def test_digest_gate_catches_a_perturbed_result(tiny_reference, monkeypatch):
    specs, expected = tiny_reference
    assert workloads.run_pass(TINY, specs, expected).failed_jobs == 0

    real = workloads.execute_job

    def perturbed(spec):
        record = real(spec)
        if spec.kind == "chaos":
            record.result.metrics.onsets += 1
        return record

    monkeypatch.setattr(workloads, "execute_job", perturbed)
    result = workloads.run_pass(TINY, specs, expected)
    assert result.failed_jobs == 1
    assert result.digests[0] == expected[0] and result.digests[1] is None
    assert any("digest" in problem for problem in result.problems)


def test_a_raising_job_counts_as_failed(tiny_reference, monkeypatch):
    specs, _ = tiny_reference

    def crash(spec):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(workloads, "execute_job", crash)
    result = workloads.run_pass(TINY, specs)
    assert result.failed_jobs == len(specs)
    assert result.digests == [None] * len(specs)


def test_times_are_divided_by_the_reference_loop_around_each_job():
    def job(wall_s):
        return types.SimpleNamespace(wall_s=wall_s)

    def pass_(job_s, ref_s, records):
        return workloads.PassResult(sum(job_s), records, [], [], job_s, ref_s)

    # Reference times 1, 3, 1 put the means 2 and 2 around the two jobs.
    passes = [
        pass_([4.0, 6.0], [1.0, 3.0, 1.0], [job(4.0), job(6.0)]),
        pass_([2.0, 2.0], [0.5, 0.5, 0.5], [job(1.0), None]),
        pass_([1.0, 9.0], [1.0, 1.0, 1.0], [job(2.0), job(9.0)]),
    ]
    # Job ratios: (2, 4, 1) and (3, 4, 9); medians 2 and 4, sum 6.
    # From the records, over every job run: 2, 3, 2, 2, 9; median 2.
    # Times are those ratios in units of the nominal reference loop.
    nominal = reference.NOMINAL_S
    assert harness.nominal_times(passes) == (
        pytest.approx(6.0 * nominal),
        pytest.approx(2.0 * nominal),
    )


def test_reference_loop_runs_for_the_time_asked():
    start = time.perf_counter()
    mean_s = reference.reference_loop(0.2)
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.2
    assert 0 < mean_s <= elapsed


def test_reference_runs_around_every_job(tiny_reference):
    specs, expected = tiny_reference
    asked = []

    def reference(at_least_s):
        asked.append(at_least_s)
        return 0.5

    result = workloads.run_pass(TINY, specs, expected, reference=reference)
    assert result.failed_jobs == 0
    assert result.ref_s == [0.5] * (len(specs) + 1)
    assert asked == [0.0] + [
        workloads.REFERENCE_SHARE * t for t in result.job_s
    ]
    assert len(result.job_s) == len(specs)
    assert sum(result.job_s) == pytest.approx(result.wall_s)


def test_traced_pass_matches_untraced_and_counts_repeat(tiny_reference):
    specs, expected = tiny_reference
    tracer = Tracer(layers.SPAN_NAMES)
    counters = []
    probes = layers.run_probes(counters)
    seen = []
    for _ in range(2):
        tracer.reset()
        counters.clear()
        with installed(tracer, probes):
            result = workloads.run_pass(TINY, specs, expected)
        tracer.check_complete()
        assert result.failed_jobs == 0 and result.digests == expected
        seen.append((list(tracer.calls), dict(tracer.counters)))
    assert seen[0] == seen[1]
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["kernel.run_until"] == len(specs)
    assert calls["sanitizer.ingest"] > 0 and calls["topology.copy"] == 2
    # Wrappers are gone: an untraced pass records nothing further.
    before = list(tracer.calls)
    workloads.run_pass(TINY, specs, expected)
    assert tracer.calls == before


# ---------------------------------------------------------------------- #
# Workloads and BENCHMARK.json agree with the harness
# ---------------------------------------------------------------------- #


def test_workload_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.specs(7) == workload.specs(7)
        assert workload.specs(7) != workload.specs(8)
        for spec in workload.specs(7):
            spec.validate()


def test_benchmark_json_names_what_the_harness_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    assert end_to_end == harness.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert per_layer == layers.PER_LAYER_UNITS


def test_recorded_digests_cover_every_workload():
    recorded = workloads.load_recorded()
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, by_seed in recorded.items():
        assert "0" in by_seed
        jobs = len(workloads.WORKLOADS[name].specs(0))
        assert all(len(entry["jobs"]) == jobs for entry in by_seed.values())
