"""Mutation table for the artifact validators in :mod:`repro.obs.schema`.

Each validator gets one clean artifact the program itself writes (CLI
exports, sweep/tournament/fleet streams, a service report and its
checkpoint, the committed benchmark record and trajectory).  The clean
artifact must validate with no problems.  Then every declared field is
mutated three ways — deleted, set to a value of the wrong type, and (for
integer/numeric fields) set to ``True`` — and each mutation must yield at
least one problem that names the field (or, for a nested field, the key
that holds it).  A check dropped from a validator shows up here as a
mutation that validates clean.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import (
    CHAOS_COUNT_COLUMNS,
    FLEET_DCN_COLUMNS,
    validate_alerts_jsonl,
    validate_audit_jsonl,
    validate_bench_trajectory,
    validate_benchmark_record,
    validate_checkpoint_file,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_health_scorecard,
    validate_prometheus_text,
    validate_service_report_jsonl,
    validate_sweep_jsonl,
)
from repro.parallel import (
    GridSpec,
    JobSpec,
    ParallelRunner,
    run_tournament,
    tournament_grid,
    worker_cache,
    write_sweep_jsonl,
    write_tournament_jsonl,
)
from repro.parallel.fleet import fleet_dcns, run_fleet, write_fleet_jsonl

ROOT = Path(__file__).resolve().parents[2]

#: Wrong-typed replacement per field kind.  A trailing ``?`` marks a
#: field that may be absent (or null), so deleting it is not a mutation.
WRONG = {
    "int": "x",
    "num": "x",
    "str": 5,
    "text": [],
    "bool": "x",
    "obj": "x",
    "list": "x",
    "sha256": 5,
    "enum": 5,
    "version": "x",
    "metric": "x",
}
#: Kinds whose values are numbers, so ``True`` must not pass for one.
NUMERIC = {"int", "num", "version"}

HEALTH_ROW = [
    *[(key, "int") for key in (
        "detections", "detection_pending", "false_disables",
        "quarantine_peak", "alerts_fired",
    )],
    *[(key, "num?") for key in (
        "detection_latency_p50_s", "detection_latency_p95_s",
        "ttm_p50_s", "ttm_p95_s", "headroom_min",
    )],
    ("false_disable_rate", "num"),
    ("breaker_open_duty", "num"),
    ("slo_ok", "bool"),
]


def _header(*extra):
    return [
        ((0, "type"), "enum"),
        ((0, "format"), "enum"),
        ((0, "format_version"), "int"),
        ((0, "repro_version"), "text"),
        *[((0, key), kind) for key, kind in extra],
    ]


def _nested(line, block, fields):
    return [((line, block, key), kind) for key, kind in fields]


#: artifact name -> [(path, kind)].  In a JSONL artifact the first path
#: element is the parsed line index (negative counts from the end).
FIELDS = {
    "events": [
        *_header(),
        ((1, "type"), "enum"),
        ((1, "name"), "str"),
        ((1, "sim_time_s"), "num"),
    ],
    "audit": [
        ((0, "type"), "enum"),
        ((0, "format"), "enum"),
        ((1, "type"), "enum"),
        ((1, "sim_time_s"), "num"),
        ((1, "verdict"), "str"),
    ],
    "trace": [
        (("traceEvents",), "list"),
        (("otherData",), "obj"),
        (("otherData", "repro_version"), "text"),
        *[(("traceEvents", -1, key), kind) for key, kind in (
            ("name", "str"), ("ph", "enum"), ("ts", "num"),
            ("dur", "num"), ("pid", "int"), ("tid", "int"),
        )],
    ],
    "sweep-chaos": [
        *_header(("jobs_total", "int"), ("grid_digest", "sha256")),
        ((1, "type"), "enum"),
        ((1, "job"), "int"),
        ((1, "spec"), "obj"),
        ((1, "seed_used"), "int"),
        ((1, "status"), "enum"),
        ((1, "penalty_integral"), "num"),
        ((1, "duration_s"), "num"),
        ((1, "series_digest"), "sha256"),
        ((1, "chaos"), "obj"),
        ((1, "health"), "obj"),
        ((1, "diagnosis"), "obj?"),
        *_nested(1, "chaos", [
            ("invariants_ok", "bool"),
            ("preset", "str"),
            ("detection_lag_polls", "num"),
            *[(key, "int") for key in CHAOS_COUNT_COLUMNS],
        ]),
        *_nested(1, "health", HEALTH_ROW),
        *_nested(1, "diagnosis", [
            ("sensing", "enum"),
            ("congestion_preset", "str?"),
            ("miswire_pairs", "int"),
            ("diagnoses", "int"),
            ("congestion_mitigations", "int"),
            ("missed_corrupting", "int"),
            ("precision_corruption", "num?"),
            ("recall_congestion", "num?"),
        ]),
    ],
    "sweep-failed": [
        ((1, "error"), "obj"),
        ((1, "error", "kind"), "text"),
    ],
    "sweep-tournament": [
        *[((-1, key), kind) for key, kind in (
            ("preset", "str"), ("penalty", "str"), ("capacity", "num"),
            ("lg_coverage", "num"), ("entries", "list"),
        )],
        *[((-1, "entries", 0, key), kind) for key, kind in (
            ("rank", "int"), ("strategy", "enum"),
            ("mean_penalty_integral", "num"), ("runs", "int"),
        )],
    ],
    "sweep-fleet": [
        *[((-1, key), "int") for key in (
            "dcns", "ok", "failed", "links_design_total",
        )],
        *[((-1, key), "num") for key in (
            "penalty_integral_total", "onsets_total", "repairs_total",
        )],
        ((-1, "health"), "obj"),
        *[((-1, "health", key), "int") for key in (
            "healthy_dcns", "degraded_dcns", "failed_dcns",
        )],
        ((-1, "per_dcn"), "list"),
        *[((-1, "per_dcn", 0, key), kind) for key, kind in (
            ("dcn", "str"), ("topo_kind", "enum"), ("healthy", "bool"),
            ("status", "enum"),
            *[(column, "num") for column in FLEET_DCN_COLUMNS],
        )],
    ],
    "checkpoint": [
        (("format",), "enum"),
        (("format_version",), "version"),
        (("repro_version",), "text"),
        (("sim_time_s",), "num"),
        (("boundary_index",), "int"),
        (("config",), "obj"),
        (("state_digest",), "str"),
    ],
    "service-report": [
        *_header(("config", "obj"), ("shards", "int")),
        ((1, "type"), "enum"),
        ((1, "penalty_integral"), "num"),
        ((1, "mean_penalty"), "num"),
        ((1, "fingerprint"), "sha256"),
        ((1, "invariants_ok"), "bool"),
        ((1, "chaos"), "obj"),
        ((1, "queue"), "obj"),
        ((1, "audit"), "obj"),
        ((1, "health"), "obj"),
        *_nested(1, "chaos", [(key, "int") for key in CHAOS_COUNT_COLUMNS]),
        *_nested(1, "queue", [
            ("accounting_ok", "bool"),
            *[(key, "int") for key in (
                "offered", "accepted", "deferred", "requeued", "dropped",
                "drained", "pending", "backpressure_losses",
            )],
        ]),
        ((1, "audit", "evicted_decisions"), "int"),
        *_nested(1, "health", HEALTH_ROW),
        ((2, "shard"), "int"),
        ((2, "log"), "obj"),
        ((2, "links"), "int"),
        ((2, "tors"), "int"),
    ],
    "scorecard": [
        (("format",), "enum"),
        (("format_version",), "version"),
        (("repro_version",), "text"),
        (("sensing",), "enum"),
        (("complete",), "bool"),
        (("end_s",), "num"),
        (("fleet",), "obj"),
        *[(("fleet", section), "obj") for section in (
            "detection", "mitigation", "disables", "penalty", "capacity",
            "quarantine", "breaker", "debounce",
        )],
        *[(("fleet", "detection", key), "int") for key in (
            "count", "pending", "overdue",
        )],
        (("fleet", "disables", "false_rate"), "num"),
        (("shards",), "list"),
        (("shards", 0, "shard"), "int"),
        (("links",), "list"),
        (("links", 0, "link"), "str"),
        (("links", 0, "onset_s"), "num"),
        (("links_omitted",), "int"),
        (("slo",), "obj"),
        (("slo", "rules"), "list"),
        (("slo", "alerts"), "list"),
        (("slo", "alerts_fired"), "int"),
        (("slo", "ok"), "bool"),
        (("slo", "rules", 0, "state"), "enum"),
    ],
    "alerts": [
        ((0, "type"), "enum"),
        ((0, "format"), "enum"),
        ((0, "format_version"), "version"),
        ((0, "repro_version"), "text"),
        ((0, "rules"), "list"),
        ((0, "alerts"), "int"),
        ((1, "type"), "enum"),
        ((1, "sim_time_s"), "num"),
        ((1, "rule"), "str"),
        ((1, "state"), "enum"),
        ((1, "severity"), "enum"),
        ((1, "value"), "num"),
    ],
    "bench-record": [
        (("format",), "enum"),
        (("format_version",), "int"),
        (("repro_version",), "text"),
        (("name",), "text"),
        (("environment",), "obj"),
        (("environment", "cpus"), "int"),
        (("metrics",), "obj"),
        (("metrics", "serial_s"), "metric?"),
    ],
    "trajectory": [
        (("format",), "enum"),
        (("format_version",), "version"),
        (("repro_version",), "text"),
        (("benchmarks",), "obj"),
        (("benchmarks", "runtime_fleet"), "obj?"),
        (("benchmarks", "runtime_fleet", "metrics"), "obj"),
        (("benchmarks", "runtime_fleet", "metrics", "fleet_serial_s"),
         "metric?"),
        (("benchmarks", "runtime_fleet", "runtime_metrics"), "list"),
        (("baseline",), "obj"),
        (("baseline", "runtime_fleet"), "obj?"),
        (("baseline", "runtime_fleet", "fleet_serial_s"), "num?"),
    ],
}

#: artifact name -> (validator, form).  ``lines`` artifacts are JSONL
#: streams, ``object`` artifacts one JSON value, ``checkpoint`` a header
#: line plus an opaque payload.
VALIDATORS = {
    "metrics": (validate_prometheus_text, "text"),
    "events": (validate_events_jsonl, "lines"),
    "audit": (validate_audit_jsonl, "lines"),
    "trace": (validate_chrome_trace, "object"),
    "sweep-chaos": (validate_sweep_jsonl, "lines"),
    "sweep-failed": (validate_sweep_jsonl, "lines"),
    "sweep-tournament": (validate_sweep_jsonl, "lines"),
    "sweep-fleet": (validate_sweep_jsonl, "lines"),
    "checkpoint": (validate_checkpoint_file, "checkpoint"),
    "service-report": (validate_service_report_jsonl, "lines"),
    "scorecard": (validate_health_scorecard, "object"),
    "alerts": (validate_alerts_jsonl, "lines"),
    "bench-record": (validate_benchmark_record, "object"),
    "trajectory": (validate_bench_trajectory, "object"),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """name -> raw artifact as the program wrote it (text, bytes, path)."""
    out = tmp_path_factory.mktemp("artifacts")
    assert main([
        "chaos", "--preset", "harsh", "--days", "2", "--scale", "0.08",
        "--events", "400",
        "--metrics-out", str(out / "metrics.prom"),
        "--events-out", str(out / "events.jsonl"),
        "--trace-out", str(out / "trace.json"),
        "--audit-out", str(out / "audit.jsonl"),
        "--health-out", str(out / "health.json"),
        "--alerts-out", str(out / "alerts.jsonl"),
    ]) == 0
    assert main([
        "serve", "--days", "0.5", "--scale", "0.06", "--seed", "7",
        "--fault-seed", "7", "--chaos-preset", "mild",
        "--checkpoint-every", "4", "--checkpoint-dir", str(out / "ck"),
        "--out", str(out / "report.jsonl"),
    ]) == 0

    worker_cache().clear()
    chaos_grid = GridSpec(
        chaos_presets=["mild"],
        congestion_presets=["hotspots"],
        trace_seeds=[0],
        scale=0.06,
        duration_days=1.0,
        events_per_10k=400.0,
    )
    write_sweep_jsonl(
        out / "chaos.jsonl",
        ParallelRunner(jobs=1).run(chaos_grid.expand()),
        timing=False,
    )
    failing = JobSpec(
        kind="calibrate", trace_seed=1, knobs=(("fail_attempts", 99.0),)
    )
    write_sweep_jsonl(
        out / "failed.jsonl",
        ParallelRunner(jobs=1, max_retries=0).run([failing]),
        timing=False,
    )
    tournament = tournament_grid(
        presets=["medium"], capacities=[0.75], penalties=["linear"],
        lg_coverages=[0.9], trace_seeds=[0], scale=0.06,
        duration_days=2.0, events_per_10k=40.0,
    )
    write_tournament_jsonl(
        out / "tournament.jsonl",
        run_tournament(tournament, jobs=1),
        timing=False,
    )
    dcns = fleet_dcns(2)
    fleet, _ = run_fleet(dcns=dcns, jobs=1, scale=0.05, duration_days=2.0)
    write_fleet_jsonl(out / "fleet.jsonl", fleet, dcns, timing=False)
    worker_cache().clear()

    def text(name):
        return (out / name).read_text(encoding="utf-8")

    return {
        "metrics": text("metrics.prom"),
        "events": text("events.jsonl"),
        "audit": text("audit.jsonl"),
        "trace": text("trace.json"),
        "sweep-chaos": text("chaos.jsonl"),
        "sweep-failed": text("failed.jsonl"),
        "sweep-tournament": text("tournament.jsonl"),
        "sweep-fleet": text("fleet.jsonl"),
        "checkpoint": (out / "ck" / "checkpoint-000001.ckpt").read_bytes(),
        "service-report": text("report.jsonl"),
        "scorecard": text("health.json"),
        "alerts": text("alerts.jsonl"),
        "bench-record": (
            ROOT / "benchmarks" / "results" / "runtime_chaos_sweep.json"
        ).read_text(encoding="utf-8"),
        "trajectory": (ROOT / "BENCH_trajectory.json").read_text(
            encoding="utf-8"
        ),
    }


def _parse(name, raw):
    """The artifact as a mutable document for its form."""
    form = VALIDATORS[name][1]
    if form == "lines":
        return [json.loads(line) for line in raw.splitlines() if line.strip()]
    if form == "object":
        return json.loads(raw)
    newline = raw.index(b"\n")
    return {"header": json.loads(raw[:newline]), "payload": raw[newline + 1:]}


def _validate(name, doc, tmp_path):
    """Run the artifact's validator on ``doc`` rendered back to its form."""
    validator, form = VALIDATORS[name]
    if form == "lines":
        return validator([json.dumps(record) for record in doc])
    if form == "object":
        return validator(doc)
    path = tmp_path / "mutant.ckpt"
    path.write_bytes(
        json.dumps(doc["header"]).encode("utf-8") + b"\n" + doc["payload"]
    )
    return validator(path)


def _parent(name, doc, path):
    """(container, key) that ``path`` addresses inside ``doc``."""
    if VALIDATORS[name][1] == "checkpoint":
        doc = doc["header"]
    for step in path[:-1]:
        doc = doc[step]
    assert path[-1] in (range(len(doc)) if isinstance(doc, list) else doc), (
        f"{name}: clean artifact has no {path!r}"
    )
    return doc, path[-1]


def _cases():
    for name, fields in FIELDS.items():
        for path, kind in fields:
            base = kind.rstrip("?")
            label = ".".join(str(step) for step in path)
            if not kind.endswith("?"):
                yield pytest.param(
                    name, path, "delete", id=f"{name}:{label}:delete"
                )
            yield pytest.param(
                name, path, WRONG[base], id=f"{name}:{label}:wrong-type"
            )
            if base in NUMERIC or kind == "num?":
                yield pytest.param(name, path, True, id=f"{name}:{label}:bool")


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_clean_artifact_validates(artifacts, name, tmp_path):
    validator, form = VALIDATORS[name]
    raw = artifacts[name]
    if form == "text":
        assert validator(raw) == []
        return
    if form == "checkpoint":
        path = tmp_path / "clean.ckpt"
        path.write_bytes(raw)
        assert validator(path) == []
    elif form == "lines":
        assert validator(raw.splitlines()) == []
    else:
        assert validator(json.loads(raw)) == []
    # The re-rendered document the mutations start from is clean too.
    assert _validate(name, _parse(name, raw), tmp_path) == []


@pytest.mark.parametrize("name, path, mutation", list(_cases()))
def test_mutated_field_is_reported(artifacts, name, path, mutation, tmp_path):
    doc = copy.deepcopy(_parse(name, artifacts[name]))
    container, key = _parent(name, doc, path)
    if mutation == "delete":
        if isinstance(container, list):
            container.pop(key)
        else:
            del container[key]
    else:
        container[key] = mutation
    problems = _validate(name, doc, tmp_path)
    named = [str(step) for step in path if isinstance(step, str)]
    assert any(
        any(step in problem for step in named) for problem in problems
    ), f"{name}: {path!r} -> {mutation!r} gave {problems}"


#: Rules that relate records or values to each other, one mutation each:
#: (artifact, path, new value or "delete", substring the problem carries).
CROSS_RULES = [
    ("sweep-chaos", (0, "jobs_total"), 2, "jobs_total"),
    ("service-report", (0, "shards"), 99, "shards"),
    ("service-report", (2, "shard"), 1, "shard"),
    ("service-report", (1,), "delete", "result"),
    ("sweep-tournament", (-1, "entries", 0, "rank"), 2, "rank"),
    ("sweep-fleet", (-1, "dcns"), 3, "dcns"),
    ("alerts", (0, "alerts"), 5, "alerts"),
    ("scorecard", ("slo", "alerts_fired"), 7, "alerts_fired"),
    ("scorecard", ("shards", 0, "shard"), 1, "shards"),
    ("trajectory", ("benchmarks", "runtime_fleet", "runtime_metrics"),
     ["no_such_metric"], "no_such_metric"),
    ("checkpoint", ("payload_bytes",), 1, "payload"),
    ("checkpoint", ("state_digest",), "0" * 64, "state_digest"),
]


@pytest.mark.parametrize(
    "name, path, mutation, needle",
    CROSS_RULES,
    ids=[f"{rule[0]}:{rule[3]}" for rule in CROSS_RULES],
)
def test_cross_record_rule_is_reported(
    artifacts, name, path, mutation, needle, tmp_path
):
    doc = copy.deepcopy(_parse(name, artifacts[name]))
    container, key = _parent(name, doc, path)
    if mutation == "delete":
        container.pop(key)
    else:
        container[key] = mutation
    problems = _validate(name, doc, tmp_path)
    assert any(needle in problem for problem in problems), problems


def test_alerts_out_of_event_time_order(artifacts, tmp_path):
    doc = _parse("alerts", artifacts["alerts"])
    late = dict(doc[1], sim_time_s=doc[1]["sim_time_s"] + 1.0)
    doc[0]["alerts"] += 1
    doc.insert(1, late)
    problems = _validate("alerts", doc, tmp_path)
    assert any("order" in problem for problem in problems), problems


def test_truncated_checkpoint_payload(artifacts, tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(artifacts["checkpoint"][:-10])
    assert any("payload" in p for p in validate_checkpoint_file(path))


class TestMalformedInputIsReported:
    """Malformed input yields problems; the validators never raise."""

    def test_sweep_ok_row_with_null_spec(self, artifacts):
        doc = _parse("sweep-chaos", artifacts["sweep-chaos"])
        doc[1]["spec"] = None
        problems = validate_sweep_jsonl([json.dumps(row) for row in doc])
        assert any("spec" in problem for problem in problems)

    def test_scorecard_with_non_list_slo_rules(self, artifacts):
        card = json.loads(artifacts["scorecard"])
        card["slo"]["rules"] = 5
        problems = validate_health_scorecard(card)
        assert any("rules" in problem for problem in problems)

    def test_sweep_row_with_unhashable_type(self, artifacts):
        doc = _parse("sweep-chaos", artifacts["sweep-chaos"])
        doc[1]["type"] = {"nested": "object"}
        problems = validate_sweep_jsonl([json.dumps(row) for row in doc])
        assert any("unknown type" in problem for problem in problems)
