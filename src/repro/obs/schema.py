"""Schema validation for every artifact the program writes.

Shared by the golden-file tests, the ``repro obs --validate`` CLI, and the
CI artifact job, so "the emitted artifact is well-formed" means the same
thing everywhere.  Validators collect human-readable problems instead of
raising: an empty list means valid.

Each artifact's shape is data.  A *field table* maps a key to a kind: a
name from :data:`_KINDS`, a tuple of the allowed values, or a nested
table for an object-valued field.  One checker, :func:`_fields`, applies
a table to an object; one walker, :func:`_jsonl`, parses the
header-first JSONL streams (events, audit, sweep, service report,
alerts).  Only rules that relate records or values to each other stay as
code in the validators: row counts, row order, ranks, digests.  The
Prometheus snapshot is a line grammar, not JSON, and has its own parser.
"""

from __future__ import annotations

import hashlib
import json
import re
import reprlib
from typing import Callable, Dict, List, Sequence, Tuple

from repro.registry import SENSING_PIPELINES as _SENSING_PIPELINES
from repro.registry import STRATEGIES as SWEEP_STRATEGY_NAMES
from repro.registry import TOPO_KINDS as _TOPO_KINDS

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_BODY_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*$'
)
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _base_name(name: str, declared: Dict[str, str]) -> str:
    """Map histogram series names back to their declared family."""
    for suffix in _HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if declared.get(base) == "histogram":
                return base
    return name


def validate_prometheus_text(text: str) -> List[str]:
    """Problems with a Prometheus snapshot (empty list = valid)."""
    problems: List[str] = []
    lines = text.splitlines()
    if not lines:
        return ["empty file"]
    if not lines[0].startswith("# repro-obs prometheus snapshot format="):
        problems.append("missing repro-obs snapshot header on line 1")
    if not any(line.startswith("# repro-version: ") for line in lines):
        problems.append("missing '# repro-version:' provenance header")

    declared: Dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram"):
                    problems.append(f"line {lineno}: unknown TYPE {kind!r}")
                declared[parts[2]] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels and not _LABEL_BODY_RE.match(labels[1:-1]):
            problems.append(f"line {lineno}: malformed labels {labels!r}")
        value = match.group("value")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r}")
        if _base_name(name, declared) not in declared:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE")
    return problems


# --------------------------------------------------------------------- #
# The type vocabulary and the two engines
# --------------------------------------------------------------------- #


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TRACE_PHASES = ("X", "M", "B", "E", "i")

#: kind -> (label, predicate).  ``int`` and ``num`` never accept a bool;
#: ``metric`` (benchmark metric values) does.  A ``?`` kind also accepts
#: null, and an absent key reads as null.
_KINDS = {
    "int": ("integer", _is_int),
    "int>=0": ("non-negative integer", lambda v: _is_int(v) and v >= 0),
    "int>0": ("positive integer", lambda v: _is_int(v) and v > 0),
    "num": ("numeric", _is_num),
    "num>=0": ("non-negative numeric", lambda v: _is_num(v) and v >= 0),
    "num?": ("numeric or null", lambda v: v is None or _is_num(v)),
    "metric": ("numeric", lambda v: isinstance(v, (int, float))),
    "str": ("string", lambda v: isinstance(v, str)),
    "str?": ("string or null", lambda v: v is None or isinstance(v, str)),
    "text": ("non-empty string", lambda v: isinstance(v, str) and v != ""),
    "bool": ("boolean", lambda v: isinstance(v, bool)),
    "obj": ("object", lambda v: isinstance(v, dict)),
    "obj+": ("non-empty object", lambda v: isinstance(v, dict) and bool(v)),
    "list": ("list", lambda v: isinstance(v, list)),
    "list+": ("non-empty list", lambda v: isinstance(v, list) and bool(v)),
    "sha256": (
        "'sha256:' digest",
        lambda v: isinstance(v, str) and v.startswith("sha256:"),
    ),
    "phase": ("trace phase X/M/B/E/i", lambda v: v in _TRACE_PHASES),
}


def _kind(kind) -> Tuple[str, Callable[[object], bool]]:
    """(label, predicate) of a kind name or a tuple of allowed values."""
    if not isinstance(kind, tuple):
        return _KINDS[kind]
    label = repr(kind[0]) if len(kind) == 1 else (
        "one of " + ", ".join(map(repr, kind))
    )
    # Matching the type keeps True from passing for 1 (and 1 for True).
    return label, lambda v: any(
        type(v) is type(allowed) and v == allowed for allowed in kind
    )


def _fields(
    obj: object, table: Dict, where: str = "", prefix: str = ""
) -> List[str]:
    """Problems with ``obj`` against the ``{key: kind}`` field ``table``.

    ``where`` locates the object in its artifact (``"line 3"``); a nested
    table checks an object-valued field, naming its keys ``prefix``-dotted.
    """
    lead = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        return [f"{lead}not an object"]
    problems: List[str] = []
    for key, kind in table.items():
        name, value = prefix + key, obj.get(key)
        if isinstance(kind, dict):
            if isinstance(value, dict):
                problems += _fields(value, kind, where, f"{name}.")
                continue
            label = "object"
        else:
            label, ok = _kind(kind)
            if ok(value):
                continue
        if key in obj:
            problems.append(
                f"{lead}bad {name!r}: {reprlib.repr(value)} (want {label})"
            )
        else:
            problems.append(f"{lead}missing {name!r} (want {label})")
    return problems


def _values(obj: Dict, kind, where: str = "", prefix: str = "") -> List[str]:
    """Problems with every value of the object ``obj`` against ``kind``."""
    return _fields(obj, dict.fromkeys(obj, kind), where, prefix)


def _items(value: object):
    """``enumerate(value)`` for a list; nothing otherwise."""
    return enumerate(value) if isinstance(value, list) else ()


def _members(value: object):
    """``value.items()`` for an object; nothing otherwise."""
    return value.items() if isinstance(value, dict) else ()


def _jsonl(lines: Sequence[str], header_table: Dict):
    """Walk a header-first JSONL stream.

    Returns ``(problems, header, records)``: the header's problems against
    ``header_table`` plus one per unparseable or non-object line, the
    parsed header (``{}`` if it is not an object), and the
    ``(lineno, record)`` pairs of every object line after it.
    """
    if not lines:
        return ["empty stream"], {}, []
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"], {}, []
    problems = _fields(header, header_table, "line 1")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if isinstance(record, dict):
            records.append((lineno, record))
        else:
            problems.append(f"line {lineno}: record is not an object")
    return problems, header if isinstance(header, dict) else {}, records


def _provenance(fmt: str, version="int") -> Dict:
    """Field table of the format / version / repro_version stamp."""
    return {
        "format": (fmt,),
        "format_version": version,
        "repro_version": "text",
    }


def _stream_header(fmt: str, version="int", **extra) -> Dict:
    """Field table of a JSONL stream's header line."""
    return {"type": ("header",), **_provenance(fmt, version), **extra}


# --------------------------------------------------------------------- #
# Format literals, declared once here and imported by the writers
# --------------------------------------------------------------------- #

CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped when the checkpoint header or payload layout changes.
CHECKPOINT_FORMAT_VERSION = 1
SERVICE_REPORT_FORMAT = "repro-service-report"
#: Bumped when the service report layout changes incompatibly.
SERVICE_REPORT_FORMAT_VERSION = 1
HEALTH_FORMAT = "repro-health-scorecard"
#: Bumped when the scorecard layout changes incompatibly.
HEALTH_FORMAT_VERSION = 1
ALERTS_FORMAT = "repro-health-alerts"
#: Bumped when the alert record layout changes incompatibly.
ALERTS_FORMAT_VERSION = 1
BENCH_TRAJECTORY_FORMAT = "repro-bench-trajectory"
BENCH_TRAJECTORY_FORMAT_VERSION = 1

# --------------------------------------------------------------------- #
# Field tables
# --------------------------------------------------------------------- #

#: ``SWEEP_STRATEGY_NAMES`` (the strategy names a sweep/tournament row
#: may carry) is an alias into :mod:`repro.registry` — itself
#: stdlib-only, so the schema module stays import-light.

#: Integer-count chaos columns every ok chaos row must carry.
CHAOS_COUNT_COLUMNS = (
    "polls",
    "missed_polls",
    "degraded_samples",
    "false_disables",
    "missed_mitigations",
    "detections",
    "decisions_in_degraded_mode",
    "quarantined_peak",
    "quarantine_violations",
    "capacity_violations",
)

#: Numeric health columns every ok per-DCN entry of a fleet roll-up row
#: must carry.
FLEET_DCN_COLUMNS = (
    "penalty_integral",
    "mean_penalty",
    "onsets",
    "disabled_on_onset",
    "repairs_completed",
    "failed_repairs",
    "worst_tor_fraction_min",
)

_EVENTS_HEADER = _stream_header("repro-obs-events")
_EVENT = {"type": ("event",), "name": "str", "sim_time_s": "num"}

_AUDIT_HEADER = {"type": ("header",), "format": ("repro-audit",)}
_DECISION = {"type": ("decision",), "sim_time_s": "num", "verdict": "str"}

_TRACE = {"traceEvents": "list", "otherData": {"repro_version": "text"}}
_TRACE_EVENT = {"name": "str", "ph": "phase", "pid": "int", "tid": "int"}
#: Complete (``ph == "X"``) events also carry a start and a duration.
_TRACE_SPAN = {"ts": "num>=0", "dur": "num>=0"}

_CHAOS_COUNTS = dict.fromkeys(CHAOS_COUNT_COLUMNS, "int")

#: The compact per-run health block (``HealthReport.row()``).
_HEALTH = {
    **dict.fromkeys(
        ("detections", "detection_pending", "false_disables",
         "quarantine_peak", "alerts_fired"),
        "int",
    ),
    **dict.fromkeys(
        ("detection_latency_p50_s", "detection_latency_p95_s",
         "ttm_p50_s", "ttm_p95_s", "headroom_min"),
        "num?",
    ),
    "false_disable_rate": "num",
    "breaker_open_duty": "num",
    "slo_ok": "bool",
}

#: The sweep-row diagnosis block (``DiagnosisStats.row()`` plus the spec
#: axes stamped by the aggregator); every ``precision_*``/``recall_*``
#: column is numeric or null besides.
_DIAGNOSIS = {
    "sensing": _SENSING_PIPELINES,
    "congestion_preset": "str?",
    "miswire_pairs": "int>=0",
    "diagnoses": "int",
    "congestion_mitigations": "int",
    "missed_corrupting": "int",
}

_SWEEP_HEADER = _stream_header(
    "repro-sweep", jobs_total="int", grid_digest="sha256"
)
_RESULT = {
    "job": "int",
    "spec": "obj",
    "seed_used": "int",
    "status": ("ok", "failed"),
}
#: Ok rows of every job kind but ``calibrate``.
_OK_RESULT = {
    "penalty_integral": "num",
    "duration_s": "num",
    "series_digest": "sha256",
}
#: Ok ``chaos`` rows besides (the diagnosis block is optional).
_CHAOS_RESULT = {
    "chaos": {
        "invariants_ok": "bool",
        "preset": "str",
        "detection_lag_polls": "num",
        **_CHAOS_COUNTS,
    },
    "health": _HEALTH,
}
_FAILED_RESULT = {"error": {"kind": "text"}}

_LEADERBOARD = {
    "preset": "str",
    "penalty": "str",
    "capacity": "num",
    "lg_coverage": "num",
    "entries": "list+",
}
_LEADERBOARD_ENTRY = {
    "strategy": SWEEP_STRATEGY_NAMES,
    "mean_penalty_integral": "num",
    "runs": "int>0",
}

_FLEET = {
    **dict.fromkeys(("dcns", "ok", "failed", "links_design_total"), "int"),
    **dict.fromkeys(
        ("penalty_integral_total", "onsets_total", "repairs_total"), "num"
    ),
    "health": dict.fromkeys(
        ("healthy_dcns", "degraded_dcns", "failed_dcns"), "int"
    ),
    "per_dcn": "list+",
}
_FLEET_DCN = {
    "dcn": "str",
    "topo_kind": _TOPO_KINDS,
    "healthy": "bool",
    "status": ("ok", "failed"),
}
_FLEET_DCN_OK = dict.fromkeys(FLEET_DCN_COLUMNS, "num")

_CHECKPOINT = {
    **_provenance(CHECKPOINT_FORMAT, (CHECKPOINT_FORMAT_VERSION,)),
    "sim_time_s": "num",
    "boundary_index": "int",
    "config": "obj",
    "payload_bytes": "int",
    "state_digest": "str",
}

_SERVICE_HEADER = _stream_header(
    SERVICE_REPORT_FORMAT, config="obj", shards="int>0"
)
_SERVICE_RESULT = {
    "penalty_integral": "num",
    "mean_penalty": "num",
    "fingerprint": "sha256",
    "invariants_ok": "bool",
    "chaos": _CHAOS_COUNTS,
    "queue": {
        "accounting_ok": (True,),
        **dict.fromkeys(
            ("offered", "accepted", "deferred", "requeued", "dropped",
             "drained", "pending", "backpressure_losses"),
            "int",
        ),
    },
    "audit": {"evicted_decisions": "int"},
    "health": _HEALTH,
}
_SERVICE_SHARD = {"log": "obj", "links": "int", "tors": "int"}

_BENCH_RECORD = {
    **_provenance("repro-benchmark"),
    "name": "text",
    "environment": {"cpus": "int"},
    "metrics": "obj+",
}

_SCORECARD = {
    **_provenance(HEALTH_FORMAT, (HEALTH_FORMAT_VERSION,)),
    "sensing": ("telemetry", "oracle"),
    "complete": "bool",
    "end_s": "num",
    "fleet": "obj",
    "shards": "list",
    "links": "list",
    "links_omitted": "int",
    "slo": {
        "rules": "list",
        "alerts": "list",
        "alerts_fired": "int",
        "ok": "bool",
    },
}
#: The fleet sections of a telemetry-sensing scorecard.
_TELEMETRY_FLEET = {
    "detection": dict.fromkeys(("count", "pending", "overdue"), "int"),
    "mitigation": "obj",
    "disables": {"false_rate": "num"},
    "penalty": "obj",
    "capacity": "obj",
    "quarantine": "obj",
    "breaker": "obj",
    "debounce": "obj",
}
_SCORECARD_LINK = {"link": "str", "onset_s": "num"}
_SLO_RULE = {"state": ("ok", "firing")}

_ALERTS_HEADER = _stream_header(
    ALERTS_FORMAT, (ALERTS_FORMAT_VERSION,), rules="list", alerts="int"
)
_ALERT = {
    "type": ("alert",),
    "sim_time_s": "num",
    "rule": "str",
    "state": ("firing", "resolved"),
    "severity": ("info", "warning", "critical"),
    "value": "num",
}

_TRAJECTORY = {
    **_provenance(
        BENCH_TRAJECTORY_FORMAT, (BENCH_TRAJECTORY_FORMAT_VERSION,)
    ),
    "benchmarks": "obj+",
    "baseline": "obj",
}
_TRAJECTORY_ENTRY = {"metrics": "obj+", "runtime_metrics": "list"}

# --------------------------------------------------------------------- #
# Validators: the tables plus the cross-record rules
# --------------------------------------------------------------------- #


def validate_events_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a JSONL event stream (empty list = valid)."""
    problems, _, records = _jsonl(lines, _EVENTS_HEADER)
    for lineno, record in records:
        problems += _fields(record, _EVENT, f"line {lineno}")
    return problems


def validate_chrome_trace(obj: object) -> List[str]:
    """Problems with a Chrome-trace object (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["trace is not a JSON object"]
    problems = _fields(obj, _TRACE)
    for index, event in _items(obj.get("traceEvents")):
        where = f"traceEvents[{index}]"
        problems += _fields(event, _TRACE_EVENT, where)
        if isinstance(event, dict) and event.get("ph") == "X":
            problems += _fields(event, _TRACE_SPAN, where)
    return problems


def validate_audit_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an AuditLog JSONL export (empty list = valid)."""
    problems, _, records = _jsonl(lines, _AUDIT_HEADER)
    for lineno, record in records:
        problems += _fields(record, _DECISION, f"line {lineno}")
    return problems


def _diagnosis_row_problems(diagnosis: object, where: str) -> List[str]:
    """Problems with one sweep-row ``diagnosis`` block (empty = valid).

    The block is optional — plain chaos rows (no congestion co-model, no
    miswiring, telemetry sensing) omit it entirely — but when present it
    must carry the sensing/congestion/miswire axes plus the confusion
    counters, and every ``precision_*``/``recall_*`` column must be
    numeric or null (null = cause never seen in truth/verdicts).
    """
    if not isinstance(diagnosis, dict):
        return [f"{where}: 'diagnosis' is not an object"]
    rates = [k for k in diagnosis if k.startswith(("precision_", "recall_"))]
    table = {**_DIAGNOSIS, **dict.fromkeys(rates, "num?")}
    return _fields(diagnosis, table, where, "diagnosis.")


def _result_row_problems(record: Dict, where: str) -> List[str]:
    """Problems with one ``type="result"`` sweep row."""
    problems = _fields(record, _RESULT, where)
    spec = record.get("spec")
    job_kind = spec.get("kind") if isinstance(spec, dict) else None
    status = record.get("status")
    if status == "failed":
        problems += _fields(record, _FAILED_RESULT, where)
    elif status == "ok" and job_kind != "calibrate":
        problems += _fields(record, _OK_RESULT, where)
        if job_kind == "chaos":
            problems += _fields(record, _CHAOS_RESULT, where)
            if "diagnosis" in record:
                problems += _diagnosis_row_problems(record["diagnosis"], where)
    return problems


def _leaderboard_row_problems(record: Dict, where: str) -> List[str]:
    """Problems with one ``type="leaderboard"`` tournament row."""
    problems = _fields(record, _LEADERBOARD, where)
    for position, entry in _items(record.get("entries")):
        # The rank is the 1-based position in the ranked list.
        table = {"rank": (position + 1,), **_LEADERBOARD_ENTRY}
        problems += _fields(entry, table, f"{where}: entries[{position}]")
    return problems


def _fleet_row_problems(record: Dict, where: str) -> List[str]:
    """Problems with one ``type="fleet"`` roll-up row."""
    problems = _fields(record, _FLEET, where)
    per_dcn = record.get("per_dcn")
    dcns = record.get("dcns")
    if isinstance(per_dcn, list) and _is_int(dcns) and len(per_dcn) != dcns:
        problems.append(
            f"{where}: fleet says dcns={dcns} but per_dcn has "
            f"{len(per_dcn)} entries"
        )
    for position, entry in _items(per_dcn):
        at = f"{where}: per_dcn[{position}]"
        problems += _fields(entry, _FLEET_DCN, at)
        if isinstance(entry, dict) and entry.get("status") == "ok":
            problems += _fields(entry, _FLEET_DCN_OK, at)
    return problems


#: Sweep row type -> its checker.  Tournament files append ranked
#: leaderboard rows and fleet files one roll-up row after the result
#: rows; only result rows count toward ``jobs_total``.
_SWEEP_ROWS = {
    "result": _result_row_problems,
    "leaderboard": _leaderboard_row_problems,
    "fleet": _fleet_row_problems,
}


def validate_sweep_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro sweep`` JSONL export (empty list = valid)."""
    problems, header, records = _jsonl(lines, _SWEEP_HEADER)
    jobs_seen = 0
    for lineno, record in records:
        row_type = record.get("type")
        # The type is outside input: it may be unhashable.
        check = _SWEEP_ROWS.get(row_type) if isinstance(row_type, str) else None
        if check is None:
            problems.append(f"line {lineno}: unknown type {row_type!r}")
            continue
        if row_type == "result":
            jobs_seen += 1
        problems += check(record, f"line {lineno}")
    jobs_total = header.get("jobs_total")
    if _is_int(jobs_total) and jobs_seen != jobs_total:
        problems.append(
            f"header says jobs_total={jobs_total} but stream has "
            f"{jobs_seen} result rows"
        )
    return problems


def validate_checkpoint_file(path) -> List[str]:
    """Problems with a service checkpoint file (empty list = valid).

    Validates the JSON header (format, version, required fields) and the
    payload integrity (length and SHA-256 digest) **without unpickling**
    — safe to run on untrusted or truncated files.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    newline = raw.find(b"\n")
    if newline < 0:
        return ["no header line (not a checkpoint)"]
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"header line is not JSON ({exc})"]
    if not isinstance(header, dict):
        return ["header is not an object"]
    problems = _fields(header, _CHECKPOINT)
    payload = raw[newline + 1 :]
    declared = header.get("payload_bytes")
    if _is_int(declared) and declared != len(payload):
        problems.append(
            f"payload is {len(payload)} bytes, 'payload_bytes' says {declared}"
        )
    digest = header.get("state_digest")
    if isinstance(digest, str) and (
        hashlib.sha256(payload).hexdigest() != digest
    ):
        problems.append("state_digest mismatch (corrupt payload)")
    return problems


def validate_service_report_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro serve`` report (empty list = valid)."""
    problems, header, records = _jsonl(lines, _SERVICE_HEADER)
    results_seen = 0
    shards_seen = 0
    for lineno, record in records:
        where = f"line {lineno}"
        row_type = record.get("type")
        if row_type == "result":
            results_seen += 1
            problems += _fields(record, _SERVICE_RESULT, where)
        elif row_type == "shard":
            # Shard rows come in shard order.
            table = {"shard": (shards_seen,), **_SERVICE_SHARD}
            problems += _fields(record, table, where)
            shards_seen += 1
        else:
            problems.append(f"{where}: unknown type {row_type!r}")
    if results_seen != 1:
        problems.append(f"stream has {results_seen} result rows (want 1)")
    shards = header.get("shards")
    if _is_int(shards) and shards_seen != shards:
        problems.append(
            f"header says shards={shards} but stream has "
            f"{shards_seen} shard rows"
        )
    return problems


def validate_benchmark_record(record: object) -> List[str]:
    """Problems with a machine-readable benchmark result (empty = valid).

    Every ``benchmarks/test_runtime_*`` module writes one of these next to
    its human-readable summary so regressions are diffable by tooling.
    """
    if not isinstance(record, dict):
        return ["benchmark record is not a JSON object"]
    problems = _fields(record, _BENCH_RECORD)
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        problems += _values(metrics, "metric", prefix="metrics.")
    return problems


def validate_health_scorecard(obj: object) -> List[str]:
    """Problems with a health scorecard object (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["scorecard is not a JSON object"]
    problems = _fields(obj, _SCORECARD)
    fleet = obj.get("fleet")
    if obj.get("sensing") == "telemetry" and isinstance(fleet, dict):
        problems += _fields(fleet, _TELEMETRY_FLEET, prefix="fleet.")
    for index, shard in _items(obj.get("shards")):
        # Shard rows come in shard order.
        problems += _fields(shard, {"shard": (index,)}, f"shards[{index}]")
    for index, link in _items(obj.get("links")):
        problems += _fields(link, _SCORECARD_LINK, f"links[{index}]")
    slo = obj.get("slo")
    if isinstance(slo, dict):
        fired, alerts = slo.get("alerts_fired"), slo.get("alerts")
        if isinstance(alerts, list) and _is_int(fired) and (
            fired != len(alerts)
        ):
            problems.append(
                f"slo.alerts_fired={fired} disagrees with "
                f"len(slo.alerts)={len(alerts)}"
            )
        for index, rule in _items(slo.get("rules")):
            problems += _fields(rule, _SLO_RULE, f"slo.rules[{index}]")
    return problems


def validate_alerts_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an SLO alert stream (empty list = valid)."""
    problems, header, records = _jsonl(lines, _ALERTS_HEADER)
    last_time = None
    for lineno, record in records:
        problems += _fields(record, _ALERT, f"line {lineno}")
        time_s = record.get("sim_time_s")
        if not _is_num(time_s):
            continue
        if last_time is not None and time_s < last_time:
            problems.append(f"line {lineno}: alerts out of event-time order")
        else:
            last_time = time_s
    declared = header.get("alerts")
    if _is_int(declared) and len(records) != declared:
        problems.append(
            f"header says alerts={declared} but stream has "
            f"{len(records)} alert rows"
        )
    return problems


def validate_bench_trajectory(obj: object) -> List[str]:
    """Problems with a benchmark trajectory file (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["trajectory is not a JSON object"]
    problems = _fields(obj, _TRAJECTORY)
    for name, entry in _members(obj.get("benchmarks")):
        where = f"benchmarks[{name!r}]"
        problems += _fields(entry, _TRAJECTORY_ENTRY, where)
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(metrics, dict):
            continue
        problems += _values(metrics, "metric", where, "metrics.")
        for _, key in _items(entry.get("runtime_metrics")):
            if not isinstance(key, str) or key not in metrics:
                problems.append(
                    f"{where}: runtime metric {key!r} not in metrics"
                )
    for name, entry in _members(obj.get("baseline")):
        where = f"baseline[{name!r}]"
        if isinstance(entry, dict):
            problems += _values(entry, "num", where)
        else:
            problems.append(f"{where}: not an object")
    return problems
