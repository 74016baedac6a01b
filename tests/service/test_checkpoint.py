"""Checkpoint file format: round-trip, integrity validation, pinning.

A checkpoint is one JSON header line + a pickle payload.  The reader
must verify format, version, length and digest *before* unpickling;
the schema validator must reach the same verdicts without unpickling
at all.
"""

import json

import pytest

from repro.obs import validate_checkpoint_file
from repro.obs.schema import (
    CHECKPOINT_FORMAT as SCHEMA_FORMAT,
    CHECKPOINT_FORMAT_VERSION as SCHEMA_VERSION,
)
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_VERSION,
    read_checkpoint,
    read_checkpoint_header,
    write_checkpoint,
)


def test_schema_literals_pinned_against_service():
    """The checkpoint writer takes its format literals from the schema
    module; this pin fails if either side grows its own copy."""
    assert SCHEMA_FORMAT == CHECKPOINT_FORMAT
    assert SCHEMA_VERSION == CHECKPOINT_FORMAT_VERSION


def write_sample(path, state=None):
    return write_checkpoint(
        path,
        state if state is not None else {"heap": [1, 2, 3], "t": 900.0},
        sim_time_s=1800.0,
        boundary_index=2,
        config={"days": 0.5, "seed": 7},
    )


class TestRoundTrip:
    def test_header_and_payload_survive(self, tmp_path):
        path = tmp_path / "c.ckpt"
        written = write_sample(path)
        header, state = read_checkpoint(path)
        assert header == written
        assert state == {"heap": [1, 2, 3], "t": 900.0}
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["boundary_index"] == 2
        assert header["sim_time_s"] == 1800.0
        assert header["config"]["seed"] == 7
        assert len(header["state_digest"]) == 64

    def test_header_readable_without_unpickling(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        header = read_checkpoint_header(path)
        assert header["payload_bytes"] > 0

    def test_validator_accepts_valid_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        assert validate_checkpoint_file(path) == []


def corrupt(path, **header_edits):
    """Rewrite the file with edited header fields, payload untouched."""
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header.update(header_edits)
    path.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + raw[newline + 1 :]
    )


class TestIntegrity:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        corrupt(path, format="not-a-checkpoint")
        with pytest.raises(ValueError, match="format"):
            read_checkpoint(path)
        assert any("format" in p for p in validate_checkpoint_file(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        corrupt(path, format_version=CHECKPOINT_FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError):
            read_checkpoint(path)
        assert validate_checkpoint_file(path) != []

    def test_tampered_payload_fails_digest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload bit; length unchanged
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="digest"):
            read_checkpoint(path)
        assert any(
            "state_digest" in p for p in validate_checkpoint_file(path)
        )

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"no newline here")
        with pytest.raises(ValueError):
            read_checkpoint(path)
