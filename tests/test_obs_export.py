"""Tests for the streaming exporters and trace session (repro.obs.export)."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.export import (
    ARTIFACT_SCHEMA_VERSION,
    JsonlWriter,
    TraceSession,
    fingerprint,
    git_revision,
    load_manifest,
    read_jsonl,
    to_jsonable,
)


class TestToJsonable:
    def test_native_types_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert to_jsonable(value) == value

    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.int64(7)) == 7
        assert to_jsonable(np.float32(0.5)) == 0.5
        assert to_jsonable(np.bool_(True)) is True
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_containers_recurse(self):
        out = to_jsonable({"a": (np.int64(1), [np.float64(2.0)])})
        assert out == {"a": [1, [2.0]]}
        json.dumps(out)

    def test_unexportable_raises(self):
        with pytest.raises(TypeError, match="not JSON-exportable"):
            to_jsonable(object())


class TestNumpyRoundTrip:
    """Exporter serialisation is lossless for numpy scalars.

    A float64 *is* a JSON double and an int64 fits Python's unbounded
    int, so writing through the JSONL layer and parsing back must
    reproduce the exact value — the property the streaming artifacts
    rely on for bit-identical reanalysis.
    """

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int64_lossless(self, value):
        scalar = np.int64(value)
        assert json.loads(json.dumps(to_jsonable(scalar))) == int(scalar)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64)
    )
    def test_float64_lossless(self, value):
        scalar = np.float64(value)
        decoded = json.loads(json.dumps(to_jsonable(scalar)))
        assert decoded == float(scalar)
        assert np.float64(decoded) == scalar  # exact, not approximate

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_float32_widens_exactly(self, value):
        scalar = np.float32(value)
        decoded = json.loads(json.dumps(to_jsonable(scalar)))
        assert np.float32(decoded) == scalar

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int32_lossless(self, value):
        assert json.loads(json.dumps(to_jsonable(np.int32(value)))) == value

    @given(st.booleans())
    def test_bool_lossless(self, value):
        decoded = json.loads(json.dumps(to_jsonable(np.bool_(value))))
        assert decoded is value


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_numpy_and_python_values_agree(self):
        assert fingerprint({"n": np.int64(3)}) == fingerprint({"n": 3})


class TestGitRevision:
    def test_inside_this_repo(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev) == 40

    def test_outside_a_repo(self, tmp_path):
        assert git_revision(cwd=tmp_path) == "unknown"


class TestJsonlWriter:
    def test_streaming_rows_roundtrip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with JsonlWriter(path) as writer:
            writer.write({"epoch": 0, "n": np.int64(3)})
            # flushed per record: readable before close
            assert read_jsonl(path) == [{"epoch": 0, "n": 3}]
            writer.write({"epoch": 1, "n": 4})
        assert writer.rows == 2
        assert read_jsonl(path) == [
            {"epoch": 0, "n": 3},
            {"epoch": 1, "n": 4},
        ]

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlWriter(tmp_path / "rows.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write({})

    def test_reader_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"tor', encoding="utf-8")
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


class TestTraceSession:
    def test_finish_writes_manifest_and_inventory(self, tmp_path):
        session = TraceSession(tmp_path / "run", info={"seed": 7})
        session.stream("epochs").write({"epoch": 0})
        session.save_arrays("occupancy", grid=np.eye(2))
        with session.tracer.span("root"):
            pass
        manifest_path = session.finish({"total": 3})

        manifest = load_manifest(tmp_path / "run")
        assert manifest_path.name == "manifest.json"
        assert manifest["schema"] == ARTIFACT_SCHEMA_VERSION
        assert manifest["seed"] == 7
        assert manifest["metrics"] == {"total": 3}
        assert manifest["duration_s"] >= 0
        assert manifest["artifacts"]["epochs.jsonl"] == {
            "kind": "jsonl",
            "rows": 1,
        }
        assert manifest["artifacts"]["occupancy.npz"] == {"kind": "arrays"}
        assert manifest["artifacts"]["spans.jsonl"]["rows"] == 1
        # every inventoried artifact exists on disk
        for name in manifest["artifacts"]:
            assert (tmp_path / "run" / name).is_file()

    def test_save_arrays_dedups_names(self, tmp_path):
        session = TraceSession(tmp_path / "run")
        first = session.save_arrays("occ", a=np.zeros(1))
        second = session.save_arrays("occ", a=np.ones(1))
        assert first.name == "occ.npz"
        assert second.name == "occ-1.npz"

    def test_finish_is_idempotent(self, tmp_path):
        session = TraceSession(tmp_path / "run")
        assert session.finish() == session.finish()


class TestSessionLifecycle:
    def test_start_and_end_install_and_clear(self, tmp_path):
        from repro import obs

        assert obs.current_session() is None
        session = obs.start_trace_session(tmp_path / "run", seed=1)
        try:
            assert obs.current_session() is session
            assert obs.trace.current_tracer() is session.tracer
            with pytest.raises(RuntimeError, match="already active"):
                obs.start_trace_session(tmp_path / "other")
        finally:
            manifest_path = obs.end_trace_session()
        assert obs.current_session() is None
        assert obs.trace.current_tracer() is None
        assert manifest_path.is_file()
