"""The telemetry sink: schema, activation, and crash/disk tolerance."""

from __future__ import annotations

import json

from repro.obs import (
    TELEMETRY_VERSION,
    TelemetrySink,
    activate,
    current_sink,
    emit,
)
from repro.obs.aggregate import iter_jsonl_text


def records(path):
    return list(iter_jsonl_text(path.read_text()))


class TestSink:
    def test_records_are_versioned_and_clocked(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 123.5)
        sink.emit("cell.start", cell="c1", seed=7)
        sink.close()
        [record] = records(tmp_path / "t.jsonl")
        assert record == {
            "v": TELEMETRY_VERSION,
            "ts": 123.5,
            "kind": "cell.start",
            "cell": "c1",
            "seed": 7,
        }

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(path, clock=lambda: 1.0) as sink:
            sink.emit("a")
        with TelemetrySink(path, clock=lambda: 2.0) as sink:
            sink.emit("b")
        assert [r["kind"] for r in records(path)] == ["a", "b"]

    def test_nonfinite_floats_become_null(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 0.0)
        sink.emit("x", cost=float("inf"), nested={"n": float("nan")})
        sink.close()
        [record] = records(tmp_path / "t.jsonl")
        assert record["cost"] is None
        assert record["nested"] == {"n": None}

    def test_unwritable_path_degrades_to_lost_telemetry(self, tmp_path):
        # The sink's path is a directory: every write fails with OSError,
        # which must be swallowed — telemetry loss must never fail a cell.
        sink = TelemetrySink(tmp_path, clock=lambda: 0.0)
        sink.emit("a")
        sink.emit("b")
        sink.close()
        assert sink.events_written == 0

    def test_counts_events(self, tmp_path):
        with TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 0.0) as sink:
            sink.emit("a")
            sink.emit("b")
        assert sink.events_written == 2


class TestActivation:
    def test_emit_without_sink_is_a_noop(self, tmp_path):
        assert current_sink() is None
        emit("orphan", x=1)  # must not raise, must not write anywhere
        assert list(tmp_path.iterdir()) == []

    def test_activate_scopes_the_sink(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 0.0)
        with activate(sink):
            assert current_sink() is sink
            emit("inside")
        assert current_sink() is None
        emit("outside")
        sink.close()
        assert [r["kind"] for r in records(tmp_path / "t.jsonl")] == ["inside"]

    def test_activate_nests_and_restores(self, tmp_path):
        outer = TelemetrySink(tmp_path / "outer.jsonl", clock=lambda: 0.0)
        inner = TelemetrySink(tmp_path / "inner.jsonl", clock=lambda: 0.0)
        with activate(outer):
            with activate(inner):
                emit("deep")
            emit("shallow")
        outer.close()
        inner.close()
        assert [r["kind"] for r in records(tmp_path / "inner.jsonl")] == ["deep"]
        assert [r["kind"] for r in records(tmp_path / "outer.jsonl")] == ["shallow"]

    def test_activate_none_silences_an_active_sink(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 0.0)
        with activate(sink):
            with activate(None):
                emit("silenced")
            emit("kept")
        sink.close()
        assert [r["kind"] for r in records(tmp_path / "t.jsonl")] == ["kept"]

    def test_restores_on_exception(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t.jsonl", clock=lambda: 0.0)
        try:
            with activate(sink):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_sink() is None
        sink.close()


class TestTornTail:
    def test_partial_final_line_is_invisible_to_readers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(path, clock=lambda: 0.0) as sink:
            sink.emit("whole")
        # Simulate a writer SIGKILLed mid-append.
        with path.open("a") as fh:
            fh.write('{"v": 1, "kind": "torn", "ts": 9')
        assert [r["kind"] for r in records(path)] == ["whole"]

    def test_records_are_line_delimited_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(path, clock=lambda: 0.0) as sink:
            sink.emit("a", payload={"deep": [1, 2]})
            sink.emit("b")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)
