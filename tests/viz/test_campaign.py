"""The live campaign status view: states, tails, rendering."""

from __future__ import annotations

import json
import time

from repro.distrib.lease import try_acquire_lease
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteMatrix, run_cell, run_suite
from repro.runs.transport import FsTransport, RunNode
from repro.viz.campaign import campaign_snapshot, render_campaign, tail_jsonl_node


MATRIX = SuiteMatrix(
    networks=("vgg16",), schemes=("cocco", "sa"), scale="tiny", seed=0
)


def tail(tmp_path, filename="h.jsonl"):
    """The last record of ``tmp_path/filename`` through an fs transport node."""
    return tail_jsonl_node(RunNode(FsTransport(tmp_path)), filename)


class TestTailJsonl:
    def test_missing_file(self, tmp_path):
        assert tail(tmp_path, "none.jsonl") is None

    def test_last_line_wins(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 0}\n{"generation": 7}\n')
        assert tail(tmp_path) == {"generation": 7}

    def test_torn_final_line_falls_back(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 3}\n{"generation": 4, "trunc')
        assert tail(tmp_path) == {"generation": 3}

    def test_long_file_reads_only_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with path.open("w") as fh:
            for i in range(5000):
                fh.write(json.dumps({"generation": i}) + "\n")
        assert tail(tmp_path) == {"generation": 4999}

    def test_torn_line_parsing_as_scalar_is_skipped(self, tmp_path):
        # A record truncated inside a numeric field still parses — as a
        # bare scalar. It must be skipped, not returned (regression: a
        # non-dict return crashed the snapshot's .get() calls).
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 3}\n{"best_cost": 17')
        assert tail(tmp_path) == {"generation": 3}

    def test_unterminated_final_line_never_wins(self, tmp_path):
        # Writers emit line+"\n" in one write, so a final line without
        # the newline is torn even when its text parses as an object.
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 3}\n{"generation": 4}')
        assert tail(tmp_path) == {"generation": 3}

    def test_complete_scalar_line_is_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 3}\n42\n')
        assert tail(tmp_path) == {"generation": 3}

    def test_all_torn_returns_none(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"generation": 0')
        assert tail(tmp_path) is None


class TestSnapshot:
    def test_pending_then_complete(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        before = campaign_snapshot(MATRIX, registry)
        assert [s.state for s in before] == ["pending", "pending"]
        run_suite(MATRIX, tmp_path / "reg")
        after = campaign_snapshot(MATRIX, registry)
        assert [s.state for s in after] == ["complete", "complete"]
        assert all(s.evaluations for s in after)

    def test_running_and_stalled_states(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cells = MATRIX.cells()
        fresh = registry.run_node(
            cells[0].config_dict(), cells[0].seed(MATRIX.seed)
        )
        stale = registry.run_node(
            cells[1].config_dict(), cells[1].seed(MATRIX.seed)
        )
        assert try_acquire_lease(fresh, "alive", ttl=60) is not None
        assert try_acquire_lease(stale, "dead", ttl=0.01) is not None
        time.sleep(0.05)
        snapshot = campaign_snapshot(MATRIX, registry)
        assert snapshot[0].state == "running"
        assert snapshot[0].owner == "alive"
        assert snapshot[1].state == "stalled"

    def test_failed_state(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        run = registry.open_run(cell.config_dict(), cell.seed(MATRIX.seed))
        run.record_error("boom")
        snapshot = campaign_snapshot(MATRIX, registry)
        assert snapshot[0].state == "failed"

    def test_exhausted_state_with_budget(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        budget = 40  # 20 per cell: both pause at their caps
        run_suite(MATRIX, tmp_path / "reg", budget=budget)
        snapshot = campaign_snapshot(MATRIX, registry, budget=budget)
        assert [s.state for s in snapshot] == ["exhausted", "exhausted"]
        assert all(s.sample_cap == 20 for s in snapshot)
        assert all(s.evaluations >= s.sample_cap for s in snapshot)

    def test_streamed_progress_surfaces(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        run_cell(cell, MATRIX.seed, registry)
        # drop the completion marker to observe the mid-run view
        (registry.run_path(cell.config_dict(), cell.seed(0)) / "result.json").unlink()
        snapshot = campaign_snapshot(MATRIX, registry)
        assert snapshot[0].state == "pending"
        assert snapshot[0].progress is not None
        assert snapshot[0].best_cost is not None


class TestRender:
    def test_table_contains_cells_and_tally(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        text = render_campaign(campaign_snapshot(MATRIX, registry))
        assert "2 pending" in text
        assert "vgg16/separate/energy/b1/cocco" in text
        assert "state" in text
