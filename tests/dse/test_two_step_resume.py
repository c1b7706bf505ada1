"""Two-step (RS+GA / GS+GA) checkpoint/resume: bit-identical continuation.

The composite checkpoint carries a candidate cursor plus the running
candidate's engine state, so a run interrupted anywhere — including
mid-candidate — and resumed from its snapshot (in-process or after a
JSON round trip against a fresh graph) finishes with exactly the result
of an uninterrupted run. ``max_evaluations`` caps the cumulative count
across candidates exactly, and resuming a killed capped run under the
same cap continues the same trajectory.
"""

from __future__ import annotations

import json

import pytest

from repro.cost.evaluator import Evaluator
from repro.dse.two_step import (
    TwoStepCheckpoint,
    checkpoint_finished,
    checkpoint_tick,
    grid_search_ga,
    random_search_ga,
)
from repro.errors import SearchError
from repro.ga.engine import GAConfig
from repro.graphs.serialize import graph_from_dict, graph_to_dict
from repro.runs.checkpoint import (
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.search_space import CapacitySpace

from ..conftest import build_chain


@pytest.fixture(scope="module")
def graph():
    return build_chain(depth=6)


SPACE = CapacitySpace.paper_separate()
GA = GAConfig(population_size=6, generations=2, seed=0, record_samples=True)


def rs(graph, **kwargs):
    return random_search_ga(
        Evaluator(graph), SPACE, num_candidates=2, ga_config=GA, seed=7,
        **kwargs,
    )


def gs(graph, **kwargs):
    return grid_search_ga(
        Evaluator(graph), SPACE, stride=16, max_candidates=2, ga_config=GA,
        **kwargs,
    )


def results_equal(a, b) -> bool:
    return (
        a.best_cost == b.best_cost
        and a.best_genome.key() == b.best_genome.key()
        and a.best_genome.memory == b.best_genome.memory
        and a.num_evaluations == b.num_evaluations
        and a.history == b.history
        and [
            (s.index, s.cost, s.total_buffer_bytes, s.generation)
            for s in a.samples
        ]
        == [
            (s.index, s.cost, s.total_buffer_bytes, s.generation)
            for s in b.samples
        ]
    )


def capture(graph, method=rs, **kwargs):
    checkpoints: dict[int, TwoStepCheckpoint] = {}
    result = method(
        graph,
        on_checkpoint=lambda ck: checkpoints.__setitem__(
            checkpoint_tick(ck, GA), ck
        ),
        **kwargs,
    )
    return result, checkpoints


class TestHookCadence:
    def test_one_snapshot_per_inner_generation(self, graph):
        _, checkpoints = capture(graph)
        assert len(checkpoints) == 2 * (GA.generations + 1)
        assert checkpoint_finished(checkpoints[max(checkpoints)], GA)
        assert not checkpoint_finished(checkpoints[min(checkpoints)], GA)

    def test_hook_does_not_perturb_the_search(self, graph):
        plain = rs(graph)
        hooked, _ = capture(graph)
        assert results_equal(plain, hooked)

    def test_cursor_advances_through_candidates(self, graph):
        _, checkpoints = capture(graph)
        cursors = [checkpoints[t].candidate for t in sorted(checkpoints)]
        assert cursors == sorted(cursors)
        assert set(cursors) == {0, 1}


class TestResume:
    @pytest.mark.parametrize("method", [rs, gs], ids=["rs", "gs"])
    def test_bit_identical_from_every_checkpoint(self, graph, method):
        full, checkpoints = capture(graph, method=method)
        for tick in sorted(checkpoints):
            resumed = method(graph, resume_from=checkpoints[tick])
            assert results_equal(full, resumed), f"diverged at tick {tick}"

    def test_json_round_trip_with_fresh_graph(self, graph):
        full, checkpoints = capture(graph)
        mid = checkpoints[sorted(checkpoints)[len(checkpoints) // 2]]
        payload = json.loads(
            json.dumps(checkpoint_to_dict(mid, kind="rs"))
        )
        fresh_graph = graph_from_dict(graph_to_dict(graph))
        restored = checkpoint_from_dict(payload, fresh_graph)
        resumed = rs(fresh_graph, resume_from=restored)
        assert results_equal(full, resumed)

    def test_method_mismatch_rejected(self, graph):
        _, checkpoints = capture(graph)
        with pytest.raises(SearchError):
            gs(graph, resume_from=checkpoints[min(checkpoints)])

    def test_candidate_drift_rejected(self, graph):
        """A checkpoint from a different seed's candidate list must not
        silently continue a different search."""
        _, checkpoints = capture(graph)
        mid = checkpoints[min(checkpoints)]
        with pytest.raises(SearchError):
            random_search_ga(
                Evaluator(graph), SPACE, num_candidates=2, ga_config=GA,
                seed=8, resume_from=mid,
            )


class TestEvaluationCap:
    def test_cap_stops_exactly(self, graph):
        result, _ = capture(graph, max_evaluations=15)
        assert result.num_evaluations == 15

    def test_cap_mid_second_candidate(self, graph):
        full, _ = capture(graph)
        per_candidate = full.num_evaluations // 2
        cap = per_candidate + 3
        result, checkpoints = capture(graph, max_evaluations=cap)
        assert result.num_evaluations == cap
        assert checkpoints[max(checkpoints)].candidate == 1

    def test_killed_capped_run_resumes_identically(self, graph):
        capped, checkpoints = capture(graph, max_evaluations=20)
        for tick in sorted(checkpoints):
            resumed = rs(
                graph, resume_from=checkpoints[tick], max_evaluations=20
            )
            assert results_equal(capped, resumed), f"diverged at tick {tick}"

    def test_grown_cap_schedule_is_deterministic(self, graph):
        def walk():
            _, first = capture(graph, max_evaluations=15)
            last = first[max(first)]
            return rs(graph, resume_from=last, max_evaluations=30)

        a, b = walk(), walk()
        assert results_equal(a, b)
        assert a.num_evaluations == 30

    def test_invalid_cap_rejected(self, graph):
        with pytest.raises(SearchError):
            rs(graph, max_evaluations=0)
