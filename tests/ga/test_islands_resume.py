"""Island-model checkpoint/resume: bit-identical continuation.

Same contract as the GA/SA/NSGA checkpoints: a search interrupted after
any island generation and resumed from its composite snapshot —
in-process or after a JSON round trip against a fresh graph object —
finishes with exactly the result of an uninterrupted run. Plus the
budget behavior: ``max_samples`` stops the fleet exactly at the global
cap, and a killed capped run resumed under the same cap (or a grown
cap, re-walking the same schedule) continues the same trajectory.
"""

from __future__ import annotations

import json

import pytest

from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.errors import SearchError
from repro.ga.engine import GAConfig
from repro.ga.islands import (
    IslandConfig,
    IslandsCheckpoint,
    checkpoint_finished,
    checkpoint_tick,
    island_search,
)
from repro.ga.problem import OptimizationProblem
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


def co_problem(graph) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.ENERGY,
        alpha=0.002,
        space=CapacitySpace.paper_separate(),
    )


CONFIG = IslandConfig(
    base=GAConfig(population_size=6, generations=1, seed=0),
    num_islands=2,
    epochs=2,
    epoch_generations=2,
    seed=3,
)


def results_equal(a, b) -> bool:
    return (
        a.best_cost == b.best_cost
        and a.best_genome.key() == b.best_genome.key()
        and a.best_genome.memory == b.best_genome.memory
        and a.num_evaluations == b.num_evaluations
        and a.history == b.history
    )


def capture(graph, config=CONFIG, **kwargs):
    checkpoints: dict[int, IslandsCheckpoint] = {}
    result = island_search(
        co_problem(graph),
        config,
        on_generation=lambda ck: checkpoints.__setitem__(
            checkpoint_tick(ck, config), ck
        ),
        **kwargs,
    )
    return result, checkpoints


class TestHookCadence:
    def test_one_snapshot_per_island_generation(self, graph):
        _, checkpoints = capture(graph)
        per_island = CONFIG.epoch_generations + 1
        expected = CONFIG.epochs * CONFIG.num_islands * per_island
        assert len(checkpoints) == expected
        assert checkpoint_finished(checkpoints[max(checkpoints)], CONFIG)
        assert not checkpoint_finished(checkpoints[min(checkpoints)], CONFIG)

    def test_hook_does_not_perturb_the_search(self, graph):
        plain = island_search(co_problem(graph), CONFIG)
        hooked, _ = capture(graph)
        assert results_equal(plain, hooked)

    def test_evaluations_sum_over_islands(self, graph):
        result, checkpoints = capture(graph)
        final = checkpoints[max(checkpoints)]
        assert final.evaluations == result.num_evaluations
        assert final.evaluations == sum(
            state.evaluations for state in final.islands
        )


class TestResume:
    def test_bit_identical_from_every_checkpoint(self, graph):
        full, checkpoints = capture(graph)
        for tick in sorted(checkpoints):
            resumed = island_search(
                co_problem(graph), CONFIG, resume_from=checkpoints[tick]
            )
            assert results_equal(full, resumed), f"diverged at tick {tick}"

    def test_json_round_trip_with_fresh_graph(self, graph):
        full, checkpoints = capture(graph)
        mid = checkpoints[sorted(checkpoints)[len(checkpoints) // 2]]
        payload = json.loads(json.dumps(checkpoint_to_dict(mid)))
        fresh_graph = graph_from_dict(graph_to_dict(graph))
        restored = checkpoint_from_dict(payload, fresh_graph)
        resumed = island_search(
            co_problem(fresh_graph), CONFIG, resume_from=restored
        )
        assert results_equal(full, resumed)

    def test_json_round_trip_of_pristine_island_states(self, graph):
        """The earliest snapshot still holds never-run islands (empty
        population, infinite best cost) — they must survive JSON too."""
        full, checkpoints = capture(graph)
        first = checkpoints[min(checkpoints)]
        assert any(state.evaluations == 0 for state in first.islands)
        payload = json.loads(json.dumps(checkpoint_to_dict(first)))
        fresh_graph = graph_from_dict(graph_to_dict(graph))
        restored = checkpoint_from_dict(payload, fresh_graph)
        resumed = island_search(
            co_problem(fresh_graph), CONFIG, resume_from=restored
        )
        assert results_equal(full, resumed)

    def test_island_count_mismatch_rejected(self, graph):
        _, checkpoints = capture(graph)
        wider = IslandConfig(
            base=CONFIG.base, num_islands=3, epochs=CONFIG.epochs,
            epoch_generations=CONFIG.epoch_generations, seed=CONFIG.seed,
        )
        with pytest.raises(SearchError):
            island_search(
                co_problem(graph), wider,
                resume_from=checkpoints[min(checkpoints)],
            )

    def test_epoch_past_config_rejected(self, graph):
        _, checkpoints = capture(graph)
        final = checkpoints[max(checkpoints)]
        shorter = IslandConfig(
            base=CONFIG.base, num_islands=CONFIG.num_islands, epochs=1,
            epoch_generations=CONFIG.epoch_generations, seed=CONFIG.seed,
        )
        with pytest.raises(SearchError):
            island_search(co_problem(graph), shorter, resume_from=final)


class TestSampleCap:
    def test_cap_stops_exactly(self, graph):
        result, _ = capture(graph, max_samples=20)
        assert result.num_evaluations == 20

    def test_killed_capped_run_resumes_identically(self, graph):
        capped, checkpoints = capture(graph, max_samples=40)
        for tick in sorted(checkpoints):
            resumed = island_search(
                co_problem(graph), CONFIG,
                resume_from=checkpoints[tick], max_samples=40,
            )
            assert results_equal(capped, resumed), f"diverged at tick {tick}"

    def test_grown_cap_schedule_is_deterministic(self, graph):
        def walk():
            _, first = capture(graph, max_samples=20)
            last = first[max(first)]
            return island_search(
                co_problem(graph), CONFIG, resume_from=last, max_samples=40
            )

        a, b = walk(), walk()
        assert results_equal(a, b)
        assert a.num_evaluations == 40

    def test_invalid_cap_rejected(self, graph):
        with pytest.raises(SearchError):
            island_search(co_problem(graph), CONFIG, max_samples=0)
