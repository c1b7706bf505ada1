"""SA checkpoint/resume: bit-identical continuation of the chain.

Same contract as the GA/NSGA checkpoints: a chain interrupted after any
step and resumed from its snapshot — in-process or after a JSON round
trip against a fresh graph object — finishes with exactly the result of
an uninterrupted run. Plus the budget behavior: ``max_evaluations``
stops the chain exactly at the cap, and a later resume with a higher
cap continues the same trajectory.
"""

from __future__ import annotations

import json

import pytest

from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.errors import SearchError
from repro.ga.annealing import SACheckpoint, SAConfig, simulated_annealing
from repro.ga.problem import OptimizationProblem
from repro.graphs.serialize import graph_from_dict, graph_to_dict
from repro.runs.checkpoint import checkpoint_from_dict, checkpoint_to_dict
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


CONFIG = SAConfig(steps=60, seed=13, checkpoint_interval=7, record_samples=True)


def results_equal(a, b) -> bool:
    return (
        a.best_cost == b.best_cost
        and a.best_genome.key() == b.best_genome.key()
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


def capture(graph, config=CONFIG, **kwargs):
    checkpoints: dict[int, SACheckpoint] = {}
    result = simulated_annealing(
        co_problem(graph),
        config,
        on_step=lambda ck: checkpoints.__setitem__(ck.step, ck),
        **kwargs,
    )
    return result, checkpoints


class TestHookCadence:
    def test_emits_initial_interval_and_final(self, graph):
        _, checkpoints = capture(graph)
        steps = sorted(checkpoints)
        assert steps[0] == 0
        assert steps[-1] == CONFIG.steps
        assert all(s % CONFIG.checkpoint_interval == 0 for s in steps[:-1])

    def test_hook_does_not_perturb_the_chain(self, graph):
        plain = simulated_annealing(co_problem(graph), CONFIG)
        hooked, _ = capture(graph)
        assert results_equal(plain, hooked)


class TestResume:
    @pytest.mark.parametrize("step", [0, 7, 28, 56])
    def test_bit_identical_from_any_checkpoint(self, graph, step):
        full, checkpoints = capture(graph)
        resumed = simulated_annealing(
            co_problem(graph), CONFIG, resume_from=checkpoints[step]
        )
        assert results_equal(full, resumed)

    def test_json_round_trip_with_fresh_graph(self, graph):
        full, checkpoints = capture(graph)
        payload = json.loads(
            json.dumps(checkpoint_to_dict(checkpoints[28]))
        )
        fresh_graph = graph_from_dict(graph_to_dict(graph))
        restored = checkpoint_from_dict(payload, fresh_graph)
        resumed = simulated_annealing(
            co_problem(fresh_graph), CONFIG, resume_from=restored
        )
        assert results_equal(full, resumed)

    def test_checkpoint_past_config_rejected(self, graph):
        _, checkpoints = capture(graph)
        short = SAConfig(steps=10, seed=13, checkpoint_interval=7)
        with pytest.raises(SearchError):
            simulated_annealing(
                co_problem(graph), short, resume_from=checkpoints[28]
            )


class TestEvaluationCap:
    def test_cap_stops_exactly(self, graph):
        result, checkpoints = capture(graph, max_evaluations=20)
        assert result.num_evaluations == 20
        assert max(checkpoints) == 19  # 19 steps + the initial eval

    def test_capped_then_extended_matches_uncapped(self, graph):
        full, _ = capture(graph)
        _, capped = capture(graph, max_evaluations=20)
        final = simulated_annealing(
            co_problem(graph), CONFIG, resume_from=capped[max(capped)]
        )
        assert results_equal(full, final)

    def test_invalid_cap_rejected(self, graph):
        with pytest.raises(SearchError):
            simulated_annealing(co_problem(graph), CONFIG, max_evaluations=0)
