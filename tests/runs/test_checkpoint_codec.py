"""The checkpoint codec: completeness by round trip, and the v1 format.

Two guarantees:

* every field of every checkpoint class survives
  ``checkpoint_to_dict`` -> JSON -> ``checkpoint_from_dict`` unchanged —
  each class is built with *every* field set to a non-default value, so
  a field the codec dropped or defaulted would show up here;
* the committed ``data/<kind>/checkpoint.json`` files (mid-run
  checkpoints of tiny-scale ``vgg16`` cells at campaign seed 0, one per
  checkpoint kind) still decode, re-encode to the same dict, and resume
  to exactly the result of an uninterrupted run — the on-disk format
  stays readable across codec changes.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.config import MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.dse.nsga import MultiObjectivePoint, NSGACheckpoint
from repro.dse.two_step import TwoStepCheckpoint
from repro.ga.annealing import SACheckpoint
from repro.ga.engine import EngineCheckpoint, SampleRecord
from repro.ga.islands import IslandsCheckpoint
from repro.ga.problem import OptimizationProblem
from repro.graphs.zoo import get_model
from repro.runs.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteCell, run_cell
from repro.search_space import CapacitySpace
from repro.units import kb

from ..conftest import build_chain

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def graph():
    return build_chain(depth=6)


def genome(graph, seed: int):
    problem = OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.ENERGY,
        alpha=0.002,
        space=CapacitySpace.paper_separate(),
    )
    return problem.random_genome(random.Random(seed))


def rng_state(seed: int) -> tuple:
    return random.Random(seed).getstate()


SAMPLE = SampleRecord(index=3, cost=1.5, total_buffer_bytes=4096, generation=2)


def engine_checkpoint(graph, seed: int = 0) -> EngineCheckpoint:
    return EngineCheckpoint(
        generation=3,
        rng_state=rng_state(seed),
        evaluations=41,
        best_genome=genome(graph, seed),
        best_cost=12.5,
        history=[(0, 20.0), (3, 12.5)],
        samples=[SAMPLE],
        population=[genome(graph, seed + 1), genome(graph, seed + 2)],
        costs=[12.5, float("inf")],
    )


def sa_checkpoint(graph) -> SACheckpoint:
    return SACheckpoint(
        step=7,
        temperature=0.25,
        cooling=0.99,
        rng_state=rng_state(1),
        evaluations=8,
        current_genome=genome(graph, 3),
        current_cost=3.0,
        best_genome=genome(graph, 4),
        best_cost=2.0,
        history=[(1, 3.0), (7, 2.0)],
        samples=[SAMPLE],
    )


def islands_checkpoint(graph) -> IslandsCheckpoint:
    return IslandsCheckpoint(
        epoch=1,
        island=1,
        islands=[engine_checkpoint(graph, 0), engine_checkpoint(graph, 5)],
        populations=[[genome(graph, 6)], [genome(graph, 7), genome(graph, 8)]],
        migration_rng_state=rng_state(2),
        history=[(0, 5.0)],
        best_genome=genome(graph, 9),
        best_cost=4.0,
    )


def two_step_checkpoint(graph) -> TwoStepCheckpoint:
    return TwoStepCheckpoint(
        method="RS+GA",
        candidate=1,
        cumulative=30,
        engine=engine_checkpoint(graph, 10),
        candidates=[
            MemoryConfig.separate(kb(512), kb(576)),
            MemoryConfig.shared(kb(1024)),
        ],
        running_best=9.0,
        history=[(0, 9.0)],
        samples=[SAMPLE],
        best_index=0,
        best_genome=genome(graph, 11),
        best_cost=9.0,
    )


def nsga_checkpoint(graph) -> NSGACheckpoint:
    archive = [
        MultiObjectivePoint(genome(graph, 12 + i), 1024 * (i + 1), 1e6 / (i + 1))
        for i in range(3)
    ]
    # One population point outside the archive: stored inline.
    stray = MultiObjectivePoint(genome(graph, 20), 4096, 2.5e5)
    return NSGACheckpoint(
        generation=2,
        rng_state=rng_state(3),
        evaluations=16,
        reference=(1e6, 2e9),
        history=[(0, 0.5), (2, 0.75)],
        archive=archive,
        points=[archive[1], stray, archive[0]],
    )


BUILDERS = {
    EngineCheckpoint: engine_checkpoint,
    SACheckpoint: sa_checkpoint,
    IslandsCheckpoint: islands_checkpoint,
    TwoStepCheckpoint: two_step_checkpoint,
    NSGACheckpoint: nsga_checkpoint,
}


def _default(spec: dataclasses.Field):
    if spec.default is not dataclasses.MISSING:
        return spec.default
    if spec.default_factory is not dataclasses.MISSING:
        return spec.default_factory()
    return dataclasses.MISSING


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_every_field_round_trips(graph, cls):
    checkpoint = BUILDERS[cls](graph)
    for spec in dataclasses.fields(cls):
        value = getattr(checkpoint, spec.name)
        assert value != _default(spec), f"{spec.name} is at its default"
    payload = json.loads(json.dumps(checkpoint_to_dict(checkpoint)))
    rebuilt = checkpoint_from_dict(payload, graph)
    assert type(rebuilt) is cls
    for spec in dataclasses.fields(cls):
        assert getattr(rebuilt, spec.name) == getattr(checkpoint, spec.name), (
            spec.name
        )
    # Re-encoding the rebuilt checkpoint reproduces the document.
    assert checkpoint_to_dict(rebuilt) == payload


# ---------------------------------------------------------------------------
# Golden v1 fixtures
# ---------------------------------------------------------------------------
#: Checkpoint kind -> the suite scheme whose cell wrote it.
FIXTURE_SCHEMES = {
    "ga": "cocco",
    "sa": "sa",
    "islands": "islands",
    "rs": "rs",
    "gs": "gs",
    "nsga": "nsga",
}


def fixture(kind: str) -> dict:
    return json.loads((DATA / kind / "checkpoint.json").read_text())


def fixture_cell(kind: str) -> SuiteCell:
    return SuiteCell(
        network="vgg16",
        mode="separate",
        metric="energy",
        bytes_per_element=1,
        scheme=FIXTURE_SCHEMES[kind],
        alpha=0.002,
        scale="tiny",
    )


@pytest.mark.parametrize("kind", sorted(FIXTURE_SCHEMES))
def test_fixture_decodes_and_reencodes(kind):
    data = fixture(kind)
    restored = checkpoint_from_dict(data, get_model("vgg16"), kind=kind)
    assert checkpoint_to_dict(restored, kind=kind) == data


@pytest.mark.parametrize("kind", sorted(FIXTURE_SCHEMES))
def test_fixture_resumes_to_uninterrupted_result(kind, tmp_path):
    cell = fixture_cell(kind)
    full_registry = RunRegistry(tmp_path / "full")
    full = run_cell(cell, 0, full_registry, telemetry=False)
    registry = RunRegistry(tmp_path / "resumed")
    run = registry.open_run(cell.config_dict(), cell.seed(0))
    run.save_checkpoint(fixture(kind))
    resumed = run_cell(cell, 0, registry, telemetry=False)
    assert resumed == full
    # It continued from the fixture rather than starting over: only the
    # steps after the checkpoint streamed history.
    full_history = full_registry.load(cell.config_dict(), cell.seed(0))
    assert 0 < len(run.read_history()) < len(full_history.read_history())
