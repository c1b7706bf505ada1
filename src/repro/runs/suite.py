"""The ``repro suite`` campaign runner: durable, sharded, resumable.

The paper's result matrices (Tables 1–3, Figs 11–14) are campaigns of
independent exploration runs over {network x buffer mode x metric x
bytes-per-element x scheme x alpha}. This module turns such a matrix
into *cells*, each a durable unit in a :class:`~repro.runs.registry.
RunRegistry`:

* every cell's seed derives from (campaign seed, stable cell key) — see
  :mod:`repro.runs.seeds` — so matrix edits never shift another cell's
  random stream;
* cells shard across the existing evaluation backends
  (:func:`~repro.parallel.backend.resolve_backend`); every cell
  warm-starts from the registry's per-(network, element width) warm
  summary file and extends it when it finishes, so a summary priced by
  any cell reaches every later cell on any worker (a pure reuse of
  already-computed values);
* a completed cell writes ``result.json`` atomically, so a restarted
  campaign re-runs only incomplete cells, and the merged report of a
  killed-and-resumed campaign is bit-identical to an uninterrupted one;
* one cell runner drives every search scheme from the
  :data:`CELL_SCHEMES` table: it loads the checkpoint, checks the
  sample cap, truncates replayed history, streams tick-keyed history
  and checkpoints from the searcher's hook, and writes the result row.
  Checkpoints come per GA/NSGA generation, per SA step chunk, per
  island generation (a composite of every island's engine state) and
  per inner-GA generation of the two-step schemes (with a candidate
  cursor), so an interrupted cell of *any* kind resumes mid-search
  instead of restarting;
* a worker killed mid-cell (OOM, segfault) breaks its pool: the runner
  rebuilds the backend and retries the cells that have no durable
  result — a killed cell is never recorded as complete.

The merged campaign report is an ordinary
:class:`~repro.experiments.reporting.ExperimentResult`, consumable by
:mod:`repro.viz.export`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from concurrent.futures.process import BrokenProcessPool

from ..config import AcceleratorConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse import two_step as two_step_mod
from ..dse.nsga import NSGAConfig, nsga2_co_optimize
from ..dse.results import DSEResult
from ..dse.two_step import grid_search_ga, random_search_ga
from ..errors import ConfigError, ReproError
from ..experiments.common import SCALES, Scale, paper_accelerator
from ..experiments.reporting import ExperimentResult
from ..ga import islands as islands_mod
from ..ga.annealing import simulated_annealing
from ..ga.engine import GAResult, GeneticEngine
from ..ga.islands import island_search
from ..ga.problem import OptimizationProblem
from ..graphs.zoo import get_model
from ..obs import TELEMETRY_FILENAME, TelemetrySink, activate, emit
from ..parallel.backend import EvaluationBackend, resolve_backend
from ..search_space import CapacitySpace
from ..units import to_kb, to_mb
from .checkpoint import checkpoint_from_dict, checkpoint_to_dict
from .registry import RunRegistry
from .seeds import derive_seed

MODES = ("separate", "shared")
METRICS = ("ema", "energy")

#: Matrix-cell kill switch for the worker-death tests: when the
#: environment variable names a substring of a cell id, the *first*
#: attempt at that cell hard-exits its worker process (subsequent
#: attempts run normally, as after a real transient OOM kill).
FAULT_ENV = "REPRO_SUITE_FAULT_CELL"


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteCell:
    """One (network, mode, metric, bytes/elem, scheme, alpha) cell."""

    network: str
    mode: str
    metric: str
    bytes_per_element: int
    scheme: str
    alpha: float
    scale: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown buffer mode {self.mode!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.bytes_per_element < 1:
            raise ConfigError("bytes_per_element must be positive")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")

    @property
    def key(self) -> tuple:
        """The stable identity the seed and registry key derive from."""
        return (
            self.network,
            self.mode,
            self.metric,
            self.bytes_per_element,
            self.scheme,
            self.alpha,
            self.scale,
        )

    @property
    def cell_id(self) -> str:
        """Human-readable id (used in logs and fault injection)."""
        return (
            f"{self.network}/{self.mode}/{self.metric}"
            f"/b{self.bytes_per_element}/{self.scheme}/a{self.alpha}"
        )

    def config_dict(self) -> dict[str, Any]:
        """The JSON-able configuration the registry hashes and stores."""
        return {
            "network": self.network,
            "mode": self.mode,
            "metric": self.metric,
            "bytes_per_element": self.bytes_per_element,
            "scheme": self.scheme,
            "alpha": self.alpha,
            "scale": self.scale,
        }

    def seed(self, campaign_seed: int) -> int:
        """This cell's derived seed — independent of every other cell."""
        return derive_seed(campaign_seed, *self.key)


@dataclass(frozen=True)
class SuiteMatrix:
    """A campaign: the cross product of the workload dimensions."""

    networks: tuple[str, ...]
    modes: tuple[str, ...] = ("separate",)
    metrics: tuple[str, ...] = ("energy",)
    bytes_per_element: tuple[int, ...] = (1,)
    schemes: tuple[str, ...] = ("cocco",)
    alphas: tuple[float, ...] = (0.002,)
    scale: str = "quick"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.networks:
            raise ConfigError("suite matrix needs at least one network")

    def cells(self) -> list[SuiteCell]:
        """Expand the matrix, network-major.

        Network-major order keeps same-graph cells adjacent, so
        consecutive cells warm-start from the same registry warm
        summary file.
        """
        return [
            SuiteCell(
                network=network,
                mode=mode,
                metric=metric,
                bytes_per_element=bpe,
                scheme=scheme,
                alpha=alpha,
                scale=self.scale,
            )
            for network in self.networks
            for bpe in self.bytes_per_element
            for mode in self.modes
            for metric in self.metrics
            for scheme in self.schemes
            for alpha in self.alphas
        ]


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------
def _stream_cost(value: float) -> float | None:
    """History-stream-safe cost value.

    Before the first feasible genome lands, best costs are
    ``float("inf")``, which ``json.dumps`` renders as the bare token
    ``Infinity`` — not RFC-8259 JSON, so strict consumers (jq,
    ``JSON.parse``) would choke on ``history.jsonl``. The stream (the
    operator/CI-facing artifact) carries ``null`` instead; checkpoints
    keep the exact floats (they are a Python-internal round-trip
    format where bit fidelity matters).
    """
    return value if math.isfinite(value) else None


def cell_accelerator(cell: SuiteCell) -> AcceleratorConfig:
    """The cell's platform: the paper core at the cell's element width."""
    return replace(
        paper_accelerator(), bytes_per_element=cell.bytes_per_element
    )


@dataclass(frozen=True)
class _Job:
    """What one cell's search call needs: its inputs and search config."""

    cell: SuiteCell
    seed: int
    evaluator: Evaluator
    scale: Scale
    config: Any

    @property
    def metric(self) -> Metric:
        return Metric.EMA if self.cell.metric == "ema" else Metric.ENERGY

    @property
    def space(self) -> CapacitySpace:
        if self.cell.mode == "shared":
            return CapacitySpace.paper_shared()
        return CapacitySpace.paper_separate()

    def problem(self) -> OptimizationProblem:
        return OptimizationProblem(
            evaluator=self.evaluator,
            metric=self.metric,
            alpha=self.cell.alpha,
            space=self.space,
        )


def _search_ga(job: _Job, hook, resume_from, cap: int | None) -> GAResult:
    # The engine stops exactly at the cap through GAConfig.max_samples.
    config = job.config if cap is None else replace(job.config, max_samples=cap)
    engine = GeneticEngine(job.problem(), config)
    if resume_from is None:
        return engine.run(on_generation=hook)
    return engine.resume(resume_from, on_generation=hook)


def _search_sa(job: _Job, hook, resume_from, cap: int | None) -> GAResult:
    return simulated_annealing(
        job.problem(),
        job.config,
        on_step=hook,
        resume_from=resume_from,
        max_evaluations=cap,
    )


def _search_islands(job: _Job, hook, resume_from, cap: int | None) -> GAResult:
    return island_search(
        job.problem(),
        job.config,
        on_generation=hook,
        resume_from=resume_from,
        max_samples=cap,
    )


def _search_nsga(job: _Job, hook, resume_from, cap: int | None) -> GAResult:
    """NSGA-II frontier run, reported at the cell's alpha."""
    result = nsga2_co_optimize(
        job.evaluator,
        job.space,
        metric=job.metric,
        config=job.config,
        on_generation=hook,
        resume_from=resume_from,
    )
    point = result.select_by_alpha(job.cell.alpha)
    return GAResult(
        best_genome=point.genome,
        best_cost=point.formula2(job.cell.alpha),
        num_evaluations=result.num_evaluations,
    )


def _search_rs(job: _Job, hook, resume_from, cap: int | None) -> DSEResult:
    return random_search_ga(
        job.evaluator,
        job.space,
        metric=job.metric,
        alpha=job.cell.alpha,
        num_candidates=job.scale.rs_candidates,
        ga_config=job.config,
        seed=job.seed,
        on_checkpoint=hook,
        resume_from=resume_from,
        max_evaluations=cap,
    )


def _search_gs(job: _Job, hook, resume_from, cap: int | None) -> DSEResult:
    return grid_search_ga(
        job.evaluator,
        job.space,
        metric=job.metric,
        alpha=job.cell.alpha,
        stride=job.scale.gs_stride,
        max_candidates=job.scale.gs_max_candidates,
        ga_config=job.config,
        on_checkpoint=hook,
        resume_from=resume_from,
        max_evaluations=cap,
    )


def _generation(checkpoint, config) -> int:
    return checkpoint.generation


def _last_generation(checkpoint, config) -> bool:
    return checkpoint.generation >= config.generations


@dataclass(frozen=True)
class CellScheme:
    """How the one cell runner drives one search scheme.

    Every searcher hands each step's checkpoint (evaluation count,
    best-so-far) to a hook and can resume from one; an entry names the
    scheme-specific pieces of that loop.
    """

    #: ``config(scale, seed=seed, **overrides)`` builds the search
    #: config; ``overrides`` is ``{"workers": n}`` when the cell fans
    #: evaluations out, else empty.
    config: Callable[..., Any]
    #: ``(job, hook, resume_from, cap) -> result`` with ``best_genome``,
    #: ``best_cost`` and ``num_evaluations``.
    search: Callable[..., Any]
    #: The checkpoint's stamp in ``checkpoint.json``.
    kind: str
    #: History lines are keyed (and truncated on resume) by ``tick_key``
    #: holding ``tick(checkpoint, config)``, which orders snapshots.
    tick_key: str
    tick: Callable[[Any, Any], int]
    #: Checkpoint attributes streamed after the tick, in line order.
    stream: tuple[str, ...]
    #: ``finished(checkpoint, config)``: the snapshot is the final state.
    finished: Callable[[Any, Any], bool]
    #: Stops exactly at ``sample_cap`` and resumes from its checkpoint;
    #: an uncapped scheme runs whole, cell-atomically.
    capped: bool = True
    #: Persist the checkpoint when ``tick % checkpoint_every == 0``.
    checkpoint_every: int = 1


_STREAM = ("evaluations", "best_cost")
_TWO_STEP_STREAM = ("candidate", "generation", *_STREAM)

#: Every ``repro suite`` scheme, in CLI order. Adding a searcher to the
#: campaign runner is one entry here.
CELL_SCHEMES: dict[str, CellScheme] = {
    # Equivalent to cocco_co_optimize(..., refine=False), driven through
    # the engine so generation-level checkpoints resume bit-identically.
    "cocco": CellScheme(
        config=Scale.co_opt_ga_config,
        search=_search_ga,
        kind="ga",
        tick_key="generation",
        tick=_generation,
        stream=_STREAM,
        finished=_last_generation,
    ),
    "rs": CellScheme(
        config=Scale.ga_config,
        search=_search_rs,
        kind="rs",
        tick_key="tick",
        tick=two_step_mod.checkpoint_tick,
        stream=_TWO_STEP_STREAM,
        finished=two_step_mod.checkpoint_finished,
    ),
    "gs": CellScheme(
        config=Scale.ga_config,
        search=_search_gs,
        kind="gs",
        tick_key="tick",
        tick=two_step_mod.checkpoint_tick,
        stream=_TWO_STEP_STREAM,
        finished=two_step_mod.checkpoint_finished,
    ),
    # SA is serial: its chain has no population to fan out.
    "sa": CellScheme(
        config=lambda scale, seed, **overrides: scale.co_opt_sa_config(seed),
        search=_search_sa,
        kind="sa",
        tick_key="step",
        tick=lambda checkpoint, config: checkpoint.step,
        stream=_STREAM,
        finished=lambda checkpoint, config: checkpoint.step >= config.steps,
    ),
    # NSGA-II checkpoints carry the whole evaluation archive (it grows
    # with every generation), so persisting one per generation would
    # rewrite O(generations x archive) JSON; a resume recomputes at most
    # checkpoint_every - 1 generations, still bit-identically. Its
    # archive-deduplicated evaluation count cannot stop exactly
    # mid-generation, so it runs whole and the budget scheduler charges
    # its exact count.
    "nsga": CellScheme(
        config=lambda scale, seed, **overrides: NSGAConfig(
            population_size=max(4, scale.ga_population),
            generations=scale.ga_generations,
            seed=seed,
            **overrides,
        ),
        search=_search_nsga,
        kind="nsga",
        tick_key="generation",
        tick=_generation,
        stream=("evaluations",),
        finished=_last_generation,
        capped=False,
        checkpoint_every=5,
    ),
    # The cap bounds the *global* evaluation count across islands.
    "islands": CellScheme(
        config=Scale.islands_config,
        search=_search_islands,
        kind="islands",
        tick_key="tick",
        tick=islands_mod.checkpoint_tick,
        stream=("epoch", "island", "generation", *_STREAM),
        finished=islands_mod.checkpoint_finished,
    ),
}

SCHEMES = tuple(CELL_SCHEMES)

#: Schemes that stop exactly at a sample cap and resume from their
#: checkpoint; the budget scheduler (:mod:`repro.distrib.budget`) treats
#: every other scheme as cell-atomic.
CHECKPOINTABLE_SCHEMES = frozenset(
    name for name, scheme in CELL_SCHEMES.items() if scheme.capped
)


def _search_cell(
    cell: SuiteCell,
    seed: int,
    evaluator: Evaluator,
    run,
    sample_cap: int | None,
    eval_workers: int | None,
) -> tuple[int, Any]:
    """Run (or resume) one cell's search with streamed history.

    Returns the cumulative evaluation count and the search result, or
    ``None`` in its place when the cell stopped at ``sample_cap`` before
    its final snapshot. Such a cell leaves its checkpoint in place; a
    later call with a higher cap resumes the same trajectory.
    """
    scheme = CELL_SCHEMES[cell.scheme]
    scale = SCALES[cell.scale]
    cap = sample_cap if scheme.capped else None
    overrides = {} if eval_workers is None else {"workers": eval_workers}
    config = scheme.config(scale, seed=seed, **overrides)
    job = _Job(cell, seed, evaluator, scale, config)
    last = None

    def hook(checkpoint) -> None:
        nonlocal last
        last = checkpoint
        tick = scheme.tick(checkpoint, config)
        entry = {scheme.tick_key: tick}
        for name in scheme.stream:
            entry[name] = _stream_cost(getattr(checkpoint, name))
        run.log_history(entry)
        emit("progress", scheme=cell.scheme, **entry)
        if tick % scheme.checkpoint_every == 0:
            run.save_checkpoint(checkpoint_to_dict(checkpoint, kind=scheme.kind))

    state = run.load_checkpoint()
    resume_from = None
    if state is not None:
        resume_from = last = checkpoint_from_dict(
            state, evaluator.graph, kind=scheme.kind
        )
        if (
            cap is not None
            and resume_from.evaluations >= cap
            and not scheme.finished(resume_from, config)
        ):
            # Already at (or past) this cap: nothing to do until the
            # budget scheduler grants more.
            return resume_from.evaluations, None
        run.truncate_history(scheme.tick(resume_from, config), key=scheme.tick_key)
    result = scheme.search(job, hook, resume_from, cap)
    if cap is not None and not (last is not None and scheme.finished(last, config)):
        return result.num_evaluations, None
    return result.num_evaluations, result


def _maybe_fault(
    cell: SuiteCell, campaign_seed: int, registry: RunRegistry
) -> None:
    """Test instrumentation: die like an OOM-killed worker, once.

    Lives in :func:`run_cell` (not the sharded task) so both the local
    pool path and the distributed ``repro worker`` path can be killed
    mid-cell by the fault-injection tests and smoke scripts.
    """
    target = os.environ.get(FAULT_ENV)
    if not target or target not in cell.cell_id:
        return
    node = registry.run_node(cell.config_dict(), cell.seed(campaign_seed))
    # Crash-simulation marker: single-winner create makes "once" hold
    # across transports, and the writer os._exit()s right after.
    node.ensure()
    if node.create_if_absent("fault-attempted", "injected worker kill\n") is None:
        return
    os._exit(23)


def run_cell(
    cell: SuiteCell,
    campaign_seed: int,
    registry: RunRegistry,
    evaluator: Evaluator | None = None,
    sample_cap: int | None = None,
    eval_workers: int | None = None,
    telemetry: bool = True,
) -> dict[str, Any]:
    """Execute one cell durably; returns its result row.

    Already-completed cells return their stored result without any
    recomputation. The result row is written to ``result.json``
    atomically *after* all search work, so a kill at any point leaves
    the cell incomplete (and resumable), never half-recorded.

    The cell's entry in :data:`CELL_SCHEMES` supplies everything
    scheme-specific: the search config and call, the checkpoint stamp,
    the history tick and its key, the ``finished`` predicate, whether
    the scheme honours ``sample_cap``, and the checkpoint interval.

    ``sample_cap`` (from the campaign budget scheduler) bounds the
    cell's cumulative evaluation count for the capped schemes
    (:data:`CHECKPOINTABLE_SCHEMES`); a cell stopped at its cap returns
    a ``status="exhausted"`` row *without* writing ``result.json`` — it
    stays resumable and continues when a later call raises the cap. An
    uncapped scheme (``nsga``: its archive-dedup evaluation counting
    cannot stop exactly mid-generation) always runs to completion and
    its exact evaluation count is charged against the budget by the
    scheduler. ``eval_workers`` fans the cell's *evaluations* out across
    local worker processes (results are bit-identical for any value —
    only wall-clock changes).

    ``telemetry`` (default on) streams structured events — cell
    lifecycle, per-generation progress, evaluator pricing spans — to
    ``telemetry.jsonl`` beside the cell's history. Purely a write-only
    side channel: results, checkpoints, and RNG trajectories are
    bit-identical with it on or off (locked by the trajectory-identity
    tests).
    """
    config = cell.config_dict()
    seed = cell.seed(campaign_seed)
    if registry.is_complete(config, seed):
        return registry.load(config, seed).load_result()
    if sample_cap is not None and sample_cap < 1:
        raise ConfigError("sample_cap must be positive when set")
    _maybe_fault(cell, campaign_seed, registry)
    run = registry.open_run(config, seed)
    sink = TelemetrySink.for_node(run.node) if telemetry else None
    try:
        with activate(sink):
            emit(
                "cell.start",
                cell=cell.cell_id,
                scheme=cell.scheme,
                seed=seed,
                sample_cap=sample_cap,
                resumed=run.has_checkpoint,
            )
            try:
                row = _execute_cell(
                    cell, config, seed, registry, run,
                    evaluator=evaluator, sample_cap=sample_cap,
                    eval_workers=eval_workers,
                )
            except ReproError as exc:
                emit("cell.error", cell=cell.cell_id, error=str(exc))
                raise
            emit(
                "cell.finish",
                cell=cell.cell_id,
                status=row.get("status", "complete"),
                evaluations=row.get("num_evaluations"),
                best_cost=_stream_cost(row["best_cost"])
                if isinstance(row.get("best_cost"), (int, float))
                else None,
            )
            return row
    finally:
        if sink is not None:
            sink.close()


def _execute_cell(
    cell: SuiteCell,
    config: dict[str, Any],
    seed: int,
    registry: RunRegistry,
    run,
    evaluator: Evaluator | None = None,
    sample_cap: int | None = None,
    eval_workers: int | None = None,
) -> dict[str, Any]:
    """The search and result persistence of :func:`run_cell`."""
    if evaluator is None:
        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
    # Warm-start from the registry's persisted per-(network, element
    # width) summary scalars: restarted and freshly sharded workers skip
    # re-pricing every subgraph an earlier cell already priced. Absorbing
    # is pure (summaries are deterministic values), so results are
    # bit-identical with or without the preload.
    warm = registry.load_warm_summaries(cell.network, cell.bytes_per_element)
    if warm:
        evaluator.absorb_summaries(warm)
    evaluations, result = _search_cell(
        cell, seed, evaluator, run, sample_cap, eval_workers
    )
    if result is not None:
        genome = result.best_genome
        cost = evaluator.evaluate(genome.partition.subgraph_sets, genome.memory)
    registry.save_warm_summaries(
        cell.network, cell.bytes_per_element, evaluator.export_summaries()
    )
    # Cache/batch-pricing counters for the aggregation layer's hit-rate
    # series (write-only; the search never reads telemetry back).
    emit("evaluator.stats", cell=cell.cell_id, stats=evaluator.stats())
    if result is None:
        return {
            **config,
            "seed": seed,
            "status": "exhausted",
            "num_evaluations": evaluations,
        }
    row = {
        **config,
        "seed": seed,
        "status": "complete",
        "best_cost": result.best_cost,
        "capacity_bytes": genome.memory.total_bytes,
        "ema_bytes": cost.ema_bytes,
        "energy_pj": cost.energy_pj,
        "num_subgraphs": cost.num_subgraphs,
        "num_evaluations": evaluations,
    }
    run.finish(row)
    return row


# ---------------------------------------------------------------------------
# The sharded task (one picklable instance per worker)
# ---------------------------------------------------------------------------
class SuiteCellTask:
    """Picklable cell executor for the evaluation backends.

    Holds only the campaign's matrix, registry root and per-cell
    evaluation fan-out. Cross-cell summary reuse goes through the
    registry's warm summary file alone: :func:`run_cell` absorbs it
    before every search and extends it after, so a cell run by any
    worker warm-starts from every cell finished before it.
    """

    def __init__(
        self,
        matrix: SuiteMatrix,
        registry_root: str | Path,
        eval_workers: int | None = None,
    ):
        self.matrix = matrix
        self.registry_root = str(registry_root)
        self.eval_workers = eval_workers

    def __call__(
        self, item: "SuiteCell | tuple[SuiteCell, int | None]"
    ) -> dict[str, Any]:
        """Run one cell; ``item`` is a cell or a ``(cell, sample_cap)``.

        Budgeted campaigns ship the cell together with its current
        cumulative sample cap; unbudgeted ones ship bare cells.
        Deterministic in-cell failures are recorded durably
        (``error.json``) so budget accounting and distributed workers
        can distinguish a terminated cell from a stalled one.
        """
        if isinstance(item, tuple):
            cell, sample_cap = item
        else:
            cell, sample_cap = item, None
        registry = RunRegistry(self.registry_root)
        config = cell.config_dict()
        seed = cell.seed(self.matrix.seed)
        if registry.is_complete(config, seed):
            return registry.load(config, seed).load_result()
        try:
            return run_cell(
                cell,
                self.matrix.seed,
                registry,
                sample_cap=sample_cap,
                eval_workers=self.eval_workers,
            )
        except ReproError as exc:
            registry.open_run(config, seed).record_error(str(exc))
            return {
                **config,
                "seed": seed,
                "status": "failed",
                "error": str(exc),
            }


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------
REPORT_HEADERS = (
    "network",
    "mode",
    "metric",
    "bpe",
    "scheme",
    "alpha",
    "seed",
    "best_cost",
    "capacity_KB",
    "ema_MB",
    "energy_mJ",
    "subgraphs",
    "evaluations",
    "status",
)


@dataclass
class SuiteOutcome:
    """What one ``run_suite`` invocation did, plus the merged report."""

    report: ExperimentResult
    total: int
    completed: int
    skipped: int
    failed: int
    rounds: int
    errors: dict[str, str] = field(default_factory=dict)
    #: Cells stopped at the campaign sample budget: resumable (their
    #: checkpoints are durable) but out of samples. Always 0 for
    #: unbudgeted campaigns.
    exhausted: int = 0

    def summary(self) -> str:
        text = (
            f"{self.total} cells: {self.skipped} already complete, "
            f"{self.completed} run, {self.failed} failed/incomplete "
            f"({self.rounds} round(s))"
        )
        if self.exhausted:
            text += f", {self.exhausted} out of sample budget"
        return text


def _result_row(result: dict[str, Any]) -> tuple:
    """One merged-report row from a cell's stored result dict."""
    if result.get("status") != "complete":
        return (
            result.get("network", "?"),
            result.get("mode", "?"),
            result.get("metric", "?"),
            result.get("bytes_per_element", "?"),
            result.get("scheme", "?"),
            result.get("alpha", "?"),
            result.get("seed", "?"),
            "-", "-", "-", "-", "-", "-",
            result.get("status", "incomplete"),
        )
    return (
        result["network"],
        result["mode"],
        result["metric"],
        result["bytes_per_element"],
        result["scheme"],
        result["alpha"],
        result["seed"],
        result["best_cost"],
        round(to_kb(result["capacity_bytes"]), 1),
        round(to_mb(result["ema_bytes"]), 4),
        round(result["energy_pj"] / 1e9, 4),
        result["num_subgraphs"],
        result["num_evaluations"],
        "complete",
    )


def merged_report(
    matrix: SuiteMatrix, registry: RunRegistry
) -> ExperimentResult:
    """Merge every cell's stored result into one report, matrix order.

    Rows come exclusively from the registry's durable ``result.json``
    files, so a killed-and-resumed campaign merges to exactly the same
    report as an uninterrupted one.
    """
    report = ExperimentResult(
        experiment=(
            f"suite: {len(matrix.cells())} cells, scale={matrix.scale}, "
            f"campaign seed={matrix.seed}"
        ),
        headers=REPORT_HEADERS,
        extra={"campaign_seed": matrix.seed, "scale": matrix.scale},
    )
    for cell in matrix.cells():
        config = cell.config_dict()
        seed = cell.seed(matrix.seed)
        if registry.is_complete(config, seed):
            result = registry.load(config, seed).load_result()
        elif registry.has_error(config, seed):
            result = {**config, "seed": seed, "status": "failed"}
        else:
            result = {**config, "seed": seed, "status": "incomplete"}
        report.add_row(*_result_row(result))
    return report


def run_suite(
    matrix: SuiteMatrix,
    registry_root: str | Path,
    workers: int = 1,
    max_rounds: int = 3,
    budget: int | None = None,
    eval_workers: int | None = None,
) -> SuiteOutcome:
    """Run (or resume) a campaign, sharding cells across ``workers``.

    Completed cells are skipped; incomplete ones run (GA/NSGA/SA cells
    continue from their checkpoints). If a worker process dies mid-cell
    the backend's pool breaks: the runner rebuilds it and retries every
    cell that still has no durable result, up to ``max_rounds`` times —
    so a killed cell is retried, never recorded as complete.
    Deterministic in-cell errors are recorded as failed rows (durably,
    via ``error.json``) and not retried within this invocation.

    ``budget`` caps the campaign's *total* evaluation count: cells get
    deterministic per-cell sample allocations (see
    :mod:`repro.distrib.budget`), run until their cap, and unspent
    samples from converged cells are re-granted to unconverged ones in
    deterministic rounds. The budgeted schedule is a pure function of
    (matrix, budget, durable registry state), so a budgeted campaign —
    local, sharded, or distributed across machines — always produces
    the same merged report for the same inputs.
    """
    registry = RunRegistry(registry_root)
    cells = matrix.cells()
    if len({cell.key for cell in cells}) != len(cells):
        raise ConfigError("suite matrix expands to duplicate cells")

    def incomplete(batch: list[SuiteCell]) -> list[SuiteCell]:
        return [
            c for c in batch
            if not registry.is_complete(c.config_dict(), c.seed(matrix.seed))
        ]

    pending = incomplete(cells)
    skipped = len(cells) - len(pending)
    errors: dict[str, str] = {}
    task = SuiteCellTask(matrix, registry_root, eval_workers=eval_workers)
    backend: EvaluationBackend = resolve_backend(workers)
    if budget is not None:
        return _run_suite_budgeted(
            matrix, registry, cells, task, backend, budget,
            max_rounds=max_rounds, skipped=skipped,
        )
    rounds = 0
    try:
        while pending and rounds < max_rounds:
            rounds += 1
            try:
                rows = backend.map(task, pending)
            except BrokenProcessPool:
                # One or more workers died mid-cell. Their finished
                # cells are durable; everything else gets retried on a
                # fresh pool (backend.map already tore the old one down).
                pending = incomplete(pending)
                continue
            for cell, row in zip(pending, rows):
                if row.get("status") == "failed":
                    errors[cell.cell_id] = row.get("error", "unknown error")
            # A clean map leaves only deterministic failures behind;
            # retrying those in-process would loop forever.
            pending = []
    finally:
        backend.close()

    still_pending = incomplete(cells)
    for cell in still_pending:
        # Cells whose rounds were all cut short by worker deaths never
        # produced a failure row; give the operator a diagnostic anyway.
        errors.setdefault(
            cell.cell_id,
            f"no durable result after {rounds} round(s) "
            "(worker died or rounds exhausted); re-run to resume",
        )
    report = merged_report(matrix, registry)
    return SuiteOutcome(
        report=report,
        total=len(cells),
        completed=len(cells) - skipped - len(still_pending),
        skipped=skipped,
        failed=len(still_pending),
        rounds=rounds,
        errors=errors,
    )


@dataclass
class CampaignTally:
    """Durable-state classification of a campaign's cells.

    Shared by the budgeted local runner and the distributed
    coordinator so both derive identical outcome counts (and identical
    operator guidance) from identical registry bytes.
    """

    completed: list[SuiteCell]
    #: Deterministic in-cell failures (durable ``error.json``).
    failed: dict[str, str]
    #: Unfinished cells sitting exactly at their sample cap.
    exhausted: list[SuiteCell]
    #: Unfinished cells *below* their cap: killed mid-run or never run.
    incomplete: list[SuiteCell]

    def errors(self) -> dict[str, str]:
        messages = dict(self.failed)
        for cell in self.exhausted:
            messages.setdefault(
                cell.cell_id,
                "sample budget exhausted; checkpoint retained — re-run "
                "with a larger --budget to continue",
            )
        for cell in self.incomplete:
            messages.setdefault(
                cell.cell_id,
                "no durable result (worker died or rounds exhausted); "
                "re-run to resume",
            )
        return messages


def classify_campaign(
    registry: RunRegistry,
    cells: list[SuiteCell],
    campaign_seed: int,
    budget: int | None,
) -> CampaignTally:
    """Classify every cell from durable registry state alone."""
    from ..distrib.budget import campaign_progress, compute_allocations

    progress = campaign_progress(registry, cells, campaign_seed)
    at_cap: frozenset = frozenset()
    if budget is not None:
        at_cap = compute_allocations(cells, budget, progress).exhausted
    tally = CampaignTally(completed=[], failed={}, exhausted=[], incomplete=[])
    for cell in cells:
        state = progress[cell.key]
        if state.complete:
            tally.completed.append(cell)
        elif state.failed:
            stored = (
                registry.load(cell.config_dict(), cell.seed(campaign_seed))
                .load_error()
                or {}
            )
            tally.failed[cell.cell_id] = stored.get("error", "failed")
        elif cell.key in at_cap:
            tally.exhausted.append(cell)
        else:
            tally.incomplete.append(cell)
    return tally


def _run_suite_budgeted(
    matrix: SuiteMatrix,
    registry: RunRegistry,
    cells: list[SuiteCell],
    task: SuiteCellTask,
    backend: EvaluationBackend,
    budget: int,
    max_rounds: int,
    skipped: int,
) -> SuiteOutcome:
    """Deterministic budgeted campaign: grant, run, re-grant refunds.

    Each iteration recomputes the budget view from durable registry
    state (a pure function — see :func:`repro.distrib.budget.
    compute_allocations`), runs every cell that has samples left under
    its current cap, and loops: once a grant round fully resolves, the
    unspent samples of converged cells are re-granted to unconverged
    ones. Terminates when no cell is claimable — everything is complete,
    failed, or out of budget. Worker-process deaths break the pool like
    the unbudgeted path; the loop rebuilds and re-probes (killed cells
    resume from their checkpoints), giving up after ``max_rounds``
    consecutive broken rounds.
    """
    from ..distrib.budget import claimable_cells, campaign_progress

    rounds = 0
    broken = 0
    try:
        while True:
            progress = campaign_progress(registry, cells, matrix.seed)
            runnable = claimable_cells(cells, budget, progress)
            if not runnable:
                break
            rounds += 1
            try:
                backend.map(task, runnable)
            except BrokenProcessPool:
                broken += 1
                if broken >= max_rounds:
                    break
                continue
            broken = 0  # only *consecutive* broken rounds give up
    finally:
        backend.close()

    tally = classify_campaign(registry, cells, matrix.seed, budget)
    report = merged_report(matrix, registry)
    return SuiteOutcome(
        report=report,
        total=len(cells),
        completed=len(tally.completed) - skipped,
        skipped=skipped,
        failed=len(tally.failed) + len(tally.incomplete),
        rounds=rounds,
        errors=tally.errors(),
        exhausted=len(tally.exhausted),
    )
