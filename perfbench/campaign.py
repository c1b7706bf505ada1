"""One campaign repetition, in a fresh process, as a researcher runs it.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/campaign.py --workload sweep-regular --seed 0 \
        --trace 0 --registry .perfbench_runs/example

The process imports the package from the checkout's ``src/``, builds
the workload's model-zoo graphs, opens the registry, then runs the
campaign from the matrix to the merged report. ``first_cell`` is the
``time.monotonic()`` reading just before the campaign starts; the
parent subtracts its own reading taken just before spawning this
process, which makes that difference the campaign's set-up time.

With ``--trace 1`` every layer function in ``layers.LAYERS`` is wrapped
for the campaign and restored after it, and the result carries the
per-layer metrics. Everything the checks read back (telemetry,
progress, file sizes) is read after the campaign's clock has stopped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Exit status when the package cannot be imported from this checkout.
NO_PACKAGE = 3
#: Scratch registries live here, inside the checkout, one per repetition.
RUNS_DIRNAME = ".perfbench_runs"


def import_package() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(NO_PACKAGE)
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"repro imported from {location}, not {SRC}", file=sys.stderr)
        sys.exit(NO_PACKAGE)


def report_digest(report) -> str:
    """Digest of the merged report's rows (matrix order, exact floats)."""
    text = json.dumps([list(row) for row in report.rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tree_bytes(root: Path) -> int:
    total = 0
    for folder, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def _checks(registry, matrix, resumed: int) -> dict[str, int]:
    """The counts each workload's self-checks are asserted on."""
    from repro.obs import TELEMETRY_FILENAME
    from repro.obs.aggregate import iter_jsonl_text

    cells = matrix.cells()
    per_key = Counter((cell.network, cell.bytes_per_element) for cell in cells)
    warm_files = [registry.warm_summary_path(*key).is_file() for key in per_key]
    claims = []
    for cell in cells:
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        events = iter_jsonl_text(node.read_text(TELEMETRY_FILENAME))
        claims.append(sum(event.get("kind") == "lease.claim" for event in events))
    return {
        "cells": len(cells),
        "warm_keys": len(per_key),
        "warm_files": sum(warm_files),
        "min_cells_per_warm_key": min(per_key.values()),
        "claims": sum(claims),
        "min_claims_per_cell": min(claims),
        "resumed_claims": resumed,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_layer(tracer, view, campaign_s: float, resumed: int) -> dict[str, float]:
    """The traced repetition's per-layer metrics, named as in BENCHMARK.json."""
    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for layer, entry in totals.items():
        metrics[f"{layer}_s"] = entry.self_s
        metrics[f"{layer}_calls"] = entry.calls
    repair = totals["ga.repair"]
    warm_load = totals["runs.warm_load"]
    warm_save = totals["runs.warm_save"]
    checkpoint_save = totals["runs.checkpoint_save"]
    covered = sum(entry.self_s for entry in totals.values())
    # Batch-pricing ratios come from the cells' ``evaluator.stats`` events.
    stats = view.telemetry.evaluator_stats
    hits = stats.get("batch_hits", 0)
    priced = stats.get("batch_priced", 0)
    direct = stats.get("batch_direct", 0)
    metrics.update(
        {
            "ga.repair_changed_ratio": _ratio(
                repair.counters.get("changed", 0), repair.calls
            ),
            "cost.batch_hit_rate": _ratio(hits, hits + priced),
            "cost.direct_share": _ratio(direct, priced),
            "runs.warm_calls": warm_load.calls + warm_save.calls,
            "runs.warm_bytes_written": warm_save.counters.get("bytes_written", 0),
            "runs.checkpoint_bytes_written": checkpoint_save.counters.get(
                "bytes_written", 0
            ),
            "distrib.lease_refused": totals["distrib.lease"].counters.get(
                "refused", 0
            ),
            "distrib.resumed_claims": resumed,
            "obs.events": totals["obs.emit"].calls,
            "trace.unattributed_share": 1.0 - covered / campaign_s,
        }
    )
    return metrics


def run(workload_name: str, seed: int, traced: bool, root: Path) -> dict:
    workload = WORKLOADS[workload_name]
    import_package()
    from repro.distrib.budget import campaign_progress
    from repro.distrib.worker import WorkerConfig, run_worker
    from repro.graphs.zoo import get_model
    from repro.obs.aggregate import build_view
    from repro.runs.registry import RunRegistry
    from repro.runs.suite import (
        SuiteMatrix,
        classify_campaign,
        merged_report,
        run_suite,
    )

    matrix = SuiteMatrix(**workload.matrix, seed=seed)
    for network in matrix.networks:
        get_model(network)
    registry = RunRegistry(root)

    tracer = layers.Tracer() if traced else None
    active = layers.patch(tracer) if tracer is not None else None
    if active is not None:
        layers.check_patched(active)
    resumed = 0
    first_cell = time.monotonic()
    try:
        if workload.budget is None:
            report = run_suite(matrix, root, workers=1).report
        else:
            config = WorkerConfig(worker_id="perfbench")
            summary = run_worker(matrix, root, config, budget=workload.budget)
            resumed = summary.cells_resumed
            report = merged_report(matrix, registry)
        campaign_s = time.monotonic() - first_cell
    finally:
        if active is not None:
            layers.restore(active)
    if active is not None:
        layers.check_restored(active)

    cells = matrix.cells()
    progress = campaign_progress(registry, cells, seed)
    tally = classify_campaign(registry, cells, seed, workload.budget)
    evaluations = sum(p.evaluations for p in progress.values())
    result = {
        "first_cell": first_cell,
        "cells": len(cells),
        "failed_cells": len(tally.failed) + len(tally.incomplete),
        "evaluations": evaluations,
        "digest": report_digest(report),
        "checks": _checks(registry, matrix, resumed),
        "end_to_end": {
            "campaign_s": campaign_s,
            "evals_per_s": evaluations / campaign_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "registry_mb": _tree_bytes(root) / 1e6,
        },
    }
    if tracer is not None:
        view = build_view(matrix, registry, budget=workload.budget)
        result["per_layer"] = _per_layer(tracer, view, campaign_s, resumed)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--registry", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.registry)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
