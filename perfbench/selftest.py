"""Self-test of the benchmark's layer tracing (``layers.py``).

Runs a one-cell tiny campaign traced and one untraced, and checks that:

* after patching, every ``repro`` module binding and class attribute of
  a layer function resolves to its wrapper, including the copies that
  ``from ... import`` made in other modules;
* after the traced campaign, every original is back and no wrapper is
  left anywhere;
* the traced and untraced campaigns merge to the same report;
* self times add up: no layer's self time is negative, and their sum
  stays within the traced campaign's wall time.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import layers
from campaign import RUNS_DIRNAME, import_package, report_digest

HERE = Path(__file__).resolve().parent


def _campaign(root: Path, tracer: layers.Tracer | None) -> tuple[str, float]:
    from repro.runs.suite import SuiteMatrix, run_suite

    matrix = SuiteMatrix(
        networks=("vgg16",), metrics=("ema",), schemes=("cocco", "sa"), scale="tiny"
    )
    active = layers.patch(tracer) if tracer is not None else None
    try:
        if active is not None:
            layers.check_patched(active)
            # The trap the patcher exists for: ``repro.ga`` re-exports
            # ``crossover`` under its module's name, and the engine holds
            # its own ``from .crossover import crossover`` copy.
            import repro.ga.engine

            crossover = sys.modules["repro.ga.crossover"].crossover
            assert hasattr(crossover, "__wrapped__"), "crossover is not wrapped"
            assert repro.ga.engine.crossover is crossover
        started = time.perf_counter()
        report = run_suite(matrix, root, workers=1).report
        wall = time.perf_counter() - started
    finally:
        if active is not None:
            layers.restore(active)
    if active is not None:
        layers.check_restored(active)
    return report_digest(report), wall


def main() -> int:
    import_package()
    runs = HERE.parent / RUNS_DIRNAME / "selftest"
    shutil.rmtree(runs, ignore_errors=True)
    try:
        plain, _ = _campaign(runs / "untraced", None)
        tracer = layers.Tracer()
        traced, wall = _campaign(runs / "traced", tracer)
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    assert traced == plain, f"traced digest {traced} != untraced {plain}"
    totals = tracer.totals()
    for layer, entry in totals.items():
        assert entry.self_s >= 0.0, f"{layer} self time {entry.self_s} < 0"
    covered = sum(entry.self_s for entry in totals.values())
    assert covered <= wall, f"self times {covered:.3f}s exceed wall {wall:.3f}s"
    for layer in ("partition.normalize", "partition.check", "ga.operators",
                  "ga.repair", "cost.feasible", "cost.pricing",
                  "runs.warm_load", "runs.warm_save", "obs.emit"):
        assert totals[layer].calls > 0, f"layer {layer} was never called"
    print(f"selftest ok: digest {plain}, {covered / wall:.0%} of {wall:.2f}s traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
