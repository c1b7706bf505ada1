"""Campaign benchmark: time-to-report and per-layer self time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search-irregular --seed 0 \
        --seconds 36 --trace 0

Repeats one workload's campaign for about ``--seconds``, each repetition
in a fresh process (``campaign.py``) and at least ``MIN_REPS`` of them,
checks every repetition's merged report, and prints a JSON result as
the last stdout line. ``--trace 0`` reports the end-to-end metrics,
medians over untraced repetitions. ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, medians over the
traced ones; the untraced ones give the tracing overhead. The metric
names and units come from ``BENCHMARK.json``; ``README.md`` beside this
file records the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from campaign import NO_PACKAGE, RUNS_DIRNAME
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / RUNS_DIRNAME

#: Repetitions per run, at least: two of each kind in a traced run.
MIN_REPS = 4
#: Every repetition must end inside the run's 180 s limit.
DEADLINE_S = 170.0
OVERHEAD = "trace.overhead_share"


def _spawn(workload: str, seed: int, traced: bool, registry: Path, timeout: float):
    """Run one repetition; ``(result or None, exit status, stderr)``.

    The result's end-to-end metrics gain ``setup_s``: from just before
    the spawn to the child's first cell, both read from the system-wide
    monotonic clock.
    """
    command = [
        sys.executable,
        str(HERE / "campaign.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--trace={int(traced)}",
        f"--registry={registry}",
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        return None, None, f"timed out after {timeout:.0f}s\n{exc.stderr or ''}"
    finally:
        shutil.rmtree(registry, ignore_errors=True)
    if proc.returncode != 0:
        return None, proc.returncode, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["end_to_end"]["setup_s"] = result["first_cell"] - spawned
    return result, 0, proc.stderr


def _mismatches(rep: dict, reference: dict) -> list[str]:
    """How this repetition's report differs from the reference one."""
    return [
        f"{key} {rep[key]} != {reference[key]}"
        for key in ("digest", "evaluations")
        if rep[key] != reference[key]
    ]


def _unexercised(workload, rep: dict) -> list[str]:
    """What the workload exists for but this repetition did not do."""
    checks = rep["checks"]
    missing = []
    if "shared_warm" in workload.checks and not (
        checks["warm_files"] == checks["warm_keys"]
        and checks["min_cells_per_warm_key"] > 1
    ):
        missing.append("warm files are not shared by several cells")
    if "resumed" in workload.checks and checks["resumed_claims"] < 1:
        missing.append("no claim resumed from a checkpoint")
    if "claimed_every_cell" in workload.checks and checks["min_claims_per_cell"] < 1:
        missing.append("a cell was never lease-claimed")
    return missing


def _medians(reps: list[dict], group: str, names: list[str]) -> dict[str, float]:
    """Median of each named metric over the repetitions' ``group`` dicts."""
    return {name: statistics.median(rep[group][name] for rep in reps) for name in names}


def _describe(name: str, traced: bool, rep: dict, wrong: list[str]) -> str:
    e, c = rep["end_to_end"], rep["checks"]
    text = (
        f"{name} {'traced' if traced else 'untraced'}: "
        f"campaign {e['campaign_s']:.3f}s setup {e['setup_s']:.3f}s "
        f"rss {e['peak_rss_mb']:.1f}MB registry {e['registry_mb']:.3f}MB "
        f"evals {rep['evaluations']} digest {rep['digest']} "
        f"failed {rep['failed_cells']}/{rep['cells']} "
        f"claims {c['claims']} resumed {c['resumed_claims']} "
        f"cells/warm-key {c['min_cells_per_warm_key']}"
    )
    return text + (f" PROBLEMS: {'; '.join(wrong)}" if wrong else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    started = time.monotonic()
    reps: list[tuple[bool, dict]] = []
    attempted = failed = 0
    reference = workload.expected if args.seed == DEFAULT_SEED else None
    problems: list[str] = []
    durations: list[float] = []
    while True:
        # Start another repetition only if it is expected to end within
        # --seconds, so a run lasts about --seconds whatever the workload.
        elapsed = time.monotonic() - started
        index = len(durations)
        expected = statistics.median(durations) if durations else 0.0
        if index >= MIN_REPS and elapsed + expected > args.seconds:
            break
        if index >= 2 and elapsed + expected > DEADLINE_S / 2:
            break
        traced = bool(args.trace) and index % 2 == 1
        registry = RUNS / f"{args.workload}-{os.getpid()}-{index}"
        timeout = max(10.0, DEADLINE_S - elapsed)
        rep, status, stderr = _spawn(
            args.workload, args.seed, traced, registry, timeout
        )
        durations.append(time.monotonic() - started - elapsed)
        attempted += workload.cell_count
        name = f"repetition {index + 1}"
        if rep is None:
            sys.stderr.write(f"{name} failed:\n{stderr[-4000:]}\n")
            if status == NO_PACKAGE:
                return 2
            failed += workload.cell_count
            problems.append(f"{name} crashed")
            continue
        if reference is None:
            reference = {"digest": rep["digest"], "evaluations": rep["evaluations"]}
        mismatch = _mismatches(rep, reference)
        # A wrong report makes every cell of the repetition a failure.
        failed += workload.cell_count if mismatch else rep["failed_cells"]
        wrong = mismatch + _unexercised(workload, rep)
        problems.extend(f"{name}: {w}" for w in wrong)
        reps.append((traced, rep))
        print(_describe(name, traced, rep, wrong), flush=True)

    with contextlib.suppress(OSError):
        RUNS.rmdir()  # only when no other run is using it
    untraced = [rep for traced, rep in reps if not traced]
    traced_reps = [rep for traced, rep in reps if traced]
    if not untraced or (args.trace and not traced_reps):
        print("no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != OVERHEAD]
        values = _medians(traced_reps, "per_layer", names)
        traced_s = _medians(traced_reps, "end_to_end", ["campaign_s"])
        untraced_s = _medians(untraced, "end_to_end", ["campaign_s"])
        values[OVERHEAD] = traced_s["campaign_s"] / untraced_s["campaign_s"] - 1.0
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = _medians(untraced, "end_to_end", names)
    print(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
        f"failed_share {failed / attempted:.4f}"
        + (f", problems: {problems}" if problems else ""),
        flush=True,
    )
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
