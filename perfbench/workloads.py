"""The campaign benchmark's workloads: fixed ``repro suite`` matrices.

Pure data, so the driver process (``run.py``) can read it without
importing the package it measures. Every matrix uses metric ``ema`` and
runs in one process with ``workers=1``; the campaign seed is the
benchmark's ``--seed``.

``expected`` holds the merged-report digest and the campaign's
evaluation total for :data:`DEFAULT_SEED`. Every run on that seed must
reproduce both; a run on another seed only has to agree with itself
(every repetition, traced or not, gives the same digest and total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: The seed the recorded digests and evaluation totals belong to.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``SuiteMatrix`` keyword arguments, minus the seed.
    matrix: dict[str, Any]
    #: Campaign sample budget. A budgeted workload runs through one
    #: in-process ``run_worker`` over the filesystem transport (lease
    #: claims, progress probes, checkpoint resumes); an unbudgeted one
    #: through ``run_suite``.
    budget: int | None = None
    #: What each run must show it exercised (see ``run.py``).
    checks: tuple[str, ...] = ()
    #: ``{"digest": ..., "evaluations": ...}`` at :data:`DEFAULT_SEED`.
    expected: dict[str, Any] = field(default_factory=dict)

    @property
    def cell_count(self) -> int:
        """Cells in the matrix (each dimension defaults to one value)."""
        count = 1
        for values in self.matrix.values():
            if isinstance(values, tuple):
                count *= len(values)
        return count


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="search-irregular",
            why=(
                "long quick-scale GA and SA searches on an irregular graph: "
                "partition normalization, validity checks and operators dominate"
            ),
            matrix=dict(
                networks=("randwire_a",),
                modes=("separate",),
                metrics=("ema",),
                schemes=("cocco", "sa"),
                alphas=(0.002,),
                scale="quick",
            ),
            expected={"digest": "fef7a2803621712c", "evaluations": 981},
        ),
        Workload(
            name="sweep-regular",
            why=(
                "many short tiny-scale cells sharing one warm file: the warm "
                "store dominates, partition work is small"
            ),
            matrix=dict(
                networks=("unet",),
                modes=("separate", "shared"),
                metrics=("ema",),
                schemes=("cocco", "sa", "rs", "islands", "nsga"),
                alphas=(0.001, 0.004),
                scale="tiny",
            ),
            checks=("shared_warm",),
            expected={"digest": "e3bc973b72155ca1", "evaluations": 1185},
        ),
        Workload(
            name="budget-resume",
            why=(
                "one lease-claiming worker under a budget below demand: "
                "leases, progress probes and checkpoint resumes"
            ),
            matrix=dict(
                networks=("googlenet", "resnet50"),
                modes=("separate",),
                metrics=("ema",),
                schemes=("cocco", "sa", "islands", "rs"),
                alphas=(0.002,),
                scale="tiny",
            ),
            budget=470,
            checks=("resumed", "claimed_every_cell"),
            expected={"digest": "4dc7245e7b325799", "evaluations": 470},
        ),
    )
}
