"""Durable, resumable experiment orchestration.

* :mod:`repro.runs.seeds` — order-independent per-cell seed derivation.
* :mod:`repro.runs.registry` — one directory per run (config, streamed
  history, checkpoint, atomically-written result).
* :mod:`repro.runs.checkpoint` — one JSON codec for every search
  scheme's checkpoint dataclass (``checkpoint_to_dict`` /
  ``checkpoint_from_dict``).
* :mod:`repro.runs.suite` — the ``repro suite`` campaign runner:
  expands a workload matrix into cells, runs every scheme through one
  table-driven cell runner, shards cells across evaluation backends,
  skips completed cells on restart, and merges the results.

``suite`` is intentionally *not* imported here: it depends on
:mod:`repro.experiments.common`, which itself uses :func:`derive_seed`,
and an eager import would create a cycle. Import it explicitly via
``from repro.runs.suite import ...``.
"""

from __future__ import annotations

from .checkpoint import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    genome_from_dict,
    genome_to_dict,
    memory_from_dict,
    memory_to_dict,
)
from .registry import RunHandle, RunRegistry, config_hash
from .seeds import derive_seed, stable_digest

__all__ = [
    "RunHandle",
    "RunRegistry",
    "config_hash",
    "derive_seed",
    "stable_digest",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "genome_to_dict",
    "genome_from_dict",
    "memory_to_dict",
    "memory_from_dict",
]
