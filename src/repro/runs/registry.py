"""Durable run registry: one keyspace slice per exploration run.

The paper's result matrices come from hundreds of independent search
runs; this registry makes each of them a durable, restartable unit. A
run is keyed by the SHA-256 of its canonical configuration plus its
seed, and owns a key prefix holding

* ``config.json`` — the serialized cell/run configuration (written at
  open, before any work),
* ``history.jsonl`` — a line-per-event log streamed while the search
  progresses (best-cost improvements, generation summaries),
* ``checkpoint.json`` — the latest generation-level engine checkpoint
  (optional; enables mid-run resume),
* ``result.json`` — the final result, written atomically *last*, so its
  presence is the completion marker.

A killed process therefore leaves either a completed run (result.json
present) or a resumable one (config + history + maybe a checkpoint);
it can never leave a half-written result that masquerades as complete.

All I/O goes through a :class:`repro.runs.transport.RegistryTransport`
— a local directory by default (`FsTransport`, byte-identical to the
historical layout), or an S3-compatible object store when the registry
root is an ``s3://`` URI. Path-valued accessors (``run_path``,
``registry.root``, ``handle.path``) keep working for filesystem
registries and raise/return ``None`` for remote ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..errors import ConfigError
from .seeds import stable_digest
from .transport import RegistryTransport, RunNode, resolve_transport

_CONFIG = "config.json"
_HISTORY = "history.jsonl"
_CHECKPOINT = "checkpoint.json"
_RESULT = "result.json"
_ERROR = "error.json"
_LEASE = "lease.json"

#: Public names of the per-run lease and checkpoint files —
#: :mod:`repro.distrib` builds its keys from these so the registry and
#: the distributed layer can never disagree about where they live.
LEASE_FILENAME = _LEASE
CHECKPOINT_FILENAME = _CHECKPOINT

#: Hex digits of the config hash used in directory names — enough to
#: make collisions vanishingly unlikely within one registry.
_HASH_CHARS = 12


def config_hash(config: dict[str, Any]) -> str:
    """Stable short hash of a JSON-able configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return stable_digest(canonical)[:_HASH_CHARS]


@dataclass
class RunHandle:
    """One run's keyspace slice, with streaming and completion primitives.

    All methods operate through :attr:`node`.
    """

    node: RunNode
    config: dict[str, Any]

    @property
    def path(self) -> Path | None:
        """The run directory for filesystem registries, else ``None``."""
        return self.node.local_path

    @property
    def name(self) -> str:
        """The run's registry key (config hash + seed)."""
        return self.node.name

    # -- lifecycle ------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """Whether the final result has been durably written."""
        return self.node.exists(_RESULT)

    @property
    def has_checkpoint(self) -> bool:
        return self.node.exists(_CHECKPOINT)

    @property
    def has_error(self) -> bool:
        """Whether a deterministic failure has been durably recorded."""
        return self.node.exists(_ERROR)

    # -- streaming ------------------------------------------------------
    def log_history(self, entry: dict[str, Any]) -> None:
        """Append one JSON line to the streamed history log."""
        self.node.append_line(_HISTORY, json.dumps(entry))

    def read_history(self) -> list[dict[str, Any]]:
        """All streamed history entries, in append order."""
        text = self.node.read_text(_HISTORY)
        if text is None:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                entries.append(json.loads(line))
        return entries

    def truncate_history(self, max_generation: int, key: str = "generation") -> None:
        """Drop history entries whose ``key`` exceeds ``max_generation``.

        A kill can land between a generation's history line and its
        checkpoint write; resuming from the checkpoint replays that
        generation, so the orphaned line must go or it would appear
        twice. GA/NSGA cells key their lines by ``generation``; SA cells
        by ``step``.
        """
        entries = [
            e for e in self.read_history()
            if e.get(key, -1) <= max_generation
        ]
        self.node.write_atomic(
            _HISTORY,
            "".join(json.dumps(e) + "\n" for e in entries),
        )

    # -- checkpointing --------------------------------------------------
    def save_checkpoint(self, state: dict[str, Any]) -> None:
        """Atomically persist a generation-level checkpoint."""
        self.node.write_atomic(_CHECKPOINT, json.dumps(state))

    def load_checkpoint(self) -> dict[str, Any] | None:
        text = self.node.read_text(_CHECKPOINT)
        if text is None:
            return None
        return json.loads(text)

    # -- completion -----------------------------------------------------
    def finish(self, result: dict[str, Any]) -> None:
        """Write the final result atomically, marking the run complete.

        A stale failure marker from an earlier attempt is dropped — the
        durable result supersedes it.
        """
        self.node.write_atomic(_RESULT, json.dumps(result, indent=2))
        self.node.delete(_ERROR)

    def load_result(self) -> dict[str, Any]:
        text = self.node.read_text(_RESULT)
        if text is None:
            raise ConfigError(f"run {self.name} has no result yet")
        return json.loads(text)

    # -- failure --------------------------------------------------------
    def record_error(self, message: str) -> None:
        """Durably record a deterministic in-run failure.

        Unlike ``result.json`` this does *not* mark the run complete —
        a later invocation may retry it (and will simply overwrite the
        marker if it fails again). Budgeted and distributed campaigns
        need the marker so every participant agrees, from registry state
        alone, that the cell terminated rather than stalled.
        """
        self.node.write_atomic(
            _ERROR,
            json.dumps({"status": "failed", "error": message}, indent=2),
        )

    def load_error(self) -> dict[str, Any] | None:
        text = self.node.read_text(_ERROR)
        if text is None:
            return None
        return json.loads(text)


class RunRegistry:
    """Registry of runs, keyed by config hash + seed.

    ``root`` may be a local directory (the default transport) or an
    ``s3://host:port/bucket`` URI; an explicit ``transport`` overrides
    resolution (in-process object stores in tests). :attr:`root` stays
    a ``Path`` for filesystem registries — and is ``None`` otherwise,
    so path-assuming callers fail loudly instead of writing nonsense.
    """

    def __init__(
        self,
        root: str | Path,
        transport: RegistryTransport | None = None,
    ):
        self.transport = transport if transport is not None else resolve_transport(root)
        self.root = self.transport.local_root
        #: Human-readable registry location (path or URI) for messages.
        self.location = self.transport.describe()

    def run_name(self, config: dict[str, Any], seed: int) -> str:
        """Registry key prefix for one (config, seed) run."""
        return f"{config_hash(config)}-s{seed}"

    def run_node(self, config: dict[str, Any], seed: int) -> RunNode:
        """Transport node addressing one run's keyspace slice."""
        return RunNode(self.transport, self.run_name(config, seed))

    def root_node(self) -> RunNode:
        """Node addressing registry-root keys (manifest, fleet telemetry)."""
        return RunNode(self.transport, "")

    def run_path(self, config: dict[str, Any], seed: int) -> Path:
        if self.root is None:
            raise ConfigError(
                f"registry {self.location} has no local run paths; "
                "use run_node()"
            )
        return self.root / self.run_name(config, seed)

    def is_complete(self, config: dict[str, Any], seed: int) -> bool:
        return self.run_node(config, seed).exists(_RESULT)

    def has_error(self, config: dict[str, Any], seed: int) -> bool:
        """Whether the run has a durable failure marker (and no result)."""
        node = self.run_node(config, seed)
        return node.exists(_ERROR) and not node.exists(_RESULT)

    def _handle(self, node: RunNode, config: dict[str, Any]) -> RunHandle:
        return RunHandle(node=node, config=dict(config))

    def open_run(self, config: dict[str, Any], seed: int) -> RunHandle:
        """Create (or re-open) the run slice and persist its config.

        Re-opening an *incomplete* run truncates its history stream —
        the run restarts (or resumes from its checkpoint), and stale
        partial history from the killed attempt must not double-count.
        Re-opening a complete run leaves everything untouched.
        """
        node = self.run_node(config, seed)
        node.ensure()
        handle = self._handle(node, config)
        if not handle.is_complete:
            node.write_atomic(
                _CONFIG,
                json.dumps({"config": config, "seed": seed}, indent=2),
            )
            if node.exists(_HISTORY) and not handle.has_checkpoint:
                node.delete(_HISTORY)
        return handle

    def load(self, config: dict[str, Any], seed: int) -> RunHandle:
        """Handle for an existing run (no writes)."""
        node = self.run_node(config, seed)
        path = node.local_path
        if path is not None:
            if not path.is_dir():
                raise ConfigError(f"no run directory {path}")
        elif not node.exists(_CONFIG):
            raise ConfigError(f"no run {node.describe()}")
        return self._handle(node, config)

    def runs(self) -> Iterator[RunHandle]:
        """Iterate every registered run (complete or not), sorted by name."""
        for name in self.transport.list_runs():
            text = self.transport.read_text(f"{name}/{_CONFIG}")
            if text is None:
                continue
            payload = json.loads(text)
            node = RunNode(self.transport, name)
            yield self._handle(node, payload.get("config", {}))

    def completed(self) -> list[RunHandle]:
        """Every run whose final result has been written."""
        return [run for run in self.runs() if run.is_complete]

    # -- warm-summary persistence ---------------------------------------
    #: Entries kept per (network, bytes-per-element) warm file; matches
    #: the evaluator's summary-cache order of magnitude.
    WARM_SUMMARY_CAP = 50_000

    def _warm_key(self, network: str, bytes_per_element: int) -> str:
        return f"warm/{network}-bpe{bytes_per_element}.json"

    def warm_summary_path(self, network: str, bytes_per_element: int) -> Path:
        """Where one network's shared warm-summary scalars live (fs only)."""
        if self.root is None:
            raise ConfigError(
                f"registry {self.location} has no local warm paths"
            )
        return self.root / "warm" / f"{network}-bpe{bytes_per_element}.json"

    def load_warm_summaries(
        self, network: str, bytes_per_element: int
    ) -> list[tuple[tuple, tuple]]:
        """Persisted subgraph summaries, ready for ``absorb_summaries``.

        Summaries are pure values keyed by ``(subgraph members, memory
        key)``, so any evaluator over the same network and element width
        can absorb them verbatim — a restarted or freshly sharded worker
        warm-starts instead of re-pricing the population's subgraphs.
        Returns ``[]`` when nothing was persisted yet or the file is
        unreadable (corruption just costs a cold start, never an error).
        """
        text = self.transport.read_text(
            self._warm_key(network, bytes_per_element)
        )
        if text is None:
            return []
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return []
        entries: list[tuple[tuple, tuple]] = []
        for members, mem_key, summary in payload.get("entries", []):
            entries.append(
                (
                    (frozenset(members), tuple(mem_key)),
                    (bool(summary[0]), int(summary[1]), summary[2], summary[3]),
                )
            )
        return entries

    def save_warm_summaries(
        self,
        network: str,
        bytes_per_element: int,
        entries: list[tuple[tuple, tuple]],
        cap: int | None = None,
    ) -> str:
        """Merge summary entries into the network's warm file (atomic).

        Existing entries come first and new keys append after, so under
        the ``cap`` the *newest* entries survive (mirroring the
        evaluator's LRU). Concurrent writers last-write-wins — safe
        because every writer's values for a shared key are bit-identical
        (evaluation is pure).
        """
        if cap is None:
            cap = self.WARM_SUMMARY_CAP
        merged: dict[tuple, tuple] = {
            key: summary
            for key, summary in self.load_warm_summaries(
                network, bytes_per_element
            )
        }
        for key, summary in entries:
            merged[key] = summary
        kept = list(merged.items())[-cap:]
        key_name = self._warm_key(network, bytes_per_element)
        payload = {
            "version": 1,
            "network": network,
            "bytes_per_element": bytes_per_element,
            "entries": [
                [sorted(key[0]), list(key[1]), list(summary)]
                for key, summary in kept
            ],
        }
        self.transport.write_atomic(key_name, json.dumps(payload))
        return key_name

    def gc(self) -> tuple[int, int]:
        """Drop stale per-run scratch of *completed* runs.

        A completed run's ``checkpoint.json`` (which can dwarf the
        result for GA/NSGA cells), any leftover ``lease.json``, and the
        transport's write-litter from killed writers (filesystem
        ``*.tmp-*`` temps and ``lease.json.expired-*`` tombstones;
        object-store ``.tmp-`` staging objects — SIGKILL mid-write is
        this subsystem's designed failure mode) are dead weight: the
        atomically-written ``result.json`` is the only key future
        invocations read. Incomplete runs keep everything — their
        checkpoint is exactly what a resume needs, and their temp
        objects may belong to a live writer.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = 0
        reclaimed = 0
        for run in self.completed():
            name = run.node.name or (
                run.path.name if run.path is not None else ""
            )
            prefix = f"{name}/" if name else ""
            stale = [f"{prefix}{_CHECKPOINT}", f"{prefix}{_LEASE}"]
            stale.extend(self.transport.litter(name))
            for key in stale:
                size = self.transport.size(key)
                if size is None:
                    continue
                if not self.transport.delete(key):
                    continue  # lost a race with another gc
                removed += 1
                reclaimed += size
        return removed, reclaimed
