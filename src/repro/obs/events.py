"""Schema-versioned telemetry events on an append-only JSONL stream.

One :class:`TelemetrySink` owns one stream (normally a cell's
``telemetry.jsonl`` in the run registry). Every event is a single JSON
object line carrying the schema version, a wall-clock timestamp from
the sink's *injectable* clock, and an event ``kind``; each line is one
``write`` + ``flush``, so a SIGKILL leaves at most one torn final line
— which every reader (:func:`repro.obs.aggregate.iter_jsonl_text`,
:func:`repro.viz.campaign.tail_jsonl_node`) skips by design.

Emission is routed through a :mod:`contextvars` variable rather than
threaded parameters: :func:`activate` installs a sink for a scope, and
:func:`emit` inside that scope (any call depth down) writes to it.
When no sink is active — every non-campaign entry point — :func:`emit`
is a single context-variable read and a ``None`` test, so instrumented
hot paths pay effectively nothing.

Determinism contract: events are observational only. They carry copies
of values the search already computed; nothing reads them back during
execution, and the sink never touches RNG or durable search state.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import IO, Any, Callable, Iterator

#: A zero-argument callable returning seconds (``time.time`` semantics).
#: Mirrors :data:`repro.distrib.clock.Clock`; redefined here so the
#: emission layer stays import-free of the packages it instruments.
Clock = Callable[[], float]

#: Bumped when the event wire format changes shape; every line records
#: the version it was written under so readers can migrate old streams.
TELEMETRY_VERSION = 1

#: Per-cell stream name, beside ``history.jsonl`` in the run directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

_ACTIVE: ContextVar["TelemetrySink | None"] = ContextVar(
    "repro_obs_active_sink", default=None
)


def _jsonable(value: Any) -> Any:
    """Clamp non-finite floats to ``None`` (matching the history stream:
    an unpriced best cost streams as ``null``, never as bare
    ``Infinity``, which is not JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class TelemetrySink:
    """Append-only writer of telemetry events for one stream.

    The file handle opens lazily on the first event (so a sink over a
    not-yet-created run directory costs nothing until the cell actually
    starts) and appends — re-running an interrupted cell extends its
    stream, with each attempt delimited by its own ``cell.start`` event.

    A sink can also write through a registry transport node
    (:meth:`for_node`) instead of a local file — that is how cells and
    the coordinator stream telemetry into an object-store registry. For
    filesystem transports :meth:`for_node` degrades to the plain file
    path, keeping the persistent-handle fast path.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        clock: Clock = time.time,
        node: Any | None = None,
        filename: str = TELEMETRY_FILENAME,
    ):
        if path is None and node is None:
            raise ValueError("TelemetrySink needs a path or a node")
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.events_written = 0
        self._fh: IO[str] | None = None
        self._node = node
        self._filename = filename

    @classmethod
    def for_node(
        cls,
        node: Any,
        clock: Clock = time.time,
        filename: str = TELEMETRY_FILENAME,
    ) -> "TelemetrySink":
        """Sink over a :class:`repro.runs.transport.RunNode` stream.

        Filesystem-backed nodes get the ordinary file sink (one open
        handle, one write+flush per event); remote nodes append through
        the transport per event.
        """
        local = node.local_path
        if local is not None:
            return cls(local / filename, clock=clock)
        return cls(clock=clock, node=node, filename=filename)

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event line; never raises into the search.

        A full disk or a permission flip mid-campaign must degrade to
        lost telemetry, not a failed (and budget-charged) cell.
        """
        record: dict[str, Any] = {
            "v": TELEMETRY_VERSION,
            "ts": self.clock(),
            "kind": kind,
        }
        record.update(fields)
        try:
            line = json.dumps(record, allow_nan=False)
        except (TypeError, ValueError):
            line = json.dumps(_jsonable(record))
        try:
            if self._node is not None:
                self._node.append_line(self._filename, line)
            else:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a")
                self._fh.write(line + "\n")
                self._fh.flush()
            self.events_written += 1
        except OSError:
            pass

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def current_sink() -> TelemetrySink | None:
    """The scope's active sink, or ``None`` when telemetry is off."""
    return _ACTIVE.get()


def emit(kind: str, **fields: Any) -> None:
    """Emit one event to the active sink; a no-op when telemetry is off."""
    sink = _ACTIVE.get()
    if sink is not None:
        sink.emit(kind, **fields)


@contextmanager
def activate(sink: TelemetrySink | None) -> Iterator[TelemetrySink | None]:
    """Install ``sink`` as the scope's telemetry stream.

    ``activate(None)`` is a valid disabled scope — callers keep one code
    path whether telemetry is on or off. Scopes nest; the previous sink
    is restored on exit (exception or not).
    """
    token = _ACTIVE.set(sink)
    try:
        yield sink
    finally:
        _ACTIVE.reset(token)
