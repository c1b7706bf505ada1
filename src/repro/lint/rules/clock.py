"""RL002 — wall-clock reads in deterministic zones.

Search, pricing, and campaign-progress decisions must be pure functions
of (configuration, seed, durable registry state); a ``time.time()`` or
``datetime.now()`` on such a path makes outcomes depend on *when* the
code ran — the classic source of unreproducible lease/timeout behavior
and untestable expiry logic.

The sanctioned alternative is the injectable-clock idiom of
:mod:`repro.distrib.lease`: accept a zero-argument ``clock`` callable
defaulting to ``time.time`` and *call the parameter*. Referencing
``time.time`` as a default value is exactly that idiom, so this rule
flags only **calls**.

``time.perf_counter``/``process_time`` are deliberately exempt: they
are relative duration probes. The timing spans of :mod:`repro.obs.spans`
(``obs.span``) read ``perf_counter`` for their durations, which go only
to the write-only telemetry stream and never feed result data.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleSource
from ..findings import Finding, finding_at
from ..names import ModuleResolver

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule:
    """RL002: deterministic code takes an injectable clock, never reads one."""

    rule_id = "RL002"
    name = "wall-clock"
    summary = (
        "time.time()/datetime.now() calls are forbidden in deterministic "
        "zones; thread an injectable clock (repro.distrib.clock.Clock)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        resolver = ModuleResolver(module.tree, module=module.module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = resolver.qualname(node)
            if qual in WALL_CLOCK_CALLS:
                yield finding_at(
                    module.path,
                    node,
                    self.rule_id,
                    f"wall-clock read {qual}() in a deterministic zone; "
                    "accept an injectable clock parameter defaulting to "
                    "time.time instead (the repro.distrib.lease idiom)",
                )
