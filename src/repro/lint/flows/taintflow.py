"""RL101 — nondeterministic values must not reach durable artifacts.

The zone-scoped per-file rules (RL001–RL003) catch nondeterminism *in*
the deterministic packages, but a value born outside them — a helper in
``repro.util``, a default computed at call time, an environment lookup
in setup code — can still flow into a checkpoint serializer, the
``history.jsonl`` stream, a ``result.json``/warm-store write, or a
``derive_seed`` input, and corrupt the bit-identical-replay contract
from a module no zone covers.

This rule runs the interprocedural taint engine over the whole scanned
set and reports every source→sink flow with the full call chain, so the
finding reads as a story::

    RL101 [error] nondeterministic value (rng) reaches checkpoint
    serializer checkpoint_to_dict() via: repro.util.ids.fresh_token
    (src/.../ids.py:12): random.random() draws ... -> ... -> passes it
    to checkpoint serializer checkpoint_to_dict()

Findings anchor at the call site where the tainted value meets the
sink-reaching call, which is where the fix goes.
"""

from __future__ import annotations

from typing import Iterator

from ..callgraph import ProjectIndex
from ..engine import ModuleSource
from ..findings import Finding, finding_at
from ..taint import TaintEngine


class TaintFlowRule:
    """RL101: no nondeterminism source flows into a durable sink."""

    rule_id = "RL101"
    name = "nondet-reaches-durable"
    summary = (
        "interprocedural: unseeded RNG / wall clock / environment / "
        "set- and pool-order values must not reach checkpoint "
        "serializers, registry writes, or seed derivation"
    )

    def check_project(
        self, modules: list[ModuleSource]
    ) -> Iterator[Finding]:
        index = ProjectIndex.build(modules)
        engine = TaintEngine(index)
        for flow in engine.run():
            hops = max(len(flow.trace) - 1, 0)
            chain = " -> ".join(flow.trace)
            base = finding_at(
                flow.path,
                flow.node,
                self.rule_id,
                f"nondeterministic value ({flow.source.kind}: "
                f"{flow.source.description}) reaches {flow.sink} "
                f"through {hops} call hop(s) via: {chain}",
            )
            yield Finding(
                path=base.path,
                line=base.line,
                col=base.col,
                rule_id=base.rule_id,
                message=base.message,
                end_line=base.end_line,
                trace=flow.trace,
            )
