"""In-memory self-time tracing of a campaign's layers, from outside ``src/``.

The traced run replaces each layer's public functions with timing
wrappers for the duration of one campaign and puts the originals back
afterwards. Nothing is written while the campaign runs: every wrapper
adds its duration to per-thread totals, and :meth:`Tracer.totals` folds
them when the campaign has ended.

Self time is a wrapper's duration minus the time its nested wrapped
calls cover, so the layers partition the traced wall time (plus an
unattributed remainder: search loops, selection, JSON glue, everything
no wrapper covers).

``from module import name`` binds a copy of the function in the
importing module, so patching the defining module alone would miss most
call sites. :func:`patch` therefore rebinds *every* ``repro`` module
attribute that is the original object, and :func:`restore` undoes every
binding, including ones a module imported after patching picked up.
Methods live in one class ``__dict__`` each and are patched there.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layer -> the public functions it covers, as ``module:qualname``. Names
#: follow the benchmark's per-layer metrics (``<layer>_s``/``_calls``).
LAYERS: dict[str, tuple[str, ...]] = {
    "partition.normalize": ("repro.partition.validity:normalize_groups",),
    "partition.check": ("repro.partition.validity:check_partition",),
    "ga.operators": (
        "repro.ga.crossover:crossover",
        "repro.ga.mutation:modify_node",
        "repro.ga.mutation:split_subgraph",
        "repro.ga.mutation:merge_subgraph",
    ),
    "ga.repair": ("repro.ga.problem:OptimizationProblem.repair",),
    "cost.feasible": ("repro.cost.evaluator:Evaluator.feasible",),
    "cost.pricing": (
        "repro.cost.evaluator:Evaluator.prime_summaries",
        "repro.cost.evaluator:Evaluator.summarize",
        "repro.cost.evaluator:Evaluator.summarize_population",
        "repro.cost.evaluator:Evaluator.evaluate",
    ),
    "runs.warm_load": ("repro.runs.registry:RunRegistry.load_warm_summaries",),
    "runs.warm_save": ("repro.runs.registry:RunRegistry.save_warm_summaries",),
    "runs.checkpoint_save": ("repro.runs.registry:RunHandle.save_checkpoint",),
    "runs.checkpoint_load": ("repro.runs.registry:RunHandle.load_checkpoint",),
    "runs.history": (
        "repro.runs.registry:RunHandle.log_history",
        "repro.runs.registry:RunHandle.truncate_history",
    ),
    "runs.result": ("repro.runs.registry:RunHandle.finish",),
    "distrib.lease": (
        "repro.distrib.lease:try_acquire_lease",
        "repro.distrib.lease:renew_lease",
        "repro.distrib.lease:release_lease",
    ),
    "distrib.progress": ("repro.distrib.budget:campaign_progress",),
    "obs.emit": ("repro.obs.events:TelemetrySink.emit",),
}


@dataclass
class LayerTotals:
    """One layer's accumulated self time, call count and side counters."""

    self_s: float = 0.0
    calls: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, other: "LayerTotals") -> None:
        self.self_s += other.self_s
        self.calls += other.calls
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


def _count_changed_repair(args, result) -> dict[str, float]:
    # OptimizationProblem.repair(self, genome): the genome comes back
    # unchanged when every subgraph already fits.
    return {"changed": int(result is not args[1])}


def _count_refused_lease(args, result) -> dict[str, float]:
    return {"refused": int(result is None)}


def _count_warm_bytes(args, result) -> dict[str, float]:
    # save_warm_summaries returns the key it wrote; its size is the
    # whole rewritten file.
    return {"bytes_written": args[0].transport.size(result) or 0}


def _count_checkpoint_bytes(args, result) -> dict[str, float]:
    from repro.runs.registry import CHECKPOINT_FILENAME

    return {"bytes_written": args[0].node.size(CHECKPOINT_FILENAME) or 0}


#: Side counters taken from a call's arguments and result, after its
#: duration is measured (their own cost lands in the caller's self time).
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "repro.ga.problem:OptimizationProblem.repair": _count_changed_repair,
    "repro.distrib.lease:try_acquire_lease": _count_refused_lease,
    "repro.runs.registry:RunRegistry.save_warm_summaries": _count_warm_bytes,
    "repro.runs.registry:RunHandle.save_checkpoint": _count_checkpoint_bytes,
}


class Tracer:
    """Timing wrappers with per-thread stacks and totals.

    The lease heartbeat renews from its own thread, so each thread keeps
    its own nesting stack (a renewal never nests under the main thread's
    open call) and its own totals (no lock on the hot path).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: list[dict[str, LayerTotals]] = []
        self._register = threading.Lock()

    def _state(self) -> tuple[list, dict[str, LayerTotals]]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            with self._register:
                self._all.append(local.totals)
            return local.stack, local.totals

    def wrap(self, layer: str, target: str, original: Callable) -> Callable:
        """A wrapper billing ``original``'s self time to ``layer``."""
        counter = COUNTERS.get(target)
        clock = time.perf_counter
        state = self._state

        def traced(*args, **kwargs):
            stack, totals = state()
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = totals.get(layer)
                if entry is None:
                    entry = totals[layer] = LayerTotals()
                entry.self_s += elapsed - frame[0]
                entry.calls += 1
            if counter is not None:
                for name, value in counter(args, result).items():
                    entry.counters[name] = entry.counters.get(name, 0) + value
            return result

        return functools.wraps(original)(traced)

    def totals(self) -> dict[str, LayerTotals]:
        """Every layer's totals, summed over threads (zeros included)."""
        out = {layer: LayerTotals() for layer in LAYERS}
        for per_thread in self._all:
            for layer, entry in per_thread.items():
                out[layer].add(entry)
        return out


def _resolve(target: str) -> Callable:
    """The function a ``module:qualname`` target names.

    The module comes from ``sys.modules``: ``import repro.ga.crossover as
    m`` would hand back the *function*, because ``repro.ga`` re-exports
    it under the module's own name.
    """
    module_name, qualname = target.split(":")
    importlib.import_module(module_name)
    owner: Any = sys.modules[module_name]
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attribute]


def _sites(objects: dict[int, Callable]) -> list[tuple[Any, str, Callable]]:
    """Every binding of one of ``objects`` in ``repro``.

    A binding is a module attribute, or an attribute of a class that the
    module defines. Returns ``(owner, attribute, value)`` triples.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        owners = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner in owners:
            for attribute, value in list(vars(owner).items()):
                if id(value) in objects and objects[id(value)] is value:
                    found.append((owner, attribute, value))
    return found


@dataclass
class Patch:
    """What one :func:`patch` call swapped."""

    #: ``id(original) -> (original, wrapper)`` for every layer function.
    swaps: dict[int, tuple[Callable, Callable]]
    #: ``(owner, attribute, original)`` for every binding rebound.
    sites: list[tuple[Any, str, Callable]]

    def originals(self) -> dict[int, Callable]:
        return {key: pair[0] for key, pair in self.swaps.items()}

    def wrappers(self) -> dict[int, Callable]:
        return {id(pair[1]): pair[1] for pair in self.swaps.values()}


def patch(tracer: Tracer) -> Patch:
    """Rebind every layer function to its wrapper, wherever it is bound."""
    swaps = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            original = _resolve(target)
            swaps[id(original)] = (original, tracer.wrap(layer, target, original))
    active = Patch(swaps=swaps, sites=[])
    active.sites = _sites(active.originals())
    for owner, attribute, original in active.sites:
        setattr(owner, attribute, swaps[id(original)][1])
    return active


def restore(active: Patch) -> None:
    """Put every original back, including bindings made after patching."""
    back = {id(wrapper): original for original, wrapper in active.swaps.values()}
    for owner, attribute, wrapper in _sites(active.wrappers()):
        setattr(owner, attribute, back[id(wrapper)])


def _names(sites: list[tuple[Any, str, Callable]]) -> list[str]:
    return sorted(f"{owner.__name__}.{attribute}" for owner, attribute, _ in sites)


def check_patched(active: Patch) -> None:
    """Raise unless every binding of a layer function is its wrapper."""
    stale = _sites(active.originals())
    if stale:
        raise RuntimeError(f"untraced bindings after patching: {_names(stale)}")


def check_restored(active: Patch) -> None:
    """Raise unless no wrapper is left and every rebound binding is back."""
    left = _sites(active.wrappers())
    if left:
        raise RuntimeError(f"wrappers left after restoring: {_names(left)}")
    lost = [site for site in active.sites if vars(site[0]).get(site[1]) is not site[2]]
    if lost:
        raise RuntimeError(f"bindings not restored: {_names(lost)}")
