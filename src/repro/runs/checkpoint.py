"""JSON codec for search checkpoints (the registry's ``checkpoint.json``).

One codec serves every searcher's checkpoint dataclass: it walks
``dataclasses.fields`` and derives each field's JSON form from its type
annotation, once per class. Lists and tuples become arrays (tuples come
back as tuples), nested dataclasses become objects, and a nested
checkpoint becomes a sub-document with its own ``format``/``kind``
header, so a field added to a checkpoint class round-trips without
touching this module. :data:`_LAYOUTS` holds what annotations cannot
say about the v1 format.

Genomes are serialized *structurally* (layer -> subgraph assignment plus
the memory configuration) and rebuilt against the resuming process's
graph object, so a checkpoint written by one process resumes in another
even though :class:`~repro.partition.partition.Partition` equality is
tied to graph identity. Every float survives the round trip exactly
(Python's JSON encoder emits shortest round-trip reprs), which is what
keeps resumed runs bit-identical to uninterrupted ones.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable

from ..config import BufferMode, MemoryConfig
from ..dse.nsga import MultiObjectivePoint, NSGACheckpoint
from ..dse.two_step import TwoStepCheckpoint
from ..errors import ConfigError
from ..ga.annealing import SACheckpoint
from ..ga.engine import EngineCheckpoint
from ..ga.genome import Genome
from ..ga.islands import IslandsCheckpoint
from ..graphs.graph import ComputationGraph
from ..partition.partition import Partition

_FORMAT_VERSION = 1

#: One value to its JSON form.
Encode = Callable[[Any], Any]
#: One JSON form back to its value, against the resuming graph.
Decode = Callable[[Any, ComputationGraph], Any]
Codec = tuple[Encode, Decode]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------
def memory_to_dict(memory: MemoryConfig) -> dict[str, Any]:
    if memory.mode is BufferMode.SHARED:
        return {"mode": "shared", "shared": memory.shared_buffer_bytes}
    return {
        "mode": "separate",
        "global": memory.global_buffer_bytes,
        "weight": memory.weight_buffer_bytes,
    }


def memory_from_dict(data: dict[str, Any]) -> MemoryConfig:
    if data["mode"] == "shared":
        return MemoryConfig.shared(data["shared"])
    return MemoryConfig.separate(data["global"], data["weight"])


def genome_to_dict(genome: Genome) -> dict[str, Any]:
    return {
        "assignment": genome.partition.assignment,
        "memory": memory_to_dict(genome.memory),
    }


def genome_from_dict(data: dict[str, Any], graph: ComputationGraph) -> Genome:
    return Genome(
        partition=Partition(graph, data["assignment"]),
        memory=memory_from_dict(data["memory"]),
    )


_LEAVES: dict[Any, Codec] = {
    Genome: (genome_to_dict, genome_from_dict),
    MemoryConfig: (memory_to_dict, lambda data, graph: memory_from_dict(data)),
}

_SCALARS = (int, float, str, bool)


# ---------------------------------------------------------------------------
# The per-class table: what annotations cannot say
# ---------------------------------------------------------------------------
def _nsga_points_to_json(checkpoint: NSGACheckpoint) -> list[Any]:
    """The population as indices into the archive (genomes stored once).

    Identity lookup covers the live-engine case; a checkpoint that was
    itself round-tripped holds equal-but-distinct objects, so those
    points are inlined.
    """
    encode_point = _codec(MultiObjectivePoint)[0]
    index_of = {id(point): i for i, point in enumerate(checkpoint.archive)}
    points: list[Any] = []
    for point in checkpoint.points:
        slot = index_of.get(id(point))
        points.append(slot if slot is not None else encode_point(point))
    return points


def _nsga_points_from_json(
    data: list[Any], graph: ComputationGraph, fields: dict[str, Any]
) -> list[MultiObjectivePoint]:
    decode_point = _codec(MultiObjectivePoint)[1]
    archive = fields["archive"]
    return [
        archive[entry] if isinstance(entry, int) else decode_point(entry, graph)
        for entry in data
    ]


@dataclass(frozen=True)
class _Layout:
    """One checkpoint class's JSON header and special fields."""

    #: Accepted ``kind`` tags; the first is the default stamp. Two-step
    #: snapshots also accept the suite scheme names, so a registry
    #: directory is self-describing about which scheme wrote it.
    kinds: tuple[str, ...]
    #: Read-only properties written at top level and ignored on load,
    #: each placed before the named field: the budget scheduler probes a
    #: composite's ``evaluations`` without understanding the composite.
    derived: dict[str, str] = field(default_factory=dict)
    #: Fields encoded from the whole checkpoint and decoded after every
    #: plain field: ``(encode(checkpoint), decode(data, graph, fields))``.
    custom: dict[str, tuple[Callable, Callable]] = field(default_factory=dict)


_LAYOUTS: dict[type, _Layout] = {
    EngineCheckpoint: _Layout(kinds=("ga",)),
    SACheckpoint: _Layout(kinds=("sa",)),
    IslandsCheckpoint: _Layout(kinds=("islands",), derived={"evaluations": "islands"}),
    TwoStepCheckpoint: _Layout(
        kinds=("two_step", "rs", "gs"), derived={"evaluations": "cumulative"}
    ),
    NSGACheckpoint: _Layout(
        kinds=("nsga",),
        custom={"points": (_nsga_points_to_json, _nsga_points_from_json)},
    ),
}

_CLASS_OF_KIND = {
    kind: cls for cls, layout in _LAYOUTS.items() for kind in layout.kinds
}

#: The v1 JSON names of genome fields.
_RENAMES = {"best_genome": "best", "current_genome": "current"}


# ---------------------------------------------------------------------------
# Codec construction (once per type)
# ---------------------------------------------------------------------------
#: The codec of values that are their own JSON form.
_IDENTITY: Codec = (lambda value: value, lambda data, graph: data)

_CODECS: dict[Any, Codec] = {}


def _codec(tp: Any) -> Codec:
    """``(encode, decode)`` for values annotated ``tp``, built once."""
    if tp not in _CODECS:
        _CODECS[tp] = _build(tp)
    return _CODECS[tp]


def _build(tp: Any) -> Codec:
    if tp in _LEAVES:
        return _LEAVES[tp]
    if tp in _SCALARS:
        return _IDENTITY
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        sub = _codec(inner)
        if sub is _IDENTITY:
            return _IDENTITY
        enc, dec = sub
        return (
            lambda v: None if v is None else enc(v),
            lambda d, g: None if d is None else dec(d, g),
        )
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        build = list if origin is list else tuple
        sub = _codec(args[0])
        if sub is _IDENTITY:
            return list, lambda d, g: build(d)
        enc, dec = sub
        return (
            lambda v: [enc(x) for x in v],
            lambda d, g: build(dec(x, g) for x in d),
        )
    if origin is tuple:
        parts = [_codec(arg) for arg in args]
        if all(part is _IDENTITY for part in parts):
            return list, lambda d, g: tuple(d)
        return (
            lambda v: [enc(x) for (enc, _), x in zip(parts, v)],
            lambda d, g: tuple(dec(x, g) for (_, dec), x in zip(parts, d)),
        )
    raise TypeError(f"no checkpoint codec for {tp!r}")


def _check_header(data: dict[str, Any], kinds: tuple[str, ...]) -> None:
    if data.get("format") != _FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {data.get('format')!r}")
    if data.get("kind") not in kinds:
        raise ConfigError(
            f"checkpoint is a {data.get('kind')!r} snapshot, expected "
            + " or ".join(repr(kind) for kind in kinds)
        )


def _dataclass_codec(cls: type) -> Codec:
    layout = _LAYOUTS.get(cls)
    custom = layout.custom if layout is not None else {}
    before = {} if layout is None else {f: p for p, f in layout.derived.items()}
    hints = typing.get_type_hints(cls)
    keys = {f.name: _RENAMES.get(f.name, f.name) for f in dataclasses.fields(cls)}
    plain = {name: _codec(hints[name]) for name in keys if name not in custom}

    def encode(obj: Any) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if layout is not None:
            out["format"] = _FORMAT_VERSION
            out["kind"] = layout.kinds[0]
        for name, key in keys.items():
            if name in before:
                out[before[name]] = getattr(obj, before[name])
            if name in custom:
                out[key] = custom[name][0](obj)
            else:
                out[key] = plain[name][0](getattr(obj, name))
        return out

    def decode(data: dict[str, Any], graph: ComputationGraph) -> Any:
        if layout is not None:
            _check_header(data, layout.kinds)
        values = {
            name: dec(data[keys[name]], graph) for name, (_, dec) in plain.items()
        }
        for name, (_, dec) in custom.items():
            values[name] = dec(data[keys[name]], graph, values)
        return cls(**values)

    return encode, decode


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def checkpoint_to_dict(checkpoint: Any, kind: str | None = None) -> dict[str, Any]:
    """Serialize any search checkpoint to a JSON-able dict.

    ``kind`` overrides the class's default stamp with one of its
    accepted tags (the suite stamps two-step snapshots ``rs``/``gs``).
    """
    layout = _LAYOUTS.get(type(checkpoint))
    if layout is None:
        raise ConfigError(f"not a checkpoint: {type(checkpoint).__name__}")
    if kind is not None and kind not in layout.kinds:
        raise ConfigError(f"a {type(checkpoint).__name__} cannot be stamped {kind!r}")
    data = _codec(type(checkpoint))[0](checkpoint)
    if kind is not None:
        data["kind"] = kind
    return data


def checkpoint_from_dict(
    data: dict[str, Any], graph: ComputationGraph, kind: str | None = None
) -> Any:
    """Rebuild a checkpoint against ``graph``; its class follows ``kind``.

    ``kind`` (when given) must match the stored stamp exactly; otherwise
    any known stamp is accepted.
    """
    found = data.get("kind")
    if kind is not None and found != kind:
        raise ConfigError(f"checkpoint is a {found!r} snapshot, expected {kind!r}")
    cls = _CLASS_OF_KIND.get(found)
    if cls is None:
        raise ConfigError(f"unknown checkpoint kind {found!r}")
    return _codec(cls)[1](data, graph)
