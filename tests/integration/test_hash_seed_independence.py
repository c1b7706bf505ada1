"""Hash-seed independence of the sorted-set-iteration fixes.

Each primitive fixed in this PR (union-find bucketing, interface-input
discovery, tiling derivation, subgraph extraction, crossover's decided
map, quotient reachability) used to iterate a ``set`` raw — so its
internal visit order, and in some cases its output, depended on
``PYTHONHASHSEED``. In-process tests cannot vary the hash seed, so the
regression check runs one canonical scenario per fixed site in two
subprocesses with *different* hash seeds and asserts byte-identical
JSON output.

A second check runs a whole tiny campaign under two hash seeds and
compares every registry file byte for byte (telemetry, which carries
wall-clock timestamps, aside): checkpoints store partition assignments,
so those must serialize in an order that does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: One scenario per fixed site, folded into a single canonical document.
SCENARIO = textwrap.dedent(
    """
    import json
    import random

    from repro.config import MemoryConfig
    from repro.cost.ema import profile_subgraph, profile_subgraph_reference
    from repro.execution.tiling import TilingStructure, derive_tiling
    from repro.ga.crossover import crossover
    from repro.ga.genome import Genome
    from repro.ga.mutation import merge_subgraph, split_subgraph
    from repro.graphs.graph import ComputationGraph
    from repro.graphs.ops import LayerSpec, OpKind, input_layer
    from repro.graphs.tensor import TensorShape
    from repro.graphs.transforms import extract_subgraph
    from repro.partition.partition import Partition
    from repro.partition.subgraph import (
        quotient_reachable,
        weakly_connected_components,
    )


    def conv(name, shape, channels):
        out = shape.conv_output(3, 1, channels)
        return LayerSpec(
            name, OpKind.CONV, out, kernel=3, stride=1,
            weight_bytes=9 * shape.channels * channels,
            macs=out.elements * 9 * shape.channels,
        )


    def build():
        g = ComputationGraph("fixture")
        shape = TensorShape(16, 16, 8)
        g.add_layer(input_layer("in", shape))
        g.add_layer(conv("stem", shape, 8), ["in"])
        for arm in ("alpha", "beta", "gamma"):
            g.add_layer(conv(arm, shape, 8), ["stem"])
        g.add_layer(
            LayerSpec("join", OpKind.ELTWISE, shape, kernel=1, stride=1,
                      weight_bytes=0, macs=shape.elements),
            ["alpha", "beta", "gamma"],
        )
        g.add_layer(conv("head", shape, 8), ["join"])
        return g


    graph = build()
    arms = {"alpha", "beta", "gamma", "join"}
    out = {}

    # partition/subgraph.py: union-find over a raw member set
    components = weakly_connected_components(
        graph, {"stem", "alpha", "gamma", "head"}
    )
    out["wcc"] = [sorted(c) for c in components]

    # partition/subgraph.py: adjacency built from an edge set
    edges = {(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)}
    out["qr"] = [
        quotient_reachable(edges, 0, 2, skip_direct)
        for skip_direct in (False, True)
    ]

    # graphs/transforms.py: membership validation + extraction
    sub = extract_subgraph(graph, arms)
    out["extract"] = [
        (name, sorted(sub.predecessors(name)))
        for name in sub.topological_order()
    ]

    # execution/tiling.py: legacy walk and single-pass structure
    tiling = derive_tiling(graph, arms, output_tile_rows=2)
    out["tiling"] = [
        (n.name, n.delta, n.tile_rows, n.upd_num,
         n.is_interface_input, n.is_output)
        for n in tiling.nodes.values()
    ]
    out["elementary_ops"] = tiling.num_elementary_ops
    structure = TilingStructure(graph, frozenset(arms))
    out["signature"] = repr(structure.signature)

    # cost/ema.py: fast and reference profiles (interface inputs,
    # weight tables, byte/MAC reductions)
    for label, profile in (
        ("fast", profile_subgraph(graph, arms, 2)),
        ("reference", profile_subgraph_reference(graph, arms, 2)),
    ):
        out[f"profile_{label}"] = {
            "io": [profile.input_bytes, profile.output_bytes],
            "weights": list(profile.layer_weights),
            "macs": profile.macs,
            "options": [
                (o.tile_rows, o.activation_bytes, o.num_elementary_ops)
                for o in profile.tile_options
            ],
        }

    # ga/crossover.py: the decided-map fill order
    memory = MemoryConfig()
    dad = Genome(
        Partition.from_groups(
            graph,
            [{"stem"}, {"alpha", "beta", "gamma", "join"}, {"head"}],
        ),
        memory,
    )
    mom = Genome(
        Partition.from_groups(
            graph,
            [{"stem", "alpha"}, {"beta"}, {"gamma", "join", "head"}],
        ),
        memory,
    )
    child = crossover(dad, mom, random.Random(7))
    out["crossover"] = sorted(child.partition.assignment.items())

    # ga/mutation.py round trip over the offspring keeps the scenario
    # honest end-to-end (membership-only set use, must stay stable)
    mutated = merge_subgraph(split_subgraph(child, random.Random(11)),
                             random.Random(13))
    out["mutated"] = sorted(mutated.partition.assignment.items())

    print(json.dumps(out, sort_keys=True))
    """
)


#: A tiny five-scheme campaign; the registry root is ``argv[1]``.
CAMPAIGN = textwrap.dedent(
    """
    import sys

    from repro.runs.suite import SuiteMatrix, run_suite

    matrix = SuiteMatrix(
        networks=("googlenet",),
        metrics=("ema",),
        schemes=("cocco", "sa", "nsga", "islands", "rs"),
        scale="tiny",
    )
    run_suite(matrix, sys.argv[1], workers=1)
    """
)


def run_with_hash_seed(seed: str, script: str = SCENARIO, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


def registry_files(root: Path) -> dict[str, bytes]:
    """Every file under a registry but telemetry, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "telemetry.jsonl"
    }


class TestHashSeedIndependence:
    def test_fixed_sites_are_hash_seed_independent(self):
        baseline = run_with_hash_seed("0")
        for seed in ("1", "31337"):
            assert run_with_hash_seed(seed) == baseline, (
                f"output diverges under PYTHONHASHSEED={seed}"
            )

    def test_scenario_exercises_every_fixed_site(self):
        payload = json.loads(run_with_hash_seed("0"))
        assert set(payload) == {
            "wcc",
            "qr",
            "extract",
            "tiling",
            "elementary_ops",
            "signature",
            "profile_fast",
            "profile_reference",
            "crossover",
            "mutated",
        }
        # fast and reference pipelines agree on the profile itself
        assert payload["profile_fast"] == payload["profile_reference"]

    def test_campaign_registry_is_hash_seed_independent(self, tmp_path):
        registries = []
        for seed in ("0", "1"):
            root = tmp_path / f"registry-{seed}"
            run_with_hash_seed(seed, CAMPAIGN, str(root))
            registries.append(registry_files(root))
        assert sum(name.endswith("checkpoint.json") for name in registries[0]) == 5
        assert registries[0] == registries[1]
