"""Integer-label kernels against the retained reference implementation.

``repro.partition.reference`` is the string/dict code the kernels
replaced. For any grouping the kernel ``normalize_groups`` must build the
same partition, and for any assignment ``check_partition`` must accept or
reject exactly as the reference does, with the same message.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graphs.graph import ComputationGraph
from repro.graphs.ops import LayerSpec, OpKind, input_layer
from repro.graphs.tensor import TensorShape
from repro.graphs.zoo import get_model
from repro.partition import reference
from repro.partition.partition import Partition
from repro.partition.validity import check_partition, normalize_groups

from ..conftest import random_dags

ZOO = ("randwire_a", "googlenet", "resnet50", "nasnet", "unet")


@functools.lru_cache(maxsize=None)
def zoo_graph(name: str):
    return get_model(name)


graphs = st.one_of(random_dags(), st.sampled_from(ZOO).map(zoo_graph))


@st.composite
def groupings(draw, graph):
    """Arbitrary raw groupings: duplicates across groups, unknown names,
    input layers, empty groups and layers no group names."""
    names = list(graph.compute_names)
    pool = names + ["ghost", "phantom"] + list(graph.input_names)
    if draw(st.booleans()):
        # Operator-like: contiguous runs of the topological order,
        # perturbed by a few moved, duplicated or dropped layers.
        sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=len(names)))
        groups, cursor = [], 0
        for size in sizes:
            groups.append(set(names[cursor : cursor + size]))
            cursor += size
        for _ in range(draw(st.integers(0, 4))):
            group = draw(st.integers(0, len(groups) - 1))
            groups[group].add(draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            groups.pop(draw(st.integers(0, len(groups) - 1)))
        return groups
    member = st.sampled_from(pool)
    return draw(
        st.lists(
            st.one_of(st.sets(member, max_size=8), st.lists(member, max_size=8)),
            max_size=len(names) + 2,
        )
    )


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_normalize_matches_reference(graph, data):
    groups = data.draw(groupings(graph))
    kernel = normalize_groups(graph, groups)
    oracle = reference.normalize_groups(graph, groups)
    assert kernel._key == oracle._key
    assert kernel.subgraph_sets == oracle.subgraph_sets


def test_contracted_group_ranks_by_its_first_layer():
    # n0 -> n2 -> n3 and n0 -> n3, with n1 on a branch of its own. The
    # group {n0, n1, n3} splits into {n0, n3} and {n1}; {n0, n3} and
    # {n2} then form a quotient cycle and merge. The merged group starts
    # at n0, so it is scheduled before n1.
    graph = ComputationGraph("cycle")
    shape = TensorShape(4, 4, 4)
    graph.add_layer(input_layer("in", shape))
    for name, inputs in (
        ("n0", ["in"]),
        ("n1", ["in"]),
        ("n2", ["n0"]),
        ("n3", ["n2", "n0"]),
    ):
        graph.add_layer(LayerSpec(name, OpKind.CONV, shape), inputs)
    groups = [{"n0", "n1", "n3"}]
    partition = normalize_groups(graph, groups)
    assert partition.subgraph_sets == (
        frozenset({"n0", "n2", "n3"}),
        frozenset({"n1"}),
    )
    assert partition._key == reference.normalize_groups(graph, groups)._key


def _verdict(check, graph, assignment):
    try:
        check(graph, assignment)
    except PartitionError as exc:
        return str(exc)
    return None


def _assert_same_verdict(graph, assignment, rejected):
    expected = _verdict(reference.check_partition, graph, assignment)
    assert _verdict(check_partition, graph, assignment) == expected
    assert (expected is not None) == rejected
    if rejected:
        with pytest.raises(PartitionError):
            check_partition(graph, assignment)


@settings(max_examples=100, deadline=None)
@given(graphs, st.data())
def test_check_accepts_valid_partitions(graph, data):
    partition = normalize_groups(graph, data.draw(groupings(graph)))
    _assert_same_verdict(graph, partition.assignment, rejected=False)
    assert check_partition(graph, partition.assignment) == partition._key


@settings(max_examples=100, deadline=None)
@given(graphs, st.data())
def test_check_matches_reference_on_arbitrary_labels(graph, data):
    names = graph.compute_names
    size = len(names)
    labels = data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    assignment = dict(zip(names, labels))
    expected = _verdict(reference.check_partition, graph, assignment)
    _assert_same_verdict(graph, assignment, rejected=expected is not None)


BREAKAGES = ("missing", "extra", "input", "density", "precedence", "disconnected")


def _break(graph, partition, how, data):
    """An assignment derived from a valid ``partition``, broken ``how``."""
    assignment = partition.assignment
    names = graph.compute_names
    if how == "missing":
        del assignment[data.draw(st.sampled_from(names))]
    elif how == "extra":
        assignment["ghost"] = 0
    elif how == "input":
        assignment[graph.input_names[0]] = 0
    elif how == "density":
        bump = data.draw(st.integers(0, partition.num_subgraphs - 1))
        assignment = {n: i + (i >= bump) for n, i in assignment.items()}
    elif how == "precedence":
        # Swap the numbers of two subgraphs joined by an edge.
        crossing = sorted(
            {
                (assignment[u], assignment[v])
                for u, v in graph.edges
                if u in assignment and assignment[u] != assignment[v]
            }
        )
        assume(crossing)
        a, b = data.draw(st.sampled_from(crossing))
        swap = {a: b, b: a}
        assignment = {n: swap.get(i, i) for n, i in assignment.items()}
    else:
        # Fuse two consecutive subgraphs that share no edge: only
        # connectivity breaks, precedence and density still hold.
        sets = partition.subgraph_sets
        loose = [
            i
            for i in range(len(sets) - 1)
            if not any(
                (u in sets[i] and v in sets[i + 1])
                or (u in sets[i + 1] and v in sets[i])
                for u, v in graph.edges
            )
        ]
        assume(loose)
        fuse = data.draw(st.sampled_from(loose))
        assignment = {n: i - (i > fuse) for n, i in assignment.items()}
    return assignment


@pytest.mark.parametrize("how", BREAKAGES)
@settings(max_examples=40, deadline=None)
@given(graph=graphs, data=st.data())
def test_check_rejects_like_reference(how, graph, data):
    partition = normalize_groups(graph, data.draw(groupings(graph)))
    broken = _break(graph, partition, how, data)
    _assert_same_verdict(graph, broken, rejected=True)


def test_partition_assignment_follows_topological_order(chain_graph):
    names = chain_graph.compute_names
    reversed_order = {n: 0 for n in reversed(names)}
    assert list(Partition(chain_graph, reversed_order).assignment) == list(names)
