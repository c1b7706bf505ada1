"""Validity checking, normalization, and repair of partitions.

Three rules make a partition valid (Sec 4.1.1):

1. every compute layer is assigned to exactly one subgraph, with dense
   indices ``0 .. k-1`` (the schedule order),
2. precedence — for every edge ``(u, v)``, ``P(u) <= P(v)``,
3. every subgraph is weakly connected through direct member-to-member
   edges.

:func:`check_partition` enforces them on every :class:`Partition` built.
:func:`normalize_groups` turns *any* raw grouping into a valid partition.
Every GA operator funnels its output through it, which is what lets
crossover and the mutations stay simple while still "guaranteeing the
validity of genomes" (Sec 4.4.3).

Both are the integer-label kernels of :mod:`repro.partition.kernels`.
They run on the graph's cached integer view (compute layers by
topological position, edges as int pairs). Normalization labels each
layer with its first group and gives unassigned layers their own label.
One union-find over the same-label edges then splits every group into
its connected components. Groups lying on quotient cycles are merged by
Tarjan contraction; the union of a quotient cycle is connected, because
each group is connected and the cycle's cross edges link them. Finally a
Kahn pass over the quotient, keyed on each group's smallest topological
position, numbers the groups. The check is the same O(V + E) pass:
domain, density, precedence over the int edges, and one union-find
whose component count must equal the group count.

:mod:`repro.partition.reference` keeps the previous string/dict
implementation as the oracle the kernels are tested and benchmarked
against.
"""

from __future__ import annotations

from typing import Callable

from .kernels import check_partition, normalize_groups
from .partition import Partition

__all__ = ["check_partition", "normalize_groups", "split_infeasible"]


def split_infeasible(
    partition: Partition,
    is_feasible: Callable[[frozenset[str]], bool],
    max_rounds: int = 64,
) -> Partition:
    """In-situ repair: split oversized subgraphs until everything fits.

    This is the paper's in-situ ``split-subgraph`` tuning (Sec 4.4.4):
    when a subgraph exceeds the buffer capacity, bisect it along the
    topological order and retry. Singleton subgraphs that still do not fit
    are left in place (the partition is then genuinely infeasible for this
    hardware and will be priced at infinity).
    """
    graph = partition.graph
    topo_index = graph.topo_index()
    current = partition
    for _ in range(max_rounds):
        groups = [set(g) for g in current.subgraph_sets]
        oversized = [
            g for g in groups if len(g) > 1 and not is_feasible(frozenset(g))
        ]
        if not oversized:
            return current
        next_groups: list[set[str]] = []
        for group in groups:
            if group not in oversized:
                next_groups.append(group)
                continue
            ordered = sorted(group, key=lambda n: topo_index[n])
            half = len(ordered) // 2
            next_groups.append(set(ordered[:half]))
            next_groups.append(set(ordered[half:]))
        # Normalization may re-merge pieces whose split created quotient
        # cycles, so feasibility is re-checked on the normalized result
        # each round; singleton quotients are DAGs, which guarantees
        # termination.
        current = normalize_groups(graph, next_groups)
    return current
