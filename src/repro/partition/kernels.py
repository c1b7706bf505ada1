"""Integer-label partition kernels: normalize and check in O(V + E).

Both kernels run on one cached per-graph integer view,
:meth:`ComputationGraph.compute_index`: the compute layers in topological
order and the compute-to-compute edges as ``(int, int)`` pairs. A grouping
becomes a list of labels, one per topological position, and every step is
a pass over that list and the edge list:

* **split** — one union-find over the edges whose endpoints share a label
  gives the weakly connected components of every group at once. Unions
  always hang the larger root under the smaller one, so each component's
  root is its smallest topological position: the group's rank in the
  schedule order.
* **order** — a Kahn pass over the quotient graph of the components,
  keyed on rank (a heap), yields the schedule order. It also detects
  quotient cycles: the pass stops short exactly when one exists. When
  rank rises along every edge, ascending rank is that order and the
  quotient is never built.
* **contract** — iterative Tarjan on the integer quotient graph merges
  every strongly connected component into one group.

:func:`normalize_groups` runs split, order, and — only when the order
pass finds a cycle — contract, order. The reference implementation
(``reference.py``) runs split, contract, split, contract, order; the
steps dropped here never change anything. Contraction merges nothing
on an acyclic quotient. After one contraction every group is still
connected, because any path between two groups of one strongly
connected component stays inside that component, and each of its
quotient edges is a graph edge between two of its members; so the
second split and the second contraction are no-ops. The result depends
only on the final set of groups, so it is identical to the reference's
whatever the input order or set-iteration order.

:func:`check_partition` is one more such pass: domain, density,
precedence over the int edges, then one split whose component count
must equal the group count.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from operator import eq, gt, le
from typing import Iterable, Mapping, Sequence

from ..errors import PartitionError
from ..graphs.graph import ComputationGraph, ComputeIndex
from .partition import Partition
from .subgraph import weakly_connected_components


def _split(view: ComputeIndex, label: Sequence[object]) -> list[int]:
    """Root (smallest member position) of each position's component.

    Components are those of the label classes, each connected through
    its own direct member-to-member edges.
    """
    getter = label.__getitem__
    same = compress(
        view.edges, map(eq, map(getter, view.sources), map(getter, view.targets))
    )
    parent = list(range(len(view.names)))
    for u, v in same:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    # Every parent pointer goes to a smaller position, so one ascending
    # pass flattens the forest: parent[i]'s root is already final.
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent


def _quotient(
    view: ComputeIndex, root: list[int]
) -> tuple[list[int], list[set[int] | None], list[int]]:
    """The quotient graph over components, indexed by root.

    Returns the roots in ascending order, each root's successor set and
    each root's in-degree (entries of non-roots are unused).
    """
    groups = sorted(set(root))
    succ: list[set[int] | None] = [None] * len(root)
    indegree = [0] * len(root)
    for group in groups:
        succ[group] = set()
    getter = root.__getitem__
    for a, b in zip(map(getter, view.sources), map(getter, view.targets)):
        if a != b:
            targets = succ[a]
            if b not in targets:
                targets.add(b)
                indegree[b] += 1
    return groups, succ, indegree


def _order(view: ComputeIndex, root: list[int]) -> list[int] | None:
    """Components in Kahn order, smallest rank first; None if cyclic."""
    getter = root.__getitem__
    if all(map(le, map(getter, view.sources), map(getter, view.targets))):
        # Rank rises along every quotient edge, so each component's
        # predecessors all rank below it: ascending rank is the order.
        return sorted(set(root))
    groups, succ, indegree = _quotient(view, root)
    ready = [group for group in groups if not indegree[group]]
    heapify(ready)
    order: list[int] = []
    while ready:
        node = heappop(ready)
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                heappush(ready, nxt)
    return order if len(order) == len(groups) else None


def _contract(view: ComputeIndex, root: list[int]) -> list[int]:
    """Relabel every position by its quotient SCC (iterative Tarjan).

    Each SCC is named by its smallest root, which is the smallest
    position of the merged group.
    """
    groups, succ, _ = _quotient(view, root)
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    rename: dict[int, int] = {}
    counter = 0
    for start in groups:
        if start in index:
            continue
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(succ[start]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if nxt in on_stack and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    name = min(members)
                    for member in members:
                        rename[member] = name
    return [rename[r] for r in root]


def normalize_groups(
    graph: ComputationGraph, groups: Sequence[Iterable[str]]
) -> Partition:
    """Repair any raw grouping of the compute layers into a valid partition.

    A layer belongs to the first group that names it; unknown names are
    dropped and unassigned layers become singletons.
    """
    view = graph.compute_index()
    position = view.position
    label: list[int] = [-1] * len(view.names)
    group_id = 0
    for group in groups:
        for i in map(position.get, group):
            if i is not None and label[i] < 0:
                label[i] = group_id
        group_id += 1
    for i, assigned in enumerate(label):
        if assigned < 0:
            label[i] = group_id
            group_id += 1

    root = _split(view, label)
    order = _order(view, root)
    if order is None:
        # One contraction is final: its quotient is a condensation, hence
        # acyclic, and each merged group is connected.
        root = _contract(view, root)
        order = _order(view, root)
    number = {group: i for i, group in enumerate(order)}
    return Partition(graph, dict(zip(view.names, map(number.__getitem__, root))))


def check_partition(
    graph: ComputationGraph, assignment: Mapping[str, int]
) -> tuple[int, ...]:
    """Raise :class:`PartitionError` unless ``assignment`` is valid.

    Checks, in order: the domain (exactly the compute layers), dense
    indices ``0 .. k-1``, precedence on every edge, and that each
    subgraph is weakly connected (one union-find whose component count
    must equal the subgraph count). Returns the indices in topological
    order of the compute layers.
    """
    view = graph.compute_index()
    names = view.names
    try:
        labels = list(map(assignment.__getitem__, names))
    except KeyError:
        labels = None
    if labels is None or len(assignment) != len(names):
        compute = set(names)
        assigned = set(assignment)
        missing = sorted(compute - assigned)
        extra = sorted(assigned - compute)
        raise PartitionError(
            f"bad assignment domain: missing={missing[:5]} extra={extra[:5]}"
        )
    indices = set(labels)
    if min(indices) != 0 or indices != set(range(len(indices))):
        raise PartitionError(f"subgraph indices are not dense: {sorted(indices)[:10]}")
    getter = labels.__getitem__
    heads = list(map(getter, view.sources))
    tails = list(map(getter, view.targets))
    if any(map(gt, heads, tails)):
        for (u, v), a, b in zip(view.edges, heads, tails):
            if a > b:
                raise PartitionError(
                    f"precedence violated on edge ({names[u]!r}, {names[v]!r}): "
                    f"{a} > {b}"
                )
    # Each subgraph has at least one component, so the counts match
    # exactly when every subgraph is connected.
    if len(set(_split(view, labels))) != len(indices):
        _raise_disconnected(graph, assignment)
    return tuple(labels)


def _raise_disconnected(graph: ComputationGraph, assignment: Mapping[str, int]):
    """Name the first disconnected subgraph, in assignment order."""
    groups: dict[int, set[str]] = {}
    for name, index in assignment.items():
        groups.setdefault(index, set()).add(name)
    for index, members in groups.items():
        components = weakly_connected_components(graph, members)
        if len(components) != 1:
            raise PartitionError(
                f"subgraph {index} is disconnected: "
                f"{[sorted(c)[:3] for c in components]}"
            )
