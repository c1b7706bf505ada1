"""The computation-graph DAG."""

import pytest
from hypothesis import given

from repro.errors import GraphError
from repro.graphs.graph import ComputationGraph
from repro.graphs.ops import LayerSpec, OpKind, input_layer
from repro.graphs.tensor import TensorShape

from ..conftest import build_chain, build_diamond, random_dags


class TestConstruction:
    def test_duplicate_name_rejected(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(input_layer("in", TensorShape(4, 4, 4)))

    def test_unknown_input_rejected(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_layer(
                LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), ["ghost"]
            )

    def test_compute_layer_needs_input(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_layer(LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), [])

    def test_input_layer_cannot_have_producers(self):
        g = ComputationGraph()
        g.add_layer(input_layer("a", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(input_layer("b", TensorShape(4, 4, 4)), ["a"])

    def test_duplicate_edge_rejected(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(
                LayerSpec("e", OpKind.ELTWISE, TensorShape(4, 4, 4)),
                ["in", "in"],
            )


class TestQueries:
    def test_len_and_contains(self, chain_graph):
        assert len(chain_graph) == 5
        assert "conv1" in chain_graph
        assert "ghost" not in chain_graph

    def test_unknown_layer_raises(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.layer("ghost")

    def test_predecessors_successors(self, diamond_graph):
        assert diamond_graph.predecessors("join") == ("left", "right")
        assert diamond_graph.successors("stem") == ("left", "right")

    def test_edges_deterministic(self, diamond_graph):
        assert diamond_graph.edges == (
            ("in", "stem"),
            ("stem", "left"),
            ("stem", "right"),
            ("left", "join"),
            ("right", "join"),
        )

    def test_inputs_and_outputs(self, diamond_graph):
        assert diamond_graph.input_names == ("in",)
        assert diamond_graph.output_names == ("join",)

    def test_compute_names_excludes_inputs(self, chain_graph):
        assert "in" not in chain_graph.compute_names
        assert len(chain_graph.compute_names) == 4

    def test_compute_index_is_integer_view(self, diamond_graph):
        view = diamond_graph.compute_index()
        assert view.names == ("stem", "left", "right", "join")
        assert view.position == {"stem": 0, "left": 1, "right": 2, "join": 3}
        # The input edge is left out; the rest keep ``edges`` order.
        assert view.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert view.sources == (0, 0, 1, 2)
        assert view.targets == (1, 2, 3, 3)

    def test_cached_views_are_reset_by_add_layer(self, chain_graph):
        names, edges = chain_graph.compute_names, chain_graph.edges
        view = chain_graph.compute_index()
        assert chain_graph.compute_names is names
        assert chain_graph.edges is edges
        assert chain_graph.compute_index() is view
        chain_graph.add_layer(
            LayerSpec("tail", OpKind.CONV, TensorShape(4, 4, 4)), ["conv4"]
        )
        assert chain_graph.compute_names == names + ("tail",)
        assert chain_graph.edges == edges + (("conv4", "tail"),)
        assert chain_graph.compute_index().position["tail"] == len(names)


class TestTopology:
    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        index = {n: i for i, n in enumerate(order)}
        for u, v in diamond_graph.edges:
            assert index[u] < index[v]

    def test_depth(self, diamond_graph):
        depths = diamond_graph.depth()
        assert depths["in"] == 0
        assert depths["stem"] == 1
        assert depths["join"] == 3

    def test_validate_passes_on_good_graph(self, diamond_graph):
        diamond_graph.validate()

    def test_validate_rejects_unconsumed_input(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        g.add_layer(
            LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), ["in"]
        )
        g.add_layer(input_layer("orphan", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.validate()


class TestAggregates:
    def test_total_weight_bytes(self):
        g = build_chain(depth=3, channels=8)
        assert g.total_weight_bytes == 3 * (9 * 8 * 8)

    def test_total_macs_positive(self, chain_graph):
        assert chain_graph.total_macs > 0

    def test_model_io_bytes(self, diamond_graph):
        assert diamond_graph.model_input_bytes() == 32 * 32 * 8
        assert diamond_graph.model_output_bytes() == 32 * 32 * 8


@given(random_dags())
def test_random_dags_are_valid(graph):
    graph.validate()
    order = graph.topological_order()
    index = {n: i for i, n in enumerate(order)}
    for u, v in graph.edges:
        assert index[u] < index[v]


@given(random_dags())
def test_depth_monotone_along_edges(graph):
    depths = graph.depth()
    for u, v in graph.edges:
        assert depths[u] < depths[v]
