import pytest

from hemln import MLN, InterLayerEdges, LayerGraph
from hemln.errors import (
    DuplicateLayer,
    DuplicatePair,
    EndpointNotInLayer,
    MalformedGraph,
    NodeIdCollision,
    UnknownLayer,
)


def test_minimal_construction():
    mln = MLN().add_layer(LayerGraph.build("A", [1, 2], [(1, 2)]))
    assert set(mln.layers) == {"A"}
    assert len(mln.layer("A").nodes) == 2


def test_duplicate_layer_rejected():
    mln = MLN().add_layer(LayerGraph.build("A", [1], []))
    with pytest.raises(DuplicateLayer):
        mln.add_layer(LayerGraph.build("A", [2], []))


def test_node_id_collision_rejected():
    mln = MLN().add_layer(LayerGraph.build("A", [1, 2], []))
    with pytest.raises(NodeIdCollision):
        mln.add_layer(LayerGraph.build("D", [2, 3], []))


def test_self_loop_and_dangling_edge_rejected():
    with pytest.raises(MalformedGraph):
        LayerGraph.build("A", [1], [(1, 1)])
    with pytest.raises(MalformedGraph):
        LayerGraph.build("A", [1, 2], [(1, 3)])


@pytest.mark.parametrize("build", [
    lambda: LayerGraph.build("A", [1, 2], [(1, 2, 3)]),
    lambda: LayerGraph.build("A", [1, 2], [(1,)]),
    lambda: LayerGraph.build("A", [1, 2], [7]),
    lambda: LayerGraph.build("A", [True], []),
    lambda: LayerGraph.build("A", [1, 2], [(1.0, 2)]),
    lambda: LayerGraph.build("A", [1, 2], [(True, 2)]),
    lambda: InterLayerEdges.build("A", "D", [(1, 10, 3)]),
    lambda: InterLayerEdges.build("A", "D", [10]),
    lambda: InterLayerEdges.build("A", "D", [(1, 10), (1.0, 11)]),
    lambda: InterLayerEdges.build("A", "D", [(1, True)]),
], ids=["edge-triple", "edge-single", "edge-int", "bool-node", "edge-float",
        "edge-bool", "link-triple", "link-int", "link-float", "link-bool"])
def test_malformed_input_raises_malformed_graph(build):
    with pytest.raises(MalformedGraph):
        build()


def test_build_keeps_canonical_tuples():
    e = (1, 2)
    g = LayerGraph.build("A", [1, 2, 3], [e, (3, 2), [1, 3], (2, 1)])
    assert g.edges == {(1, 2), (2, 3), (1, 3)}
    assert any(x is e for x in g.edges)
    assert all(type(x) is tuple for x in g.edges)


def test_interlayer_registration_and_symmetry():
    stored = []
    for x in (InterLayerEdges.build("A", "D", [(1, 10)]),
              InterLayerEdges.build("D", "A", [(10, 1)])):
        mln = MLN()
        mln.add_layer(LayerGraph.build("A", [1, 2], [(1, 2)]))
        mln.add_layer(LayerGraph.build("D", [10], []))
        mln.add_interlayer(x)
        assert mln.stored_interlayer("D", "A") is mln.stored_interlayer("A", "D")
        stored.append(mln.stored_interlayer("D", "A"))
    # either orientation is stored as (A, D); the (D, A) links are swapped
    assert stored == [InterLayerEdges("A", "D", frozenset({(1, 10)}))] * 2


def test_interlayer_bad_endpoint():
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", [1], []))
    mln.add_layer(LayerGraph.build("D", [10], []))
    with pytest.raises(EndpointNotInLayer):
        mln.add_interlayer(InterLayerEdges.build("A", "D", [(99, 10)]))


def test_interlayer_unknown_layer_and_duplicate_pair():
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", [1], []))
    with pytest.raises(UnknownLayer):
        mln.add_interlayer(InterLayerEdges.build("A", "Z", [(1, 2)]))
    mln.add_layer(LayerGraph.build("D", [10], []))
    mln.add_interlayer(InterLayerEdges.build("A", "D", [(1, 10)]))
    with pytest.raises(DuplicatePair):
        mln.add_interlayer(InterLayerEdges.build("D", "A", [(10, 1)]))


def test_frozen_mln_rejects_mutation():
    mln = MLN().add_layer(LayerGraph.build("A", [1], [])).freeze()
    with pytest.raises(MalformedGraph):
        mln.add_layer(LayerGraph.build("B", [2], []))
