import operator
import random

import pytest

from hemln import MLN, InterLayerEdges, LayerGraph
from hemln.errors import (
    DuplicateLayer,
    DuplicatePair,
    EndpointNotInLayer,
    MalformedGraph,
    NoInterLayerEdges,
    NodeIdCollision,
    UnknownLayer,
)


def test_minimal_construction():
    mln = MLN().add_layer(LayerGraph.build("A", [1, 2], [(1, 2)]))
    assert set(mln.layers) == {"A"}
    assert len(mln.layer("A").nodes) == 2
    # an MLN compares equal to MLNs alone
    assert mln.__eq__(object()) is NotImplemented and mln != object()


def test_duplicate_layer_rejected():
    mln = MLN().add_layer(LayerGraph.build("A", [1], []))
    with pytest.raises(DuplicateLayer):
        mln.add_layer(LayerGraph.build("A", [2], []))


def test_node_id_collision_rejected():
    mln = MLN().add_layer(LayerGraph.build("A", [1, 2], []))
    mln.add_layer(LayerGraph.build("B", [5, 6], []))
    with pytest.raises(NodeIdCollision,
                       match="^node 2 of layer D already belongs to layer A$"):
        mln.add_layer(LayerGraph.build("D", [2, 3], []))
    with pytest.raises(NodeIdCollision,
                       match="^node 6 of layer E already belongs to layer B$"):
        mln.add_layer(LayerGraph.build("E", [6, 7], []))
    assert set(mln.layers) == {"A", "B"}


def test_self_loop_and_dangling_edge_rejected():
    with pytest.raises(MalformedGraph):
        LayerGraph.build("A", [1], [(1, 1)])
    with pytest.raises(MalformedGraph):
        LayerGraph.build("A", [1, 2], [(1, 3)])


@pytest.mark.parametrize("build", [
    lambda: LayerGraph.build("", [1, 2], [(1, 2)]),
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
], ids=["empty-layer-id", "edge-triple", "edge-single", "edge-int", "bool-node", "edge-float",
        "edge-bool", "link-triple", "link-int", "link-float", "link-bool"])
def test_malformed_input_raises_malformed_graph(build):
    with pytest.raises(MalformedGraph):
        build()


def test_build_canonicalizes_into_sorted_rows():
    """Edge order, orientation and repeats give one layer: rows of sorted
    positions in sorted node order, from which ``edges`` is derived."""
    edges = [(40, 7), (7, 12), (12, 40), (3, 40)]
    variants = [edges, edges[::-1], [(v, u) for u, v in edges],
                [[u, v] for u, v in edges] + [(7, 40), (40, 12)]]
    built = [LayerGraph.build("A", [40, 3, 12, 7, 99], es) for es in variants]
    assert all(g == built[0] for g in built)
    assert len({hash(g) for g in built}) == 1
    g = built[0]
    assert g.nbrs == ((3,), (2, 3), (1, 3), (0, 1, 2), ())  # nodes 3, 7, 12, 40, 99
    assert all(type(row) is tuple and list(row) == sorted(row) for row in g.nbrs)
    assert g.edges == {(7, 40), (7, 12), (12, 40), (3, 40)}
    assert all(type(e) is tuple and e[0] < e[1] for e in g.edges)


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
    assert stored == [InterLayerEdges("A", "D", ((1, 10),))] * 2


def test_reversed_copy_is_sorted_and_distinct():
    """Links given as (D, A) are stored as (A, D), swapped and sorted again,
    whether built or hand-built as a frozenset."""
    rng = random.Random(2)
    pairs = {(rng.randrange(100, 140), rng.randrange(40)) for _ in range(600)}
    swapped = InterLayerEdges.build("A", "D", [(a, d) for d, a in pairs])
    for x in (InterLayerEdges.build("D", "A", [*pairs, *pairs]),
              InterLayerEdges("D", "A", frozenset(pairs))):
        mln = MLN()
        mln.add_layer(LayerGraph.build("A", range(40), []))
        mln.add_layer(LayerGraph.build("D", range(100, 140), []))
        links = mln.add_interlayer(x).stored_interlayer("A", "D").links
        assert all(map(operator.lt, links, links[1:])) and len(links) == len(pairs)
        assert mln.stored_interlayer("D", "A") == swapped


def test_stored_interlayer_names_a_missing_pair_in_the_callers_order():
    mln = MLN()
    for lid, n in (("A", 1), ("D", 10), ("M", 20)):
        mln.add_layer(LayerGraph.build(lid, [n], []))
    mln.add_interlayer(InterLayerEdges.build("A", "M", [(1, 20)]))
    with pytest.raises(NoInterLayerEdges, match="^no inter-layer edges between D and A$"):
        mln.stored_interlayer("D", "A")
    with pytest.raises(NoInterLayerEdges, match="^no inter-layer edges between A and A$"):
        mln.stored_interlayer("A", "A")


def test_interlayer_bad_endpoint():
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", [1], []))
    mln.add_layer(LayerGraph.build("D", [10], []))
    with pytest.raises(EndpointNotInLayer, match=r"^link \(99,10\): 99 not in layer A$"):
        mln.add_interlayer(InterLayerEdges.build("A", "D", [(99, 10)]))
    with pytest.raises(EndpointNotInLayer, match=r"^link \(1,99\): 99 not in layer D$"):
        mln.add_interlayer(InterLayerEdges.build("A", "D", [(1, 99)]))
    # one bad endpoint among ~1000 valid links: the same message, on each side
    big = MLN()
    big.add_layer(LayerGraph.build("A", range(1000), []))
    big.add_layer(LayerGraph.build("D", range(1000, 2000), []))
    valid = [(a, 1000 + (7 * a) % 1000) for a in range(1000)]
    with pytest.raises(EndpointNotInLayer, match=r"^link \(2000,1500\): 2000 not in layer A$"):
        big.add_interlayer(InterLayerEdges.build("A", "D", valid + [(2000, 1500)]))
    with pytest.raises(EndpointNotInLayer, match=r"^link \(500,999\): 999 not in layer D$"):
        big.add_interlayer(InterLayerEdges.build("A", "D", valid + [(500, 999)]))


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


SAME_LAYER = "^inter-layer edges require two distinct layers$"


def test_interlayer_on_one_layer_rejected_however_built(tmp_path):
    from hemln.fileio import load_mln, save_mln
    mln = MLN().add_layer(LayerGraph.build("A", [1, 2], [(1, 2)]))
    for build in (InterLayerEdges, InterLayerEdges.build):
        with pytest.raises(MalformedGraph, match=SAME_LAYER):
            mln.add_interlayer(build("A", "A", frozenset({(1, 2)})))
    # nothing was added, so the directory it saves loads back
    assert mln.interlayer_pairs() == []
    save_mln(mln, tmp_path)
    assert load_mln(tmp_path) == mln


def test_load_mln_rejects_an_interlayer_file_on_one_layer(tmp_path):
    from hemln.fileio import load_mln
    (tmp_path / "layer_A.tsv").write_text("layer\tA\n1\n2\n")
    (tmp_path / "inter_A_A.tsv").write_text("interlayer\tA\tA\n1\t2\n")
    with pytest.raises(MalformedGraph, match=SAME_LAYER):
        load_mln(tmp_path)
