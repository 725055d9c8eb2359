import re

import pytest

from hemln import (
    MLN,
    CommunityId,
    InterLayerEdges,
    LayerGraph,
    Membership,
    MetaEdge,
    build_cbg,
    cbg_to_tsv,
    crossing_pairs,
    load_membership,
    summarize,
    weight_d,
    weight_e,
)
from hemln.errors import (
    EmptyCbg,
    InvariantViolation,
    MissingNode,
    NoInterLayerEdges,
    UnknownCommunity,
)


def two_layer_mln(links, a_groups, d_groups, a_edges=(), d_edges=()):
    a_nodes = [n for g in a_groups for n in g]
    d_nodes = [n for g in d_groups for n in g]
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", a_nodes, a_edges))
    mln.add_layer(LayerGraph.build("D", d_nodes, d_edges))
    mln.add_interlayer(InterLayerEdges.build("A", "D", links))
    ma = load_membership(mln.layer("A"),
                         [(n, i + 1) for i, g in enumerate(a_groups) for n in g])
    md = load_membership(mln.layer("D"),
                         [(n, i + 1) for i, g in enumerate(d_groups) for n in g])
    sa = summarize(mln.layer("A"), ma)
    sd = summarize(mln.layer("D"), md)
    return mln, ma, md, sa, sd


def build(mln, ma, md, sa, sd, metric="e", u_left=None, u_right=None):
    return build_cbg("A", "D", crossing_pairs(mln, "A", "D", ma, md),
                     u_left if u_left is not None else sorted(sa),
                     u_right if u_right is not None else sorted(sd),
                     sa, sd, metric)


def test_direct_collection():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10), (2, 10)], [(1, 2)], [(10,)])
    cbg = build(mln, ma, md, sa, sd)
    assert len(cbg.edges) == 1
    assert cbg.edges[0].pairs == {(1, 10), (2, 10)}


def test_no_crossing_links_means_no_meta_edges():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], [(1,), (2,)], [(10,), (11,)])
    cbg = build(mln, ma, md, sa, sd,
                u_left=[CommunityId("A", 2)], u_right=[CommunityId("D", 2)])
    assert cbg.edges == ()


def test_restriction_respected():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], [(1,), (2,)], [(10,)])
    cbg = build(mln, ma, md, sa, sd, u_left=[CommunityId("A", 2)])
    assert cbg.edges == ()


def test_missing_interlayer_raises():
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", [1], []))
    mln.add_layer(LayerGraph.build("D", [10], []))
    ma = load_membership(mln.layer("A"), [(1, 1)])
    md = load_membership(mln.layer("D"), [(10, 1)])
    sa = summarize(mln.layer("A"), ma)
    sd = summarize(mln.layer("D"), md)
    with pytest.raises(NoInterLayerEdges, match="^no inter-layer edges between A and D$"):
        crossing_pairs(mln, "A", "D", ma, md)
    # the pair is checked before the memberships
    with pytest.raises(NoInterLayerEdges, match="^no inter-layer edges between D and A$"):
        crossing_pairs(mln, "D", "A", Membership("X", {}), ma)


def test_crossing_pairs_against_stored_orientation():
    # links are stored (A, D); asking for (D, A) swaps each link while
    # bucketing instead of building a reversed copy
    mln, ma, md, _, _ = two_layer_mln([(1, 10), (2, 11), (3, 11)],
                                      [(1, 2), (3,)], [(10,), (11,)])
    forward = crossing_pairs(mln, "A", "D", ma, md)
    backward = crossing_pairs(mln, "D", "A", md, ma)
    assert backward == {(cr, cl): frozenset((b, a) for a, b in pairs)
                        for (cl, cr), pairs in forward.items()}
    assert backward[(CommunityId("D", 2), CommunityId("A", 1))] == {(11, 2)}


def test_crossing_pairs_in_key_order_with_one_id_per_community():
    # build_cbg's sort is then one linear pass of identity-equal ids
    links = [(a, d) for a in (3, 1, 2) for d in (12, 10, 11)]
    mln, ma, md, _, _ = two_layer_mln(links, [(1,), (2,), (3,)],
                                      [(10,), (11,), (12,)])
    for buckets in (crossing_pairs(mln, "A", "D", ma, md),
                    crossing_pairs(mln, "D", "A", md, ma)):
        assert list(buckets) == sorted(buckets)
        for side in (0, 1):
            first = {}
            assert all(first.setdefault(key[side], key[side]) is key[side]
                       for key in buckets)


@pytest.mark.parametrize("node, layer", [(2, "A"), (11, "D")])
def test_membership_missing_a_node_raises(node, layer):
    mln, ma, md, _, _ = two_layer_mln([(1, 10), (2, 11)], [(1, 2)], [(10, 11)])
    hand_built = {"A": Membership("A", {1: 1}), "D": Membership("D", {10: 1})}
    ma, md = (hand_built["A"], md) if layer == "A" else (ma, hand_built["D"])
    for args in (("A", "D", ma, md), ("D", "A", md, ma)):
        with pytest.raises(MissingNode,
                           match=f"^node {node} of layer {layer} has no community$"):
            crossing_pairs(mln, *args)


@pytest.mark.parametrize("layer", ["A", "D"])
def test_membership_of_another_layer_raises(layer):
    mln, ma, md, _, _ = two_layer_mln([(1, 10), (2, 11)], [(1, 2)], [(10, 11)])
    other = {"A": ma._replace(layer="X"), "D": md._replace(layer="X")}
    ma, md = (other["A"], md) if layer == "A" else (ma, other["D"])
    for args in (("A", "D", ma, md), ("D", "A", md, ma)):
        with pytest.raises(InvariantViolation,
                           match=f"^membership of layer X given for layer {layer}$"):
            crossing_pairs(mln, *args)


def test_unknown_community_raises():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], [(1,)], [(10,)])
    with pytest.raises(UnknownCommunity):
        build(mln, ma, md, sa, sd, u_left=[CommunityId("A", 9)])


@pytest.mark.parametrize("metric, summary, message", [
    ("d", (0, 0.0, frozenset()), "c_A^1 has no nodes, which metric d divides by"),
    ("h", (0, 0.0, frozenset({1})), "c_A^1 has no nodes, which metric h divides by"),
    ("h", (1, 1.0, frozenset()), "c_A^1 has no hubs, which metric h divides by"),
], ids=["d-no-nodes", "h-no-nodes", "h-no-hubs"])
def test_hand_built_summary_a_metric_divides_by_zero(metric, summary, message):
    # summarize never makes these; each raised a raw ZeroDivisionError
    from hemln import CommunitySummary
    a1, d1 = CommunityId("A", 1), CommunityId("D", 1)
    args = ("A", "D", {(a1, d1): frozenset({(1, 10)})}, [a1], [d1],
            {a1: CommunitySummary(*summary)}, {d1: CommunitySummary(1, 1.0, frozenset({10}))})
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        build_cbg(*args, metric)
    assert len(build_cbg(*args, "e").edges) == 1  # e reads neither count


def test_weight_e_normalization():
    # pair counts 4, 2, 1 -> weights 1.0, 0.5, 0.25
    links = ([(n, 10 + n) for n in range(1, 5)]           # c1-d1: 4 links
             + [(5, 20), (6, 21)]                         # c2-d2: 2
             + [(7, 30)])                                 # c3-d3: 1
    a_groups = [(1, 2, 3, 4), (5, 6), (7,)]
    d_groups = [(11, 12, 13, 14), (20, 21), (30,)]
    mln, ma, md, sa, sd = two_layer_mln(links, a_groups, d_groups)
    cbg = build(mln, ma, md, sa, sd, metric="e")
    weights = sorted(e.weight for e in cbg.edges)
    assert weights == [0.25, 0.5, 1.0]
    assert max(weights) == 1.0


def test_weight_e_single_and_tied_edges():
    assert weight_e(3, 3) == 1.0
    assert weight_e(2, 2) == 1.0
    with pytest.raises(EmptyCbg):
        weight_e(1, 0)


def test_weight_d_two_triangles_full_links():
    a_groups = [(1, 2, 3)]
    d_groups = [(10, 11, 12)]
    tri = lambda g: [(g[0], g[1]), (g[1], g[2]), (g[0], g[2])]
    links = [(a, d) for a in a_groups[0] for d in d_groups[0]]
    mln, ma, md, sa, sd = two_layer_mln(links, a_groups, d_groups,
                                        tri(a_groups[0]), tri(d_groups[0]))
    cbg = build(mln, ma, md, sa, sd, metric="d")
    assert cbg.edges[0].weight == pytest.approx(1.0)


def test_weight_d_hand_value():
    # left density 0.5 (2 nodes would force 0 or 1, so use 4 nodes / 3 edges
    # scaled: here 2 nodes, 1 edge has density 1; construct summaries directly)
    from hemln import CommunitySummary
    left = CommunitySummary(2, 0.5, frozenset({1}))
    right = CommunitySummary(3, 1.0, frozenset({10}))
    assert weight_d(left, right, 2) == pytest.approx(0.5 * (2 / 6) * 1.0)
    assert weight_d(left, right, 2) == pytest.approx(1 / 6)


def test_weight_d_singletons():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], [(1,)], [(10,)])
    cbg = build(mln, ma, md, sa, sd, metric="d")
    assert cbg.edges[0].weight == 1.0


def test_weight_h_full_participation():
    a_groups = [(1, 2)]
    d_groups = [(10, 11)]
    links = [(a, d) for a in a_groups[0] for d in d_groups[0]]
    mln, ma, md, sa, sd = two_layer_mln(links, a_groups, d_groups,
                                        [(1, 2)], [(10, 11)])
    cbg = build(mln, ma, md, sa, sd, metric="h")
    assert cbg.edges[0].weight == pytest.approx(1.0)


def test_weight_h_partial_participation():
    # left hubs {1,2}, one participating; right hubs {10,11}, one
    # participating; one link across 2x2 nodes
    a_groups = [(1, 2)]
    d_groups = [(10, 11)]
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], a_groups, d_groups,
                                        [(1, 2)], [(10, 11)])
    cbg = build(mln, ma, md, sa, sd, metric="h")
    assert cbg.edges[0].weight == pytest.approx((1 / 2) * (1 / 4) * (1 / 2))


def test_weight_h_single_right_hub():
    # right community of 2 with exactly one hub, which participates:
    # (1/2) * (1/4) * (1/1) = 0.125
    from hemln import CommunitySummary, weight_h
    left = CommunitySummary(2, 1.0, frozenset({1, 2}))
    right = CommunitySummary(2, 1.0, frozenset({10}))
    assert weight_h(left, right, frozenset({(1, 10)})) == pytest.approx(0.125)


def test_weight_h_zero_dropped():
    # no left hub participates: make node 1 the only hub (higher degree),
    # but only node 3 links across
    a = LayerGraph.build("A", [1, 2, 3], [(1, 2), (1, 3)])
    d = LayerGraph.build("D", [10], [])
    mln = MLN().add_layer(a).add_layer(d)
    mln.add_interlayer(InterLayerEdges.build("A", "D", [(3, 10)]))
    ma = load_membership(a, [(1, 1), (2, 1), (3, 1)])
    md = load_membership(d, [(10, 1)])
    sa = summarize(a, ma, hub_quantile=1.0)
    sd = summarize(d, md)
    assert sa[CommunityId("A", 1)].hubs == {1}
    cbg = build_cbg("A", "D", crossing_pairs(mln, "A", "D", ma, md),
                    sorted(sa), sorted(sd), sa, sd, "h")
    assert cbg.edges == ()
    assert len(cbg.dropped) == 1 and cbg.dropped[0].weight == 0.0


def test_meta_edge_count_bounds():
    links = [(1, 10), (1, 11), (2, 10), (2, 11)]
    mln, ma, md, sa, sd = two_layer_mln(links, [(1,), (2,)], [(10,), (11,)])
    cbg = build(mln, ma, md, sa, sd)
    assert len(cbg.edges) <= len(sa) * len(sd)
    assert len(cbg.edges) <= len(links)


def test_tsv_export():
    mln, ma, md, sa, sd = two_layer_mln([(1, 10)], [(1,)], [(10,)])
    cbg = build(mln, ma, md, sa, sd)
    assert cbg_to_tsv(cbg) == "1\t1\t1\t1.0\n"


def test_meta_edge_is_immutable():
    e = MetaEdge(CommunityId("A", 1), CommunityId("D", 1), frozenset({(1, 10)}), 1.0)
    with pytest.raises(AttributeError):
        e.weight = 2.0
