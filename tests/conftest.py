"""Shared fixtures: a hand-built 3-layer network whose per-step matchings
are known exactly (verified by the brute-force oracle in the tests)."""
from __future__ import annotations

import os

import pytest

# The scipy and networkx oracles import numpy, whose OpenBLAS pool would be
# threads of this process: forked detection counts them and would not fork.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hemln import (
    MLN,
    InterLayerEdges,
    LayerGraph,
    load_membership,
    summarize,
)


def triangle(nodes):
    a, b, c = nodes
    return [(a, b), (b, c), (a, c)]


@pytest.fixture
def three_layer_mln():
    """G1 has 3 triangle communities, G2 has 5, G3 has 2. The inter-layer
    links are chosen so the (G1,G2) match pairs communities (1,3), (2,1),
    (3,5), the (G2,G3) match pairs only (1,2), and the cyclic (G3,G1)
    closure pairs only (2,2)."""
    g1_groups = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    g2_groups = [(10, 11, 12), (13, 14, 15), (16, 17, 18),
                 (19, 20, 21), (22, 23, 24)]
    g3_groups = [(30, 31, 32), (33, 34, 35)]

    def layer(lid, groups):
        nodes = [n for g in groups for n in g]
        edges = [e for g in groups for e in triangle(g)]
        return LayerGraph.build(lid, nodes, edges)

    mln = MLN()
    mln.add_layer(layer("G1", g1_groups))
    mln.add_layer(layer("G2", g2_groups))
    mln.add_layer(layer("G3", g3_groups))
    mln.add_interlayer(InterLayerEdges.build("G1", "G2", [
        (0, 16), (1, 17),      # c1^1 - c2^3 (2 links)
        (3, 10), (4, 11),      # c1^2 - c2^1 (2 links)
        (6, 22),               # c1^3 - c2^5 (1 link)
    ]))
    mln.add_interlayer(InterLayerEdges.build("G2", "G3", [
        (10, 33), (11, 34),    # c2^1 - c3^2 only
    ]))
    mln.add_interlayer(InterLayerEdges.build("G3", "G1", [
        (33, 3),               # c3^2 - c1^2 only (cycle closure)
    ]))
    mln.freeze()

    memberships = {}
    summaries = {}
    for lid, groups in (("G1", g1_groups), ("G2", g2_groups), ("G3", g3_groups)):
        rows = [(n, i + 1) for i, g in enumerate(groups) for n in g]
        memberships[lid] = load_membership(mln.layer(lid), rows)
        summaries[lid] = summarize(mln.layer(lid), memberships[lid])
    return mln, memberships, summaries
