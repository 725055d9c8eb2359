"""Shared fixtures: a hand-built 3-layer network whose per-step matchings
are known exactly (verified by the brute-force oracle in the tests), and a
saved network of three planted layers of unequal size."""
from __future__ import annotations

import random

import pytest

from hemln import (
    MLN,
    InterLayerEdges,
    LayerGraph,
    load_membership,
    summarize,
)
from hemln.fileio import save_mln


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


def _canonical(a, b):
    return (a, b) if a < b else (b, a)


def _planted_layer(lid, first, groups, size, rng):
    """groups of size nodes, each a ring with size random chords, plus a few
    edges between groups."""
    nodes = list(range(first, first + groups * size))
    edges = set()
    for g in range(groups):
        members = nodes[g * size:(g + 1) * size]
        edges.update(map(_canonical, members, members[1:] + members[:1]))
        edges.update(_canonical(*rng.sample(members, 2)) for _ in range(size))
    edges.update(_canonical(*rng.sample(nodes, 2)) for _ in range(groups))
    return LayerGraph.build(lid, nodes, sorted(edges))


def _links(rng, left, right, count):
    return sorted({(rng.choice(sorted(left.nodes)), rng.choice(sorted(right.nodes)))
                   for _ in range(count)})


@pytest.fixture
def planted_mln_dir(tmp_path):
    """Three layers of unequal size (L1 > L0 > L2), L0-L1 and L1-L2 linked."""
    rng = random.Random(14)
    l0 = _planted_layer("L0", 0, 4, 12, rng)
    l1 = _planted_layer("L1", 1000, 8, 12, rng)
    l2 = _planted_layer("L2", 2000, 2, 12, rng)
    mln = MLN()
    for g in (l0, l1, l2):
        mln.add_layer(g)
    mln.add_interlayer(InterLayerEdges.build("L0", "L1", _links(rng, l0, l1, 40)))
    mln.add_interlayer(InterLayerEdges.build("L1", "L2", _links(rng, l1, l2, 30)))
    out = tmp_path / "planted-mln"
    save_mln(mln.freeze(), out)
    return out
