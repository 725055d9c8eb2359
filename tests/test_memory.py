"""Memory guards for a loaded layer: a layer is held once, as rows of
neighbour positions, a load holds one block of lines at a time, detection on
it builds no per-edge dicts, and a composition step's buckets share the
stored link tuples.

The layer is shaped like the movie layer of an IMDb-style network: a few
large rating-class cliques plus sparse noise, ~80k edges, written in
shuffled order with half the edges reversed. Node ids start at 2000, above
the small ints CPython shares, so object identity is meaningful.
"""
import gc
import random
import tracemalloc
from itertools import combinations

import pytest

from hemln import (MLN, InterLayerEdges, LayerGraph, Membership, crossing_pairs,
                   detect_communities, summarize)
from hemln.fileio import load_layer

MIB = 1 << 20


@pytest.fixture(scope="module")
def clique_layer(tmp_path_factory):
    """(path, node -> clique index) of a seeded ~80k-edge layer file."""
    rng = random.Random(5)
    nodes = list(range(2000, 2750))
    rng.shuffle(nodes)
    cliques = [nodes[i:i + 180] for i in range(0, 750, 180)]  # 4 of 180, 1 of 30
    edges = {e for group in cliques for e in combinations(sorted(group), 2)}
    while len(edges) < 80_000:
        u, v = sorted(rng.sample(nodes, 2))
        edges.add((u, v))
    rows = [f"edge\t{v}\t{u}" if rng.random() < 0.5 else f"edge\t{u}\t{v}"
            for u, v in sorted(edges)]
    rng.shuffle(rows)
    path = tmp_path_factory.mktemp("memory") / "layer_M.tsv"
    path.write_text("\n".join(["layer\tM", *map(str, sorted(nodes)), *rows]) + "\n")
    clique_of = {n: i for i, group in enumerate(cliques, start=1) for n in group}
    return path, clique_of


def _traced(fn):
    """(result, traced bytes held after fn, traced peak during fn)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def test_edge_endpoints_are_the_node_set_ints(clique_layer):
    path, _ = clique_layer
    g = load_layer(path)
    assert len(g.edges) >= 80_000
    own = {n: n for n in g.nodes}  # equal key -> the object g.nodes holds
    assert all(u is own[u] and v is own[v] for u, v in g.edges)


def test_load_keeps_at_most_2_mib(clique_layer):
    """The layer is kept as rows of positions, two per edge: 1.32 MiB here.
    An edge set kept 8.33 MiB."""
    path, _ = clique_layer
    g, kept, _ = _traced(lambda: load_layer(path))
    assert len(g.edges) >= 80_000
    assert kept <= 2 * MIB, kept / MIB


def test_load_peak_at_most_9_mib(clique_layer):
    """Lines are split one block at a time, next to the 1.15 MiB of decoded
    text and the row sets: 7.5 MiB here on Python 3.10-3.13. A list of every
    line read 10.9-11.6 MiB, and an edge dict beside its frozenset 10.9 MiB."""
    path, _ = clique_layer
    g, _, peak = _traced(lambda: load_layer(path))
    assert len(g.edges) >= 80_000
    assert peak <= 9 * MIB, peak / MIB


def test_summarize_builds_no_adjacency(clique_layer):
    path, clique_of = clique_layer
    g = load_layer(path)
    m = Membership("M", clique_of)
    summaries, grown, _ = _traced(lambda: summarize(g, m))
    assert len(summaries) == 5
    assert not hasattr(g, "_adjacency")
    assert grown < 1 * MIB, grown / MIB


def test_detection_peak_below_3_mib(clique_layer):
    """Louvain holds each edge as two ints in neighbour lists, not as
    dict-of-dicts adjacency (6.8 MiB on this layer)."""
    path, _ = clique_layer
    g = load_layer(path)
    m, _, peak = _traced(lambda: detect_communities(g, seed=0))
    assert len(set(m.assignment.values())) >= 2
    assert peak <= 3 * MIB, peak / MIB


@pytest.fixture(scope="module")
def dense_pair():
    """A layer pair shaped like a ``match-dense`` step: 250 groups of 10 nodes
    a side, each left group linked to 20 right groups by 1-3 links (~9.9k
    links, 5000 buckets), with the groups as memberships."""
    rng = random.Random(7)
    size, groups = 10, 250
    left, right = range(2000, 2000 + size * groups), range(5000, 5000 + size * groups)
    links = {(left[g * size + rng.randrange(size)], right[h * size + rng.randrange(size)])
             for g in range(groups) for h in rng.sample(range(groups), 20)
             for _ in range(rng.randint(1, 3))}
    mln = MLN()
    for lid, nodes in (("L", left), ("R", right)):
        mln.add_layer(LayerGraph.build(lid, nodes, ()))
    mln.add_interlayer(InterLayerEdges.build("L", "R", links))
    ml = Membership("L", {n: (n - left[0]) // size + 1 for n in left})
    mr = Membership("R", {n: (n - right[0]) // size + 1 for n in right})
    return mln.freeze(), ml, mr


def test_crossing_pairs_buckets_share_the_stored_links(dense_pair):
    """In the stored orientation every bucket holds the stored tuples
    themselves. Re-made tuples read a 3.49 MiB peak on this step; shared
    ones read 2.35 MiB."""
    mln, ml, mr = dense_pair
    buckets, _, peak = _traced(lambda: crossing_pairs(mln, "L", "R", ml, mr))
    stored = mln.stored_interlayer("L", "R").links
    own = {link: link for link in stored}
    assert sum(map(len, buckets.values())) == len(stored) >= 9_000
    assert peak <= 3 * MIB, peak / MIB
    assert all(p is own[p] for bucket in buckets.values() for p in bucket)
