"""Memory guards for a loaded layer: a layer is held once, as rows of
neighbour positions filled as lists, a load holds one block of lines at a
time, and detection on it builds no per-edge dicts. An inter-layer load
parses each node token to one int and keeps its links as one sorted tuple,
a composition step's buckets share the stored link tuples, a composition
holds one step at a time, and a matching holds its CBG's weights in one
table.

The layer (``clique_layer`` in conftest.py) is shaped like the movie layer
of an IMDb-style network: a few large rating-class cliques plus sparse
noise, ~80k edges, written in shuffled order with half the edges reversed.
Node ids start at 2000, above the small ints CPython shares, so object
identity is meaningful.
"""
import gc
import tracemalloc

import pytest

from hemln import (Membership, crossing_pairs, detect_communities, detect_k_community,
                   max_flow_match, parse_spec, summarize)
from hemln.cbg import build_cbg
from hemln.fileio import load_interlayer, load_layer, save_interlayer

MIB = 1 << 20


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
    text and the list rows: 2.84 MiB here on Python 3.11. A list of every
    line read 10.9-11.6 MiB, an edge dict beside its frozenset 10.9 MiB, and
    row sets 7.5 MiB."""
    path, _ = clique_layer
    g, _, peak = _traced(lambda: load_layer(path))
    assert len(g.edges) >= 80_000
    assert peak <= 9 * MIB, peak / MIB


def test_load_peak_at_most_3_2_mib(clique_layer):
    """Rows are filled as lists (1.34 MiB here), not as sets (5.93 MiB), each
    list is freed as its tuple is made, and a run's bulk split holds one
    16 Ki-character block: the peak is 2.84 MiB on Python 3.11 (2.88-2.93 MiB
    on 3.10-3.13 when every line went through the line loop), against 3.40 MiB
    with 64 Ki blocks and 7.49-7.55 MiB with row sets."""
    path, _ = clique_layer
    g, _, peak = _traced(lambda: load_layer(path))
    assert len(g.nbrs) == 750
    assert peak <= 3.2 * MIB, peak / MIB


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


def test_crossing_pairs_buckets_share_the_stored_links(dense_mln):
    """In the stored orientation every bucket holds the stored tuples
    themselves. Re-made tuples read a 3.49 MiB peak on this step, shared ones
    in a frozenset per bucket 2.35 MiB; lists by community index, with no
    frozenset until one is read, read 0.83 MiB on Python 3.10-3.13."""
    mln, members = dense_mln
    ml, mr = members["L"], members["R"]
    buckets, _, peak = _traced(lambda: crossing_pairs(mln, "L", "R", ml, mr))
    stored = mln.stored_interlayer("L", "R").links
    own = {link: link for link in stored}
    assert sum(map(len, buckets.values())) == len(stored) >= 9_000
    assert peak <= 3 * MIB, peak / MIB
    assert all(p is own[p] for bucket in buckets.values() for p in bucket)


def test_interlayer_load_holds_one_int_per_endpoint(dense_mln, tmp_path):
    """Each distinct token is parsed once, so all of a node's links share one
    int. Parsing each token of each link made two new ints per link."""
    mln, _ = dense_mln
    path = tmp_path / "inter_L_R.tsv"
    save_interlayer(mln.stored_interlayer("L", "R"), path)
    x = load_interlayer(path)
    ends = [n for link in x.links for n in link]
    assert x == mln.stored_interlayer("L", "R") and len(x.links) >= 9_000
    assert len(set(map(id, ends))) == len(set(ends)) < len(ends) // 2


def test_loaded_links_keep_at_most_95_bytes_each(dense_mln, tmp_path):
    """A loaded file's links are one sorted tuple of pairs over shared ints:
    78.1-78.4 B a link here on Python 3.10-3.13. A frozenset of the pairs
    kept 123.0-123.4 B, ~45 B of it a hash table that nothing probes."""
    mln, _ = dense_mln
    path = tmp_path / "inter_L_R.tsv"
    save_interlayer(mln.stored_interlayer("L", "R"), path)
    x, kept, _ = _traced(lambda: load_interlayer(path))
    assert len(x.links) >= 9_000
    assert kept <= 95 * len(x.links), kept / len(x.links)


def test_composition_holds_one_step_at_a_time(dense_mln):
    """Each step's 5000 buckets, its CBG and its matching are freed before the
    next step's ``crossing_pairs``: the three steps peak 2.05-2.06 MiB above
    what the result keeps on Python 3.10-3.13 (2.86-2.88 MiB with a frozenset
    and a MetaEdge per bucket), against 4.78-4.79 MiB when a step's buckets
    and CBG lived on while the next step built its own."""
    mln, members = dense_mln
    summaries = {lid: summarize(mln.layers[lid], m) for lid, m in members.items()}
    spec = parse_spec("L #(L,R):e R #(R,S):d S #(S,L):h L")
    result, kept, peak = _traced(
        lambda: detect_k_community(mln, members, summaries, spec))
    assert [d.mp_size for d in result.diagnostics] == [250, 250, 246]
    assert peak - kept <= 4 * MIB, (peak - kept) / MIB


@pytest.mark.parametrize("metric", ["e", "d", "h"])
def test_one_matching_holds_one_weight_table(dense_mln, metric):
    """The kernel reads the integer rows that ``build_cbg`` filled, so a
    matching makes no table of its own. On this step's 250 x 250 CBG one
    matching peaks at 131-138 KiB under e, 124-127 under d and 91-94 under h
    on Python 3.10-3.13; one integer table made from the meta edges read
    439-449, 423-444 and 294-306 KiB, and float rows plus a scaled copy of
    them 598-605, 582-601 and 421-431 KiB. Each bound is 0.8x the least of
    the last."""
    mln, members = dense_mln
    sl, sr = (summarize(mln.layers[lid], members[lid]) for lid in "LR")
    buckets = crossing_pairs(mln, "L", "R", members["L"], members["R"])
    cbg = build_cbg("L", "R", buckets, sorted(sl), sorted(sr), sl, sr, metric)
    del buckets
    mp, _, peak = _traced(lambda: max_flow_match(cbg))
    assert len(mp.pairs) == {"e": 250, "d": 250, "h": 246}[metric]
    assert peak <= {"e": 475, "d": 465, "h": 335}[metric] * 1024, peak / 1024
