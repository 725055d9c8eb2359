"""Community bipartite graph construction and meta-edge weight metrics.

Communities of two layers become meta nodes; a meta edge exists whenever at
least one inter-layer link crosses the community pair, and carries the full
expanded set of crossing links. Three weight metrics are provided:

* ``e`` - crossing-link count, normalized by the per-graph maximum;
* ``d`` - density(left) * edge fraction * density(right);
* ``h`` - hub participation ratio on each side times the edge fraction.

Meta edges whose weight is exactly zero are dropped from the graph and kept
in ``dropped`` for diagnostics. Under ``h`` that happens when no hub
participates on some side; under ``d`` when a community of two or more
nodes has no internal edges, which loaded memberships allow.
"""
from __future__ import annotations

from typing import Dict, Iterable, Mapping, NamedTuple, Tuple

from .community import CommunityId, CommunitySummary, Membership, check_membership
from .errors import EmptyCbg, InvariantViolation, UnknownCommunity
from .model import MLN

METRICS = ("e", "d", "h")


class MetaEdge(NamedTuple):
    """One community pair's crossing links and weight; a cheap named tuple."""

    left: CommunityId
    right: CommunityId
    pairs: frozenset  # crossing inter-layer links (left node, right node)
    weight: float


class CommunityBipartiteGraph(NamedTuple):
    left_nodes: frozenset  # CommunityIds offered on the left
    right_nodes: frozenset
    edges: Tuple[MetaEdge, ...]
    dropped: Tuple[MetaEdge, ...] = ()


def weight_e(raw_pairs: int, cbg_max: int) -> float:
    """Crossing-link count normalized by the largest count in this graph."""
    if cbg_max <= 0:
        raise EmptyCbg("no meta edges to normalize against")
    return raw_pairs / cbg_max


def weight_d(left: CommunitySummary, right: CommunitySummary, n_pairs: int) -> float:
    fraction = n_pairs / (left.node_count * right.node_count)
    return left.density * fraction * right.density


def weight_h(left: CommunitySummary, right: CommunitySummary,
             pairs: frozenset) -> float:
    """Share of each side's hubs with a link across this pair, times the
    pair fraction."""
    h_lr = left.hubs & {a for a, _ in pairs}
    h_rl = right.hubs & {b for _, b in pairs}
    fraction = len(pairs) / (left.node_count * right.node_count)
    return (len(h_lr) / len(left.hubs)) * fraction * (len(h_rl) / len(right.hubs))


Buckets = Mapping[Tuple[CommunityId, CommunityId], frozenset]


def crossing_pairs(mln: MLN, left: str, right: str,
                   membership_left: Membership,
                   membership_right: Membership) -> Buckets:
    """Inter-layer links oriented (left node, right node), keyed in order by
    the (left community, right community) pair they cross, with one id per
    community. A composition step scans the links only here and shares them."""
    stored = mln.stored_interlayer(left, right)
    check_membership(mln.layer(left), membership_left)
    check_membership(mln.layer(right), membership_right)
    of_left, of_right = membership_left.assignment, membership_right.assignment
    buckets: Dict[Tuple[int, int], list] = {}
    links = (stored.links if stored.from_layer == left
             else ((b, a) for a, b in stored.links))  # swap, no reversed copy
    for link in links:  # the stored tuples themselves when not swapped
        buckets.setdefault((of_left[link[0]], of_right[link[1]]), []).append(link)
    lids = {c: CommunityId(membership_left.layer, c) for c in set(of_left.values())}
    rids = {c: CommunityId(membership_right.layer, c) for c in set(of_right.values())}
    return {(lids[cl], rids[cr]): frozenset(buckets[(cl, cr)])
            for cl, cr in sorted(buckets)}


def build_cbg(left: str,
              right: str,
              buckets: Buckets,
              u_left: Iterable[CommunityId],
              u_right: Iterable[CommunityId],
              summaries_left: Mapping[CommunityId, CommunitySummary],
              summaries_right: Mapping[CommunityId, CommunitySummary],
              metric: str) -> CommunityBipartiteGraph:
    """Keep the crossing-pair buckets between the offered community sets and
    weight them with the chosen metric."""
    if metric not in METRICS:
        raise InvariantViolation(f"metric must be one of {METRICS}, got {metric!r}")
    u_left = frozenset(u_left)
    u_right = frozenset(u_right)
    for cid, summaries, layer in ((u_left, summaries_left, left),
                                  (u_right, summaries_right, right)):
        for c in cid:
            if c.layer != layer or c not in summaries:
                raise UnknownCommunity(f"{c} is not a community of layer {layer}")
            s = summaries[c]  # d and h divide by the node count, h by the hub count
            if metric != "e" and (s.node_count < 1 or (metric == "h" and not s.hubs)):
                what = "nodes" if s.node_count < 1 else "hubs"
                raise InvariantViolation(f"{c} has no {what}, which metric {metric} divides by")

    # linear on crossing_pairs' ordered buckets; other callers may pass any order
    kept = sorted(key for key in buckets if key[0] in u_left and key[1] in u_right)
    edges, dropped = [], []
    max_pairs = max((len(buckets[key]) for key in kept), default=0)
    for cl, cr in kept:
        pairs = buckets[(cl, cr)]
        if metric == "e":
            w = weight_e(len(pairs), max_pairs)
        elif metric == "d":
            w = weight_d(summaries_left[cl], summaries_right[cr], len(pairs))
        else:
            w = weight_h(summaries_left[cl], summaries_right[cr], pairs)
        edge = MetaEdge(cl, cr, pairs, w)
        if w > 0.0:
            edges.append(edge)
        else:
            dropped.append(edge)
    return CommunityBipartiteGraph(u_left, u_right, tuple(edges), tuple(dropped))


def cbg_to_tsv(cbg: CommunityBipartiteGraph) -> str:
    """Debug export: left community, right community, pair count, weight."""
    lines = [f"{e.left.index}\t{e.right.index}\t{len(e.pairs)}\t{e.weight!r}"
             for e in cbg.edges]
    return "\n".join(lines) + ("\n" if lines else "")
