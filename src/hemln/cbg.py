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

A composition step runs on community indices: ``crossing_pairs`` buckets the
links once by (left index, right index), and ``build_cbg`` weighs the kept
buckets straight into the matcher's ``Table``. The ``CommunityId`` keys and
frozensets of the buckets, and the ``MetaEdge``s of ``edges`` and
``dropped``, are views made only when read.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .community import CommunityId, CommunitySummary, Membership, check_membership
from .errors import EmptyCbg, InvariantViolation, UnknownCommunity
from .model import MLN

METRICS = ("e", "d", "h")
WEIGHT_SCALE = 10 ** 9


class MetaEdge(NamedTuple):
    """One community pair's crossing links and weight; a cheap named tuple."""

    left: CommunityId
    right: CommunityId
    pairs: frozenset  # crossing inter-layer links (left node, right node)
    weight: float


class Table(NamedTuple):
    """A CBG as the matcher reads it: lefts and rights sorted, and per left
    the weights ``{right position: w}`` of its buckets, zeros too, beside the
    kernel's row of integers ``max(1, round(w * 1e9))`` for each w > 0."""

    lefts: List[CommunityId]
    rights: List[CommunityId]
    rows: List[Dict[int, int]]
    weights: List[Dict[int, float]]

    @classmethod
    def of(cls, lefts, rights, weights: List[Dict[int, float]]) -> "Table":
        return cls(lefts, rights, [{r: max(1, round(w * WEIGHT_SCALE)) for r, w in row.items()
                                    if w > 0.0} for row in weights], weights)


class CommunityBipartiteGraph:
    """Meta nodes offered on each side, the meta edges between them sorted by
    (left, right), and ``dropped``, those that weighed 0. ``build_cbg`` gives
    the matcher's ``table`` and the step's buckets, and ``edges`` and
    ``dropped`` are made from them when first read. A graph built from
    ``MetaEdge``s holds them, and ``table`` is made from them when read."""

    def __init__(self, left_nodes: frozenset, right_nodes: frozenset,
                 edges: Iterable[MetaEdge] = (), dropped: Iterable[MetaEdge] = (), *,
                 table: Optional[Table] = None, buckets: Optional[Buckets] = None):
        self.left_nodes, self.right_nodes, self._buckets = left_nodes, right_nodes, buckets
        if table is None:
            self.edges, self.dropped = tuple(edges), tuple(dropped)
        else:
            self.table = table

    def _meta_edges(self, kept: bool) -> Tuple[MetaEdge, ...]:
        lefts, rights, _, weights = self.table
        return tuple(MetaEdge(lefts[l], rights[r], self._buckets[lefts[l], rights[r]], w)
                     for l, row in enumerate(weights) for r, w in sorted(row.items())
                     if (w > 0.0) == kept)

    edges = cached_property(lambda self: self._meta_edges(True))
    dropped = cached_property(lambda self: self._meta_edges(False))

    @cached_property
    def table(self) -> Table:
        """The table of meta edges checked to join an offered left to an
        offered right once, finite w > 0."""
        lefts, rights = sorted(self.left_nodes), sorted(self.right_nodes)
        lpos = {c: i for i, c in enumerate(lefts)}
        rpos = {c: i for i, c in enumerate(rights)}
        weights: List[Dict[int, float]] = [{} for _ in lefts]
        for e in self.edges:
            l, r = lpos.get(e.left), rpos.get(e.right)
            if l is None or r is None:
                raise InvariantViolation(f"meta edge {e.left}-{e.right} leaves the CBG's nodes")
            if r in weights[l]:
                raise InvariantViolation(f"meta edge {e.left}-{e.right} given twice")
            if not 0.0 < e.weight < float("inf"):  # so not NaN
                raise InvariantViolation(
                    f"meta edge {e.left}-{e.right} weighs {e.weight!r}, not a finite w > 0")
            weights[l][r] = e.weight
        return Table.of(lefts, rights, weights)

    def _replace(self, **fields) -> "CommunityBipartiteGraph":
        return CommunityBipartiteGraph(**{"left_nodes": self.left_nodes,
                                          "right_nodes": self.right_nodes, "edges": self.edges,
                                          "dropped": self.dropped, **fields})


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


class Buckets(Mapping):
    """A layer pair's links by the community pair they cross: ``by_index``
    maps (left index, right index) to the links, oriented (left node, right
    node). As a mapping it is keyed in order by ``CommunityId`` pairs, one id
    per community, with frozensets as values, all made when first read."""

    def __init__(self, left: str, right: str, by_index: Dict[Tuple[int, int], list]):
        self.left, self.right, self.by_index = left, right, by_index

    @classmethod
    def of(cls, left: str, right: str, buckets: Mapping) -> "Buckets":
        """``buckets`` if they are the pair's, else those of a mapping keyed by
        ``CommunityId`` pairs, where only the pair's communities count."""
        if isinstance(buckets, Buckets) and (buckets.left, buckets.right) == (left, right):
            return buckets
        return cls(left, right, {(cl.index, cr.index): pairs for (cl, cr), pairs in buckets.items()
                                 if (cl.layer, cr.layer) == (left, right)})

    def __getitem__(self, key: Tuple[CommunityId, CommunityId]) -> frozenset:
        return self._by_id[key]

    def __iter__(self):
        return iter(self._by_id)

    def __len__(self) -> int:
        return len(self.by_index)

    @cached_property
    def _by_id(self) -> Dict[Tuple[CommunityId, CommunityId], frozenset]:
        ids = {side: {c: CommunityId(layer, c) for c in {key[side] for key in self.by_index}}
               for side, layer in enumerate((self.left, self.right))}
        return {(ids[0][cl], ids[1][cr]): frozenset(self.by_index[(cl, cr)])
                for cl, cr in sorted(self.by_index)}


def crossing_pairs(mln: MLN, left: str, right: str,
                   membership_left: Membership,
                   membership_right: Membership) -> Buckets:
    """Inter-layer links oriented (left node, right node), bucketed by the
    (left, right) community indices they cross. A composition step scans the
    links only here and shares them: the buckets hold the stored tuples."""
    stored = mln.stored_interlayer(left, right)
    check_membership(mln.layer(left), membership_left)
    check_membership(mln.layer(right), membership_right)
    of_left, of_right = membership_left.assignment, membership_right.assignment
    by_index: Dict[Tuple[int, int], list] = {}
    links = (stored.links if stored.from_layer == left
             else ((b, a) for a, b in stored.links))  # swap, no reversed copy
    for link in links:  # the stored tuples themselves when not swapped
        by_index.setdefault((of_left[link[0]], of_right[link[1]]), []).append(link)
    return Buckets(left, right, by_index)


def build_cbg(left: str,
              right: str,
              buckets: Mapping,
              u_left: Iterable[CommunityId],
              u_right: Iterable[CommunityId],
              summaries_left: Mapping[CommunityId, CommunitySummary],
              summaries_right: Mapping[CommunityId, CommunitySummary],
              metric: str) -> CommunityBipartiteGraph:
    """Weigh the buckets between the offered community sets with the chosen
    metric, straight into the matcher's table. ``buckets`` is what
    ``crossing_pairs`` returns, or a mapping keyed by ``CommunityId`` pairs."""
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

    buckets = Buckets.of(left, right, buckets)
    lefts, rights = sorted(u_left), sorted(u_right)
    lpos = {c.index: i for i, c in enumerate(lefts)}
    rpos = {c.index: i for i, c in enumerate(rights)}
    kept = [(lpos[cl], rpos[cr], pairs) for (cl, cr), pairs in buckets.by_index.items()
            if cl in lpos and cr in rpos]
    sl = [summaries_left[c] for c in lefts]
    sr = [summaries_right[c] for c in rights]
    top = max((len(pairs) for _, _, pairs in kept), default=0)
    weights: List[Dict[int, float]] = [{} for _ in lefts]
    for l, r, pairs in kept:  # a zero weight is dropped from the kernel's rows
        weights[l][r] = (weight_e(len(pairs), top) if metric == "e" else
                         weight_d(sl[l], sr[r], len(pairs)) if metric == "d" else
                         weight_h(sl[l], sr[r], pairs))
    return CommunityBipartiteGraph(u_left, u_right, table=Table.of(lefts, rights, weights),
                                   buckets=buckets)


def cbg_to_tsv(cbg: CommunityBipartiteGraph) -> str:
    """Debug export: left community, right community, pair count, weight."""
    lines = [f"{e.left.index}\t{e.right.index}\t{len(e.pairs)}\t{e.weight!r}"
             for e in cbg.edges]
    return "\n".join(lines) + ("\n" if lines else "")
