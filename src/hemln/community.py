"""Per-layer community detection and community statistics.

Detection is a greedy multi-level modularity maximization (Louvain style)
made fully deterministic: node visit order is the ascending node list
shuffled by the seed, and among equal-gain moves the target community with
the smallest current index wins. Precomputed memberships can be loaded
instead, keeping the per-layer analysis pluggable.

Detection runs on the layer's rows (``LayerGraph.nbrs``). A super edge of
weight w lists its far end w times, edges inside a super node are dropped,
and a super node's degree ``k`` is its members' sum, so a level holds at
most 2|E| ints. A visit counts neighbour communities in C with
``_count_elements`` (the loop behind ``Counter.update``). Counts are ints,
``tot`` and ``k`` integer-valued floats, and the gain ``l - tot[c]*k/2m`` is
that of weighted adjacency, so every gain and tie is the same bit for bit.

A sweep skips a node that stayed put until a move changes the ``tot`` of a
community it weighed (its own or a neighbour's). The skip is exact: ``tot[c]
-= k; tot[c] += k`` restores an integer-valued ``tot[c]`` bit for bit, so a
skipped visit would repeat its last decision, and sweeps, moves and
memberships are those of visiting every node.
"""
from __future__ import annotations

import math
import random
from collections import _count_elements
from itertools import chain, compress
from operator import countOf
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import (
    DuplicateNode,
    EmptyGraph,
    InvalidQuantile,
    InvariantViolation,
    MissingNode,
    UnknownNode,
)
from .model import LayerGraph, NodeId


class CommunityId(NamedTuple):
    """Identifies the index-th community of a layer, index >= 1. No id with
    index 0 is ever built: a 0 in a result-tuple slot means "no community".
    A named tuple, so hashing, equality and (layer, index) order run in C."""

    layer: str
    index: int

    def __str__(self) -> str:
        return f"c_{self.layer}^{self.index}"


class Membership(NamedTuple):
    """Disjoint, total node -> community-index assignment for one layer."""

    layer: str
    assignment: Dict[NodeId, int]

    def communities(self) -> Dict[int, frozenset]:
        groups: Dict[int, set] = {}
        for n, c in self.assignment.items():
            groups.setdefault(c, set()).add(n)
        return {c: frozenset(s) for c, s in groups.items()}


class CommunitySummary(NamedTuple):
    node_count: int
    density: float
    hubs: frozenset


# ---------------------------------------------------------------------------
# modularity maximization


def _one_level(nbrs: Sequence[Sequence[int]], k: List[float], two_m: float,
               rng: random.Random) -> Tuple[List[int], bool]:
    """One local-move phase. Returns (node -> community label, moved_any)."""
    n = len(nbrs)
    order = list(range(n))
    rng.shuffle(order)
    comm = list(range(n))
    tot = list(k)
    settled = bytearray(n)  # stayed put, nothing it weighed has changed
    watchers: List[List[int]] = [[] for _ in range(n)]  # community -> weighers

    moved_any = False
    improved = True
    while improved:
        improved = False
        for u in order:
            if settled[u]:
                continue
            cu = comm[u]
            ku = k[u]
            # weight of u's edges into each neighboring community, u removed
            tot[cu] -= ku
            links = {cu: 0}
            _count_elements(links, map(comm.__getitem__, nbrs[u]))
            # highest gain, then smallest index: the same in any visit order
            best_c, best_gain = cu, links[cu] - tot[cu] * ku / two_m
            for c, l in links.items():
                gain = l - tot[c] * ku / two_m
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c, best_gain = c, gain
            comm[u] = best_c
            tot[best_c] += ku
            if best_c != cu:
                improved = moved_any = True
                for v in chain(watchers[cu], watchers[best_c]):
                    settled[v] = 0
                watchers[cu], watchers[best_c] = [], []
            else:
                settled[u] = 1
                for c in links:
                    watchers[c].append(u)
    return comm, moved_any


def _aggregate(nbrs: Sequence[Sequence[int]], k: List[float], comm: List[int]
               ) -> Tuple[List[List[int]], List[float], List[int]]:
    """Collapse each community into a super node; returns its neighbour
    lists and degrees plus each old node's super node."""
    labels = sorted(set(comm))
    relabel = dict(zip(labels, range(len(labels))))
    sup = [relabel[c] for c in comm]
    new_nbrs: List[List[int]] = [[] for _ in labels]
    new_k = [0.0] * len(labels)
    for v, s in enumerate(sup):
        new_k[s] += k[v]
        new_nbrs[s].extend(filter(s.__ne__, map(sup.__getitem__, nbrs[v])))
    return new_nbrs, new_k, sup


def detect_communities(g: LayerGraph, seed: int = 0) -> Membership:
    """Greedy multi-level modularity maximization, deterministic per seed.

    Community indices are renumbered 1..K by descending size, ties broken by
    the smallest member node id.
    """
    if not g.nodes:
        raise EmptyGraph(f"layer {g.id} has no nodes")
    nodes = sorted(g.nodes)
    nbrs = g.nbrs
    k = [float(len(ns)) for ns in nbrs]
    two_m = sum(k)  # aggregation keeps it; with no edge every node stays alone
    rng = random.Random(seed)
    node2cur = list(range(len(nodes)))  # node index -> current super node
    while two_m:
        comm, moved = _one_level(nbrs, k, two_m, rng)
        if not moved:
            break
        nbrs, k, sup = _aggregate(nbrs, k, comm)
        node2cur = list(map(sup.__getitem__, node2cur))
        if len(nbrs) <= 1:
            break
    return _renumber(g.id, dict(zip(nodes, node2cur)))


def _renumber(layer: str, raw: Dict[NodeId, int]) -> Membership:
    ordered = sorted(Membership(layer, raw).communities().values(),
                     key=lambda ns: (-len(ns), min(ns)))
    return Membership(layer, {n: idx for idx, members in enumerate(ordered, start=1)
                              for n in members})


# ---------------------------------------------------------------------------
# loading and statistics


def load_membership(g: LayerGraph, rows: Iterable[Tuple[NodeId, int]]) -> Membership:
    """Build a membership from (node, raw community index) rows; indices are
    normalized to 1..K in order of first appearance, not by detection's rule,
    so a file written from a detected membership can load back renumbered."""
    seen: Dict[NodeId, int] = {}  # node -> raw index, in first appearance
    for node, raw_idx in rows:
        if seen.setdefault(node, raw_idx) != raw_idx:
            raise DuplicateNode(
                f"node {node} listed with indices {seen[node]} and {raw_idx}")
    check_membership(g, Membership(g.id, seen))
    index = dict(zip(dict.fromkeys(seen.values()), range(1, len(seen) + 1)))
    return Membership(g.id, {n: index[raw] for n, raw in seen.items()})


def check_hub_quantile(hub_quantile: float) -> None:
    if not (0.0 < hub_quantile <= 1.0):  # so not NaN
        raise InvalidQuantile(f"hub_quantile must be in (0,1], got {hub_quantile}")


def check_membership(g: LayerGraph, m: Membership) -> None:
    """A membership of this layer assigns every node of it and no other node."""
    if m.layer != g.id:
        raise InvariantViolation(f"membership of layer {m.layer} given for layer {g.id}")
    if m.assignment.keys() != g.nodes:
        extra = m.assignment.keys() - g.nodes
        if extra:
            raise UnknownNode(f"node {min(extra)} not in layer {g.id}")
        raise MissingNode(f"node {min(g.nodes - m.assignment.keys())} of layer "
                          f"{g.id} has no community")


def summarize(g: LayerGraph, m: Membership,
              hub_quantile: float = 0.8) -> Dict[CommunityId, CommunitySummary]:
    """Per-community size, density, and hub set.

    Hubs are members whose degree (the length of their row in the layer) is at
    least the nearest-rank hub_quantile of their community's degrees, so every
    community keeps its maximum-degree node. Internal edges are read off rows.
    """
    check_hub_quantile(hub_quantile)
    check_membership(g, m)
    order = sorted(g.nodes)
    row = dict(zip(order, g.nbrs))  # node -> its neighbour positions
    comm = list(map(m.assignment.__getitem__, order))  # position -> community
    out: Dict[CommunityId, CommunitySummary] = {}
    for c, members in m.communities().items():
        n = len(members)
        rows = list(map(row.__getitem__, members))
        ends = countOf(map(comm.__getitem__, chain.from_iterable(rows)), c)  # 2 per edge
        density = 1.0 if n < 2 else ends / (n * (n - 1))
        degrees = list(map(len, rows))
        rank = max(1, math.ceil(hub_quantile * n - 1e-9))
        cutoff = sorted(degrees)[rank - 1]
        hubs = frozenset(compress(members, map(cutoff.__le__, degrees)))
        out[CommunityId(m.layer, c)] = CommunitySummary(n, density, hubs)
    return out
