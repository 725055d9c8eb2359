"""Per-layer community detection and community statistics.

Detection is a greedy multi-level modularity maximization (Louvain style)
made fully deterministic: node visit order is the ascending node list
shuffled by the seed, and among equal-gain moves the target community with
the smallest current index wins. Precomputed memberships can be loaded
instead, keeping the per-layer analysis pluggable.

A sweep skips a node whose decision cannot change. A node's decision reads
only its links into the communities it weighs (its own and its neighbors')
and those communities' total degrees ``tot``. So a node that stayed put is
settled until a move changes the ``tot`` of a community it weighed; a
neighbor's move is such a change, since it leaves and joins weighed
communities. The skip is exact: every weight is an integer-valued float,
so the ``tot[c] -= k; tot[c] += k`` of a visit without a move restores
``tot[c]`` bit for bit, and a skipped visit would have repeated its last
decision. Sweeps, moves and memberships are those of visiting every node.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from .errors import (
    DuplicateNode,
    EmptyGraph,
    InvalidQuantile,
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


@dataclass
class Membership:
    """Disjoint, total node -> community-index assignment for one layer."""

    layer: str
    assignment: Dict[NodeId, int]

    def communities(self) -> Dict[int, frozenset]:
        groups: Dict[int, set] = {}
        for n, c in self.assignment.items():
            groups.setdefault(c, set()).add(n)
        return {c: frozenset(s) for c, s in groups.items()}


@dataclass(frozen=True)
class CommunitySummary:
    node_count: int
    density: float
    hubs: frozenset


# ---------------------------------------------------------------------------
# modularity maximization


def _one_level(adj: Dict[int, Dict[int, float]], loops: Dict[int, float],
               two_m: float, rng: random.Random) -> Tuple[Dict[int, int], bool]:
    """One local-move phase. Returns (node -> community label, moved_any)."""
    order = sorted(adj)
    rng.shuffle(order)
    comm = {u: i for i, u in enumerate(sorted(adj))}
    k = {u: sum(adj[u].values()) + 2.0 * loops.get(u, 0.0) for u in adj}
    tot = {comm[u]: k[u] for u in adj}
    settled: Set[int] = set()  # stayed put, nothing it weighed has changed
    watchers: Dict[int, List[int]] = {}  # community -> nodes that weighed it

    moved_any = False
    improved = True
    while improved:
        improved = False
        for u in order:
            if u in settled:
                continue
            cu = comm[u]
            ku = k[u]
            # weight of u's edges into each neighboring community, u removed
            tot[cu] -= ku
            links: Dict[int, float] = {cu: 0.0}
            for v, w in adj[u].items():
                links[comm[v]] = links.get(comm[v], 0.0) + w
            # highest gain, then smallest index: the same in any visit order
            best_c, best_gain = cu, links[cu] - tot[cu] * ku / two_m
            for c in links:
                gain = links[c] - tot.get(c, 0.0) * ku / two_m
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c, best_gain = c, gain
            comm[u] = best_c
            tot[best_c] = tot.get(best_c, 0.0) + ku
            if best_c != cu:
                improved = moved_any = True
                for c in (cu, best_c):
                    settled.difference_update(watchers.pop(c, ()))
            else:
                settled.add(u)
                for c in links:
                    watchers.setdefault(c, []).append(u)
    return comm, moved_any


def _aggregate(adj: Dict[int, Dict[int, float]], loops: Dict[int, float],
               comm: Dict[int, int]) -> Tuple[Dict[int, Dict[int, float]],
                                              Dict[int, float], Dict[int, int]]:
    """Collapse each community into a super node; returns new (adj, loops)
    plus the relabeling old community label -> new node id."""
    labels = sorted(set(comm.values()))
    relabel = {c: i for i, c in enumerate(labels)}
    new_adj: Dict[int, Dict[int, float]] = {i: {} for i in range(len(labels))}
    new_loops: Dict[int, float] = {i: 0.0 for i in range(len(labels))}
    for u in adj:
        cu = relabel[comm[u]]
        new_loops[cu] += loops.get(u, 0.0)
        for v, w in adj[u].items():
            cv = relabel[comm[v]]
            if cu == cv:
                if u < v:
                    new_loops[cu] += w
            else:
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, new_loops, relabel


def detect_communities(g: LayerGraph, seed: int = 0) -> Membership:
    """Greedy multi-level modularity maximization, deterministic per seed.

    Community indices are renumbered 1..K by descending size, ties broken by
    the smallest member node id.
    """
    if not g.nodes:
        raise EmptyGraph(f"layer {g.id} has no nodes")
    if not g.edges:
        return _renumber(g.id, {n: i for i, n in enumerate(sorted(g.nodes))})

    rng = random.Random(seed)
    adj: Dict[int, Dict[int, float]] = {n: {} for n in g.nodes}
    for u, v in g.edges:
        adj[u][v] = 1.0
        adj[v][u] = 1.0
    loops: Dict[int, float] = {}
    two_m = 2.0 * len(g.edges)

    node2cur = {n: n for n in g.nodes}  # original node -> current super node
    while True:
        comm, moved = _one_level(adj, loops, two_m, rng)
        if not moved:
            break
        adj, loops, relabel = _aggregate(adj, loops, comm)
        node2cur = {n: relabel[comm[cur]] for n, cur in node2cur.items()}
        if len(adj) <= 1:
            break
    return _renumber(g.id, node2cur)


def _renumber(layer: str, raw: Dict[NodeId, int]) -> Membership:
    groups: Dict[int, List[NodeId]] = {}
    for n, c in raw.items():
        groups.setdefault(c, []).append(n)
    ordered = sorted(groups.values(), key=lambda ns: (-len(ns), min(ns)))
    assignment: Dict[NodeId, int] = {}
    for idx, members in enumerate(ordered, start=1):
        for n in members:
            assignment[n] = idx
    return Membership(layer, assignment)


# ---------------------------------------------------------------------------
# loading and statistics


def load_membership(g: LayerGraph, rows: Iterable[Tuple[NodeId, int]]) -> Membership:
    """Build a membership from (node, raw community index) rows; indices are
    normalized to 1..K in order of first appearance, not by detection's rule,
    so a file written from a detected membership can load back renumbered."""
    seen: Dict[NodeId, int] = {}
    normalize: Dict[int, int] = {}
    assignment: Dict[NodeId, int] = {}
    for node, raw_idx in rows:
        if node not in g.nodes:
            raise UnknownNode(f"node {node} not in layer {g.id}")
        if node in seen:
            if seen[node] != raw_idx:
                raise DuplicateNode(
                    f"node {node} listed with indices {seen[node]} and {raw_idx}")
            continue
        seen[node] = raw_idx
        if raw_idx not in normalize:
            normalize[raw_idx] = len(normalize) + 1
        assignment[node] = normalize[raw_idx]
    missing = g.nodes - seen.keys()
    if missing:
        raise MissingNode(f"nodes without community: {sorted(missing)[:10]}")
    return Membership(g.id, assignment)


def summarize(g: LayerGraph, m: Membership,
              hub_quantile: float = 0.8) -> Dict[CommunityId, CommunitySummary]:
    """Per-community size, density, and hub set.

    Hubs are members whose degree in the full layer graph is at least the
    nearest-rank hub_quantile of degrees among the community's members, so
    every community keeps at least its maximum-degree node.
    """
    if not (0.0 < hub_quantile <= 1.0):
        raise InvalidQuantile(f"hub_quantile must be in (0,1], got {hub_quantile}")
    groups = m.communities()
    degree = Counter(chain.from_iterable(g.edges))  # an isolated node reads 0
    internal: Dict[int, int] = {c: 0 for c in groups}
    for u, v in g.edges:
        cu, cv = m.assignment[u], m.assignment[v]
        if cu == cv:
            internal[cu] += 1
    out: Dict[CommunityId, CommunitySummary] = {}
    for c, members in groups.items():
        n = len(members)
        density = 1.0 if n < 2 else 2.0 * internal[c] / (n * (n - 1))
        degs = sorted(degree[v] for v in members)
        rank = max(1, math.ceil(hub_quantile * n - 1e-9))
        cutoff = degs[rank - 1]
        hubs = frozenset(v for v in members if degree[v] >= cutoff)
        out[CommunityId(m.layer, c)] = CommunitySummary(n, density, hubs)
    return out
