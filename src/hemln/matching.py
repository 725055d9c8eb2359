"""Maximum-total-weight one-to-one matching over a community bipartite graph.

Among weight-maximal matchings the lexicographically smallest pair sequence
(sorted by left then right) is returned, so results are reproducible.
Weights are exact integers (scaled by 1e9, half-even rounding). Both phases
run successive shortest augmenting paths (Jonker & Volgenant 1987, Crouse
2016): one Dijkstra on reduced costs per left.

1. Maximum weight on the small integers. The kernel's right potentials v,
   negated, are an optimal LP dual: each Dijkstra keeps every reduced cost
   ``-w_lr - u_l - v_r`` >= 0; ``v[j] -= d - dist[j]`` with ``dist[j] <= d``
   only lowers potentials, so every price ``-v[r]`` is >= 0; a right enters
   ``done`` only while matched, so a free right keeps price 0; and left l's
   private zero-weight right keeps ``u_l >= 0``. The prices ``-v[r]`` and
   ``w(l, m) + v[m]`` for l matched to m (0 for a free left) must pass an
   O(E) optimality certificate: u, v >= 0, free rights at 0,
   ``u_l + v_r >= w_lr``, equality on matched edges.
2. Tie-break on the tight edges T, ``u_l + v_r == w_lr``. The prices are an
   optimal LP dual, so by complementary slackness every maximum-weight
   matching lies in T, and a matching of T is globally maximal when its
   weight is. Edge t of T (lexicographic order) weighs ``w << |T| | 2^(|T|-1-t)``:
   the unique best objective is maximum weight, then the smallest pair set,
   so any exact kernel returns the same matching.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import List, NamedTuple, Tuple

from .cbg import CommunityBipartiteGraph
from .community import CommunityId
from .errors import InvariantViolation

WEIGHT_SCALE = 10 ** 9
_INF = float("inf")


class MatchedPairs(NamedTuple):
    pairs: Tuple[Tuple[CommunityId, CommunityId], ...]  # sorted
    total_weight: float


def _indexed_edges(cbg: CommunityBipartiteGraph):
    """Lefts/rights sorted, plus edges as (left idx, right idx, float w)
    in lexicographic (left, right) order. As ``build_cbg`` makes them, each
    edge joins an offered left to an offered right, once, and weighs a
    finite w > 0."""
    lefts = sorted(cbg.left_nodes)
    rights = sorted(cbg.right_nodes)
    lpos = {c: i for i, c in enumerate(lefts)}
    rpos = {c: i for i, c in enumerate(rights)}
    weights = {}
    for e in cbg.edges:
        key = (lpos.get(e.left), rpos.get(e.right))
        if None in key:
            raise InvariantViolation(f"meta edge {e.left}-{e.right} leaves the CBG's nodes")
        if key in weights:
            raise InvariantViolation(f"meta edge {e.left}-{e.right} given twice")
        if not 0.0 < e.weight < _INF:  # so not NaN
            raise InvariantViolation(
                f"meta edge {e.left}-{e.right} weighs {e.weight!r}, not a finite w > 0")
        weights[key] = e.weight
    return lefts, rights, sorted((l, r, w) for (l, r), w in weights.items())


class _Network:
    """Integer-weighted edges (l, r, w) with the matching built on them."""

    def __init__(self, n_left: int, n_right: int, edges: List[Tuple[int, int, int]]):
        self.weight = {(l, r): w for l, r, w in edges}
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(n_left)]
        for l, r, w in edges:
            self.adj[l].append((r, w))
        self.match_l, self.match_r = [-1] * n_left, [-1] * n_right
        self.v = [0] * n_right  # right potentials for cost -w

    def augment(self) -> "_Network":
        """Shortest augmenting paths for cost -w, one left at a time.

        Dijkstra runs on the reduced costs ``-w_lr - u_l - v_r`` (right
        potentials ``v``, ``u_l = -w_lm - v_m`` for l's match m), which are
        non-negative past the first hop. It stops at the first free right
        popped; free rights pop first at equal distance, which ends the
        search early on tie-heavy weights. Right ``n_right + l`` is left l's
        private zero-weight right: l stays unmatched when that weighs more.
        """
        adj, weight = self.adj, self.weight
        match_l, match_r, v = self.match_l, self.match_r, self.v
        n_right = len(match_r)
        dist = [_INF] * (n_right + len(adj))  # reset per search: it costs what it touches
        parent = [-1] * len(dist)
        for source in range(len(adj)):
            done, heap = [], []
            l, dl, ul = source, 0, 0
            while True:
                for r, w in adj[l]:
                    nd = dl - w - ul - v[r]
                    if nd < dist[r]:
                        dist[r], parent[r] = nd, l
                        heappush(heap, (nd, match_r[r] != -1, r))
                dist[n_right + l], parent[n_right + l] = dl - ul, l
                heappush(heap, (dl - ul, False, n_right + l))
                d, _, r = heappop(heap)
                while d > dist[r]:
                    d, _, r = heappop(heap)
                if r >= n_right or match_r[r] == -1:
                    break
                done.append(r)
                l, dl = match_r[r], d
                ul = -weight[(l, r)] - v[r]
            for j in done:
                v[j] -= d - dist[j]
            for j in done + [r] + [j for _, _, j in heap]:
                dist[j] = _INF
            while r != -1:  # flip the path back to the source
                l = parent[r]
                match_l[l], r = (r if r < n_right else -1), match_l[l]
                if match_l[l] != -1:
                    match_r[match_l[l]] = l
        return self

    def prices(self) -> Tuple[List[int], List[int]]:
        """Optimal dual prices (u, v) read off the potentials, certified."""
        weight, match_l, match_r = self.weight, self.match_l, self.match_r
        v = [-p for p in self.v]
        u = [0 if r == -1 else weight[(l, r)] - v[r] for l, r in enumerate(match_l)]
        if min(u + v, default=0) < 0 or any(
                v[r] for r, l in enumerate(match_r) if l == -1) or any(
                u[l] + v[r] < w or (match_l[l] == r and u[l] + v[r] != w)
                for (l, r), w in weight.items()):
            raise InvariantViolation("matching duals fail the optimality certificate")
        return u, v


def max_flow_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Weight-maximal one-to-one matching with deterministic tie-breaking."""
    lefts, rights, edges = _indexed_edges(cbg)
    if not edges:
        return MatchedPairs((), 0.0)
    scaled = [(l, r, max(1, round(w * WEIGHT_SCALE))) for l, r, w in edges]
    u, v = _Network(len(lefts), len(rights), scaled).augment().prices()
    tight = [(l, r, w) for l, r, w in scaled if u[l] + v[r] == w]
    bits = len(tight)
    tie_break = _Network(len(lefts), len(rights),
                         [(l, r, (w << bits) | (1 << (bits - 1 - t)))
                          for t, (l, r, w) in enumerate(tight)]).augment()
    matched = [(l, r, w) for l, r, w in edges if tie_break.match_l[l] == r]
    return MatchedPairs(tuple((lefts[l], rights[r]) for l, r, _ in matched),
                        sum(w for _, _, w in matched))
