"""Maximum-total-weight one-to-one matching over a community bipartite graph.

Among weight-maximal matchings the lexicographically smallest pair sequence
(sorted by left then right) is returned, so results are reproducible.
Weights are exact integers (scaled by 1e9, half-even rounding). Each phase
runs successive longest augmenting paths, found by label correcting.

1. Maximum weight on the small integers. One more pass, from every free
   left and matched right at gain 0, prices each right r at its best
   alternating-path gain ``v_r`` and each left l at ``w(l, m) - v_m`` for
   its match m; free nodes cost 0. The prices must pass an O(E) optimality
   certificate (``u >= 0``, ``u_l + v_r >= w_lr``, tight on matched edges).
2. Tie-break on the tight edges T, ``u_l + v_r == w_lr``. The prices are an
   optimal LP dual, so by complementary slackness every maximum-weight
   matching lies in T, and a matching of T is globally maximal when its
   weight is. Edge t of T (lexicographic order) weighs ``w << |T| | 2^(|T|-1-t)``:
   the unique best objective is maximum weight, then the smallest pair set.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

from .cbg import CommunityBipartiteGraph
from .community import CommunityId
from .errors import InvariantViolation

WEIGHT_SCALE = 10 ** 9
_UNREACHED = float("-inf")


@dataclass(frozen=True)
class MatchedPairs:
    pairs: Tuple[Tuple[CommunityId, CommunityId], ...]  # sorted
    total_weight: float


def _scaled(w: float) -> int:
    return max(1, round(w * WEIGHT_SCALE))


def _indexed_edges(cbg: CommunityBipartiteGraph):
    """Lefts/rights sorted, plus edges as (left idx, right idx, float w)
    in lexicographic (left, right) order."""
    lefts = sorted(cbg.left_nodes)
    rights = sorted(cbg.right_nodes)
    lpos = {c: i for i, c in enumerate(lefts)}
    rpos = {c: i for i, c in enumerate(rights)}
    edges = [(lpos[e.left], rpos[e.right], e.weight)
             for e in sorted(cbg.edges, key=lambda e: (e.left, e.right))]
    return lefts, rights, edges


class _Network:
    """Integer-weighted edges (l, r, w) with the matching built on them."""

    def __init__(self, n_left: int, n_right: int, edges: List[Tuple[int, int, int]]):
        self.weight = {(l, r): w for l, r, w in edges}
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(n_left)]
        for l, r, w in edges:
            self.adj[l].append((r, w))
        self.match_l, self.match_r = [-1] * n_left, [-1] * n_right

    def longest_paths(self, dist_l: List, dist_r: List) -> List[int]:
        """Raise dist_l/dist_r in place to the best alternating-path gains
        from the reached lefts; return each right node's predecessor."""
        adj, weight = self.adj, self.weight
        match_l, match_r = self.match_l, self.match_r
        parent_r = [-1] * len(dist_r)
        in_queue = [d != _UNREACHED for d in dist_l]
        queue = deque(l for l, reached in enumerate(in_queue) if reached)
        while queue:
            l = queue.popleft()
            in_queue[l] = False
            dl, own = dist_l[l], match_l[l]
            for r, w in adj[l]:
                nd = dl + w
                if r != own and nd > dist_r[r]:
                    dist_r[r], parent_r[r] = nd, l
                    l2 = match_r[r]
                    if l2 != -1 and nd - weight[(l2, r)] > dist_l[l2]:
                        dist_l[l2] = nd - weight[(l2, r)]
                        if not in_queue[l2]:
                            queue.append(l2)
                            in_queue[l2] = True
        return parent_r

    def augment(self) -> "_Network":
        """Successive longest augmenting paths from the empty matching."""
        match_l, match_r = self.match_l, self.match_r
        while True:
            dist_l = [0 if r == -1 else _UNREACHED for r in match_l]
            dist_r = [_UNREACHED] * len(match_r)
            parent_r = self.longest_paths(dist_l, dist_r)
            free = [r for r, d in enumerate(dist_r) if match_r[r] == -1 and d > 0]
            if not free:
                return self
            r = max(free, key=dist_r.__getitem__)  # first of the best gains
            while r != -1:  # flip the path back to its free left
                l = parent_r[r]
                match_l[l], r = r, match_l[l]
                match_r[match_l[l]] = l

    def prices(self) -> Tuple[List[int], List[int]]:
        """Optimal dual prices (u, v) of the current matching, certified."""
        match_l, match_r = self.match_l, self.match_r
        dist_l = [0 if r == -1 else -self.weight[(l, r)]
                  for l, r in enumerate(match_l)]
        dist_r = [_UNREACHED if l == -1 else 0 for l in match_r]
        self.longest_paths(dist_l, dist_r)
        u = [-d for d in dist_l]
        v = [0 if l == -1 else d for l, d in zip(match_r, dist_r)]
        if min(u, default=0) < 0 or any(
                u[l] + v[r] < w or (match_l[l] == r and u[l] + v[r] != w)
                for (l, r), w in self.weight.items()):
            raise InvariantViolation("matching duals fail the optimality certificate")
        return u, v


def max_flow_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Weight-maximal one-to-one matching with deterministic tie-breaking."""
    lefts, rights, edges = _indexed_edges(cbg)
    if not edges:
        return MatchedPairs((), 0.0)
    scaled = [(l, r, _scaled(w)) for l, r, w in edges]
    u, v = _Network(len(lefts), len(rights), scaled).augment().prices()
    tight = [(l, r, w) for l, r, w in scaled if u[l] + v[r] == w]
    bits = len(tight)
    tie_break = _Network(len(lefts), len(rights),
                         [(l, r, (w << bits) | (1 << (bits - 1 - t)))
                          for t, (l, r, w) in enumerate(tight)]).augment()
    matched = [(l, r, w) for l, r, w in edges if tie_break.match_l[l] == r]
    return MatchedPairs(tuple((lefts[l], rights[r]) for l, r, _ in matched),
                        sum(w for _, _, w in matched))
