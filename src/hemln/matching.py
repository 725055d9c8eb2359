"""Maximum-total-weight one-to-one matching over a community bipartite graph.

The composition function pairs communities one-to-one so that the sum of
meta-edge weights is maximal; among weight-maximal matchings the
lexicographically smallest pair sequence (sorted by left then right index)
is returned, so results are reproducible.

Implementation: successive augmenting paths on the weighted residual
network (source -> left meta nodes -> right meta nodes -> sink, unit
capacities). Weights enter as exact integers (scaled by 1e9, half-even
rounding) combined with per-edge tie-break bonuses: edge t in lexicographic
order receives an extra 2^(E-1-t) on top of weight * 2^E. Every matching
then has a distinct integer objective whose maximization is exactly
"maximum weight, then lexicographically smallest pair set", so the
augmenting-path optimum needs no separate tie-break pass.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .cbg import CommunityBipartiteGraph
from .community import CommunityId

WEIGHT_SCALE = 10 ** 9


@dataclass(frozen=True)
class MatchedPairs:
    pairs: Tuple[Tuple[CommunityId, CommunityId], ...]  # sorted
    total_weight: float

    def as_dict(self) -> Dict[CommunityId, CommunityId]:
        return dict(self.pairs)


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


def max_flow_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Weight-maximal one-to-one matching with deterministic tie-breaking."""
    lefts, rights, edges = _indexed_edges(cbg)
    n_left, n_right = len(lefts), len(rights)
    n_edges = len(edges)
    if n_edges == 0:
        return MatchedPairs((), 0.0)

    # composite integer objective: weight dominates, bonus breaks ties
    comp: Dict[Tuple[int, int], int] = {}
    for t, (l, r, w) in enumerate(edges):
        comp[(l, r)] = (_scaled(w) << n_edges) + (1 << (n_edges - 1 - t))
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n_left)]
    for (l, r), cw in comp.items():
        adj[l].append((r, cw))

    match_l = [-1] * n_left
    match_r = [-1] * n_right
    while True:
        dist_l: List = [None] * n_left
        dist_r: List = [None] * n_right
        parent_r = [-1] * n_right
        queue = deque()
        in_queue = [False] * n_left
        for l in range(n_left):
            if match_l[l] == -1:
                dist_l[l] = 0
                queue.append(l)
                in_queue[l] = True
        while queue:
            l = queue.popleft()
            in_queue[l] = False
            dl = dist_l[l]
            for r, cw in adj[l]:
                if match_l[l] == r:
                    continue
                nd = dl + cw
                if dist_r[r] is None or nd > dist_r[r]:
                    dist_r[r] = nd
                    parent_r[r] = l
                    l2 = match_r[r]
                    if l2 != -1:
                        back = nd - comp[(l2, r)]
                        if dist_l[l2] is None or back > dist_l[l2]:
                            dist_l[l2] = back
                            if not in_queue[l2]:
                                queue.append(l2)
                                in_queue[l2] = True
        best_r, best_gain = -1, 0
        for r in range(n_right):
            if match_r[r] == -1 and dist_r[r] is not None and dist_r[r] > best_gain:
                best_r, best_gain = r, dist_r[r]
        if best_r == -1:
            break
        r = best_r
        while True:
            l = parent_r[r]
            prev_r = match_l[l]
            match_l[l] = r
            match_r[r] = l
            if prev_r == -1:
                break
            r = prev_r

    float_w = {(lefts[l], rights[r]): w for l, r, w in edges}
    pairs = sorted((lefts[l], rights[r]) for l, r in enumerate(match_l) if r != -1)
    total = sum(float_w[p] for p in pairs)
    return MatchedPairs(tuple(pairs), total)
