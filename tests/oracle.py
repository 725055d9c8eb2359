"""Exhaustive matching oracle for the tests.

It enumerates every one-to-one matching of a small community bipartite
graph and keeps the one with the largest scaled integer weight, ties broken
by the lexicographically smallest pair sequence: the objective that
``hemln.matching.max_flow_match`` computes by augmenting paths.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from hemln.cbg import CommunityBipartiteGraph
from hemln.matching import MatchedPairs, _indexed_edges, _scaled

BRUTE_FORCE_NODE_LIMIT = 16


class TooLarge(Exception):
    """Brute-force oracle guard exceeded."""


def brute_force_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Exhaustive oracle: same objective and tie-break as max_flow_match."""
    lefts, rights, edges = _indexed_edges(cbg)
    if len(lefts) + len(rights) > BRUTE_FORCE_NODE_LIMIT:
        raise TooLarge(
            f"{len(lefts)}+{len(rights)} meta nodes exceed the oracle guard "
            f"of {BRUTE_FORCE_NODE_LIMIT}")
    by_left: Dict[int, List[Tuple[int, float]]] = {}
    for l, r, w in edges:
        by_left.setdefault(l, []).append((r, w))

    best: List = [None]  # (int total, sorted pair tuple, float total)

    def consider(chosen: List[Tuple[int, int]], total_int: int, total_f: float):
        key_pairs = tuple(sorted((lefts[l], rights[r]) for l, r in chosen))
        cand = (total_int, key_pairs, total_f)
        cur = best[0]
        if cur is None or cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
            best[0] = cand

    used_r: set = set()

    def walk(i: int, chosen: List[Tuple[int, int]], total_int: int, total_f: float):
        if i == len(lefts):
            consider(chosen, total_int, total_f)
            return
        walk(i + 1, chosen, total_int, total_f)  # leave left i unmatched
        for r, w in by_left.get(i, ()):
            if r in used_r:
                continue
            used_r.add(r)
            chosen.append((i, r))
            walk(i + 1, chosen, total_int + _scaled(w), total_f + w)
            chosen.pop()
            used_r.discard(r)

    walk(0, [], 0, 0.0)
    total_int, pairs, total_f = best[0]
    return MatchedPairs(pairs, total_f)
