"""Maximum-total-weight one-to-one matching over a community bipartite graph.

Among weight-maximal matchings the lexicographically smallest pair sequence
(sorted by left then right) is returned, so results are reproducible.
The kernel runs on the CBG's ``table`` as it is: a row ``{right: w}`` per
left of exact integers (1e9 scale, half-even), which ``build_cbg`` fills, or
the CBG converts from hand-built meta edges. Only phase 2 reads a row's order,
and sorts: phase 1's heap breaks ties by right, and its prices come from the
matching.

1. Maximum weight by successive shortest augmenting paths (Jonker & Volgenant
   1987, Crouse 2016): one Dijkstra on reduced costs per left, the lefts taken
   by their row's heaviest weight, largest first (ties by index), which on
   planted CBGs cuts the later searches short. A search pushes no entry above
   the least distance of a free or private right it has pushed: that right
   pops first and ends the search, so such an entry never pops. The kernel's
   right potentials v, negated, are an optimal LP dual: each Dijkstra keeps
   every reduced cost ``-w_lr - u_l - v_r`` >= 0; ``v[j] -= d - dist[j]`` with
   ``dist[j] <= d`` only lowers potentials, so every price ``-v[r]`` is >= 0; a
   right enters ``done`` only while matched, so a free right keeps price 0; and
   left l's private zero-weight right keeps ``u_l >= 0``. The prices ``-v[r]``
   and ``w(l, m) + v[m]`` for l matched to m (0 for a free left) are certified
   optimal in O(E): u, v >= 0, free rights at 0, ``u_l + v_r >= w_lr``, and
   equality on matched edges.
2. Tie-break on the tight edges T, ``u_l + v_r == w_lr``, with no weight
   arithmetic. By complementary slackness (Schrijver, *Combinatorial
   Optimization*, 2003, ch. 17) the maximum-weight matchings are the matchings
   in T that cover S_L = {l : u_l > 0} and S_R = {r : v_r > 0}. Each left in
   turn tries its tight rights in order: a try puts (l, r) into the matching
   and fixes both ends, and each freed vertex of S_L or S_R is covered again by
   an alternating path over the unfixed part of T, a side at a time
   (Mendelsohn-Dulmage). The first try that holds stays.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Tuple

from .cbg import CommunityBipartiteGraph
from .community import CommunityId
from .errors import InvariantViolation

_INF = float("inf")


class MatchedPairs(NamedTuple):
    pairs: Tuple[Tuple[CommunityId, CommunityId], ...]  # sorted
    total_weight: float


class _Network:
    """Integer weights ``adj[l][r]``, a row per left, and the matching on them."""

    def __init__(self, n_right: int, adj: List[Dict[int, int]]):
        self.adj = adj
        self.match_l, self.match_r = [-1] * len(adj), [-1] * n_right
        self.v = [0] * n_right  # right potentials for cost -w

    def augment(self) -> "_Network":
        """Shortest augmenting paths for cost -w, one left at a time, from the
        heaviest row's left down (ties by index).

        Dijkstra runs on the reduced costs ``-w_lr - u_l - v_r`` (right
        potentials ``v``, ``u_l = -w_lm - v_m`` for l's match m), which are
        non-negative past the first hop. It stops at the first free right
        popped; free rights pop first at equal distance, which ends the
        search early on tie-heavy weights. Right ``n_right + l`` is left l's
        private zero-weight right: l stays unmatched when that weighs more.
        ``bound`` is the least distance of a free or private right pushed so
        far; an entry above it would pop after that right, which ends the
        search, so it is never pushed: the pops are those of the full search.
        """
        adj, match_l, match_r, v = self.adj, self.match_l, self.match_r, self.v
        n_right = len(match_r)
        dist = [_INF] * (n_right + len(adj))  # reset per search: it costs what it touches
        parent = [-1] * len(dist)
        for source in sorted(range(len(adj)), key=lambda l: -max(adj[l].values(), default=0)):
            done, heap, bound = [], [], _INF
            l, c = source, 0  # c: l's distance less u_l, added to each of its edges
            while True:
                for r, w in adj[l].items():
                    nd = c - w - v[r]
                    if nd <= bound and nd < dist[r]:
                        dist[r], parent[r] = nd, l
                        heappush(heap, (nd, match_r[r] != -1, r))
                        if match_r[r] == -1:
                            bound = nd
                if c <= bound:
                    bound = dist[n_right + l] = c
                    parent[n_right + l] = l
                    heappush(heap, (bound, False, n_right + l))
                d, _, r = heappop(heap)
                while d > dist[r]:
                    d, _, r = heappop(heap)
                if r >= n_right or match_r[r] == -1:
                    break
                done.append(r)
                l = match_r[r]
                c = d + adj[l][r] + v[r]
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
        adj, match_l, match_r = self.adj, self.match_l, self.match_r
        v = [-p for p in self.v]
        u = [0 if r == -1 else adj[l][r] - v[r] for l, r in enumerate(match_l)]
        if min(u + v, default=0) < 0 or any(
                v[r] for r, l in enumerate(match_r) if l == -1) or any(
                u[l] + v[r] < w or (match_l[l] == r and u[l] + v[r] != w)
                for l, row in enumerate(adj) for r, w in row.items()):
            raise InvariantViolation("matching duals fail the optimality certificate")
        return u, v

    def tie_break(self) -> None:
        """Phase 2 (module docstring), in place on phase 1's matching."""
        (u, v), match_l, match_r = self.prices(), self.match_l, self.match_r
        adj, radj = [], [[] for _ in match_r]
        for l, row in enumerate(self.adj):  # the only pass that needs an order
            adj.append(sorted(r for r, w in row.items() if u[l] + v[r] == w))
            for r in adj[l]:
                radj[r].append(l)
        fixed_l, fixed_r = [False] * len(match_l), [False] * len(match_r)
        for l, rights in enumerate(adj):
            fixed_l[l], m, reach, dead = True, match_l[l], None, set()
            if m != -1 and next(r for r in rights if not fixed_r[r]) != m:
                match_l[l] = match_r[m] = -1  # cover m now, or by a right it reaches
                reach = v[m] and _dead_ends(m, radj, match_r, match_l, v, fixed_l, set())
            for r in rights:
                if fixed_r[r] or (reach and r not in reach):
                    continue
                lp = match_r[r]
                match_l[l], match_r[r], fixed_r[r] = r, l, True
                if lp not in (-1, l):  # l keeps m when no earlier right is open
                    match_l[lp] = -1
                    if u[lp] and _dead_ends(lp, adj, match_l, match_r, u, fixed_r, dead):
                        match_l[l], match_r[r], fixed_r[r], match_l[lp] = -1, lp, False, r
                        continue
                if reach and match_r[m] == -1:  # r is in reach: a path covers m
                    _dead_ends(m, radj, match_r, match_l, v, fixed_l, set())
                break


def _dead_ends(x, adj, mate, other_mate, price, fixed, seen):
    """Flip an alternating path from the free vertex x over unfixed far ends to
    a free or a price-0 vertex and return None; else return ``seen`` + x's reach."""
    parent, order = {x: None}, [x]
    for a in order:
        for b in adj[a]:
            y = other_mate[b]
            if fixed[b] or y in parent or y in seen:
                continue
            if y == -1 or not price[y]:  # the path ends: y, if any, goes free
                mate[x if y == -1 else y] = -1  # (x is free already)
                while a is not None:
                    mate[a], other_mate[b], b, a = b, a, mate[a], parent[a]
                return None
            parent[y] = a
            order.append(y)
    seen.update(parent)
    return seen


def max_flow_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Weight-maximal one-to-one matching with deterministic tie-breaking;
    ``total_weight`` sums the matched pairs' float weights in left order."""
    lefts, rights, rows, weights = cbg.table
    net = _Network(len(rights), rows)
    net.augment().tie_break()
    matched = [(l, r) for l, r in enumerate(net.match_l) if r != -1]
    return MatchedPairs(tuple((lefts[l], rights[r]) for l, r in matched),
                        sum((weights[l][r] for l, r in matched), 0.0))
