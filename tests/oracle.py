"""Oracles for the tests.

``reference_detect_communities`` is the Louvain detection that visits every
node on every sweep, on dict-of-dicts adjacency with float edge weights and
self-loop weights; ``hemln.community.detect_communities`` runs on dense
integer ids with weight-multiset neighbour lists, skips the nodes whose
decision cannot change, and must return the same memberships.

The two matching oracles compute the objective of
``hemln.matching.max_flow_match``: the largest scaled integer weight, ties
broken by the lexicographically smallest pair sequence.
``brute_force_match`` enumerates every one-to-one matching of a small
community bipartite graph. ``composite_reference_match`` reaches any size:
it runs successive augmenting paths on one composite integer per meta edge,
weight in the high bits and a tie-break bit per edge in the low bits, so
every matching has a distinct objective.

``bit_tie_break_match`` is ``max_flow_match`` with the tie-break phase it
had before the alternating-path greedy: it reruns the kernel on the tight
edges, edge t of T weighing ``w << |T| | 2^(|T|-1-t)``, so the unique best
objective is the maximum weight and then the smallest pair set.

``reference_k_community`` composes k-communities from the definition: per
step it scans every stored link of the pair for the crossing links, offers
meta nodes by the rule in ``select_u``'s docstring, weighs each crossing
community pair with ``weight_e``, ``weight_d`` or ``weight_h`` into a
hand-built CBG, matches with ``composite_reference_match`` and extends each
tuple by case i (a new layer) or case ii (a cycle: only a match to the
tuple's own right community counts). ``hemln.engine.detect_k_community``
must give the same ``to_jsonl`` and ``diagnostics_tsv`` bytes.

``reference_augment`` is phase 1's kernel as it was before it ordered its
sources and bounded its pushes: one Dijkstra per left, in the order given,
pushing every improved right. ``hemln.matching._Network.augment`` must leave
the same matching and potentials as this kernel run over the lefts from the
heaviest row down, and the same total weight as it run in index order.

``reference_prices`` is the label-correcting pass that prices a matching
on its own: from every free left and matched right at gain 0, it prices
each right r at its best alternating-path gain ``v_r`` and each left l at
``w(l, m) - v_m`` for its match m; free nodes cost 0.
``hemln.matching._Network.prices`` reads the dual off the shortest-path
potentials instead and must return the same prices.

``reference_summarize`` walks the layer's edges, as ``summarize`` did
before it read degrees and internal edges off the neighbour rows, and must
return equal summaries in the same order.

``reference_load_layer`` is the layer-file loader that parses every edge
token and keeps an edge list plus a seen-set; ``hemln.fileio.load_layer``
resolves node tokens once and must return equal graphs, warnings and errors.
Both raise each fault, a self-loop or a negative node included, at its line.
``reference_load_interlayer`` parses each link token with ``_int``;
``hemln.fileio.load_interlayer`` parses each distinct token once and must
return equal link sets and errors; ``reference_load_membership_tsv`` and
``hemln.fileio.load_membership_tsv`` likewise. The reference loaders split
the whole decoded text with ``str.splitlines`` at once (``_reference_lines``)
and parse each line; ``hemln.fileio`` takes it one block at a time and
splits a block that is a plain run at once.

``reference_ingest_edges`` builds each IMDb layer's edges from the rules of
the ``hemln.imdb`` docstring, one pair at a time: two actors who share a
movie, every two directors whose genre sets ``genre_overlap`` passes, and
two rated movies in the same rating class. ``hemln.imdb.ingest_imdb`` fills
its rows by cliques and tests each two distinct genre sets once, and must
give the same edges.
"""
from __future__ import annotations

import logging
import math
import random
from collections import Counter, deque
from heapq import heappop, heappush
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from hemln.cbg import CommunityBipartiteGraph, MetaEdge, weight_d, weight_e, weight_h
from hemln.community import (CommunityId, CommunitySummary, Membership, _renumber,
                             load_membership)
from hemln.errors import EmptyGraph, ParseError
from hemln.fileio import COMMENT, _int, _read_text
from hemln.imdb import ImdbRecords, genre_overlap, rating_class
from hemln.engine import KCommunityResult, KTuple, StepDiagnostics
from hemln.kspec import CASE_NEW_LAYER
from hemln.matching import MatchedPairs, _Network
from hemln.model import InterLayerEdges, LayerGraph

BRUTE_FORCE_NODE_LIMIT = 16

log = logging.getLogger("hemln.fileio")  # the logger load_layer warns on


def _sorted_edges(cbg: CommunityBipartiteGraph):
    """Lefts and rights sorted, plus each meta edge as (left idx, right idx,
    its integer in the rows of the CBG's ``table``, its float w) in
    lexicographic order."""
    lefts, rights, rows, _ = cbg.table
    lpos = {c: i for i, c in enumerate(lefts)}
    rpos = {c: i for i, c in enumerate(rights)}
    return lefts, rights, sorted(
        (lpos[e.left], rpos[e.right], rows[lpos[e.left]][rpos[e.right]], e.weight)
        for e in cbg.edges)


def _rows(n_left: int, edges) -> List[Dict[int, int]]:
    """Edges (l, r, w, ...) as ``_Network``'s table: a row {r: w} per left."""
    rows: List[Dict[int, int]] = [{} for _ in range(n_left)]
    for l, r, w, *_ in edges:
        rows[l][r] = w
    return rows


class TooLarge(Exception):
    """Brute-force oracle guard exceeded."""


def brute_force_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Exhaustive oracle: same objective and tie-break as max_flow_match."""
    lefts, rights, edges = _sorted_edges(cbg)
    if len(lefts) + len(rights) > BRUTE_FORCE_NODE_LIMIT:
        raise TooLarge(
            f"{len(lefts)}+{len(rights)} meta nodes exceed the oracle guard "
            f"of {BRUTE_FORCE_NODE_LIMIT}")
    by_left: Dict[int, List[Tuple[int, int, float]]] = {}
    for l, r, w, wf in edges:
        by_left.setdefault(l, []).append((r, w, wf))

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
        for r, w, wf in by_left.get(i, ()):
            if r in used_r:
                continue
            used_r.add(r)
            chosen.append((i, r))
            walk(i + 1, chosen, total_int + w, total_f + wf)
            chosen.pop()
            used_r.discard(r)

    walk(0, [], 0, 0.0)
    total_int, pairs, total_f = best[0]
    return MatchedPairs(pairs, total_f)


def composite_reference_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """One-pass reference: successive longest augmenting paths on the
    composite integers ``scaled(w) << E | 2^(E-1-t)`` over all E edges."""
    lefts, rights, edges = _sorted_edges(cbg)
    n_left, n_right = len(lefts), len(rights)
    n_edges = len(edges)
    if n_edges == 0:
        return MatchedPairs((), 0.0)

    # composite integer objective: weight dominates, bonus breaks ties
    comp: Dict[Tuple[int, int], int] = {}
    for t, (l, r, w, _) in enumerate(edges):
        comp[(l, r)] = (w << n_edges) + (1 << (n_edges - 1 - t))
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

    float_w = {(lefts[l], rights[r]): wf for l, r, _, wf in edges}
    pairs = sorted((lefts[l], rights[r]) for l, r in enumerate(match_l) if r != -1)
    total = sum(float_w[p] for p in pairs)
    return MatchedPairs(tuple(pairs), total)


def bit_tie_break_match(cbg: CommunityBipartiteGraph) -> MatchedPairs:
    """Phase 1, then the kernel again on |T| + ~30-bit tie-break weights."""
    lefts, rights, edges = _sorted_edges(cbg)
    if not edges:
        return MatchedPairs((), 0.0)
    u, v = _Network(len(rights), _rows(len(lefts), edges)).augment().prices()
    tight = [(l, r, w) for l, r, w, _ in edges if u[l] + v[r] == w]
    bits = len(tight)
    tie_break = _Network(len(rights), _rows(len(lefts), [
        (l, r, (w << bits) | (1 << (bits - 1 - t)))
        for t, (l, r, w) in enumerate(tight)])).augment()
    matched = [(l, r, wf) for l, r, _, wf in edges if tie_break.match_l[l] == r]
    return MatchedPairs(tuple((lefts[l], rights[r]) for l, r, _ in matched),
                        sum(w for _, _, w in matched))


def reference_k_community(mln, memberships, summaries, spec,
                           default_metric: str = "e") -> KCommunityResult:
    """The k-community of ``spec``, one step at a time from the definition;
    a tuple is a dict ``{layer: community index}`` (0 = none) plus its x slots."""
    tuples: Optional[List[Tuple[Dict[str, int], list]]] = None
    diagnostics = []
    for step, case in zip(spec.steps, spec.cases):
        left, right = step.left, step.right
        of_left = memberships[left].assignment
        of_right = memberships[right].assignment
        crossing: Dict[Tuple[int, int], set] = {}
        stored = mln.stored_interlayer(left, right)
        for a, b in stored.links:
            if stored.from_layer != left:
                a, b = b, a
            crossing.setdefault((of_left[a], of_right[b]), set()).add((a, b))
        if tuples is None:  # every community with a crossing link
            u_left = {cl for cl, _ in crossing}
            u_right = {cr for _, cr in crossing}
        else:  # a processed layer offers the communities in its slots
            u_left = {slots[left] for slots, _ in tuples} - {0}
            u_right = ({slots[right] for slots, _ in tuples} - {0} if case != CASE_NEW_LAYER
                       else {cr for cl, cr in crossing if cl in u_left})
        metric = step.metric or default_metric
        kept = {key: pairs for key, pairs in crossing.items()
                if key[0] in u_left and key[1] in u_right}
        edges = []
        for (cl, cr), pairs in sorted(kept.items()):
            sl = summaries[left][CommunityId(left, cl)]
            sr = summaries[right][CommunityId(right, cr)]
            w = (weight_e(len(pairs), max(map(len, kept.values()))) if metric == "e"
                 else weight_d(sl, sr, len(pairs)) if metric == "d"
                 else weight_h(sl, sr, frozenset(pairs)))
            if w > 0.0:
                edges.append(MetaEdge(CommunityId(left, cl), CommunityId(right, cr),
                                      frozenset(pairs), w))
        cbg = CommunityBipartiteGraph(frozenset(CommunityId(left, c) for c in u_left),
                                      frozenset(CommunityId(right, c) for c in u_right),
                                      tuple(edges))
        mate = {cl.index: cr.index for cl, cr in composite_reference_match(cbg).pairs}
        if tuples is None:
            tuples = [({left: cl, right: cr}, [frozenset(crossing[(cl, cr)])])
                      for cl, cr in mate.items()]
        else:
            for slots, xs in tuples:
                cr = mate.get(slots[left], 0)
                if case == CASE_NEW_LAYER:
                    slots[right] = cr
                elif cr != slots[right]:  # an inconsistent match realizes nothing
                    cr = 0
                xs.append(frozenset(crossing[(slots[left], cr)]) if cr else None)
        diagnostics.append(StepDiagnostics(len(u_left), len(u_right), len(edges), len(mate)))
    result = sorted((KTuple(spec.layers, tuple(slots[l] for l in spec.layers), tuple(xs))
                     for slots, xs in tuples or ()), key=lambda t: t.communities)
    return KCommunityResult(spec, tuple(result), tuple(diagnostics))


def reference_augment(net, sources):
    """Phase 1 on ``net`` (a ``_Network``), one full Dijkstra per left of
    ``sources`` in that order; returns ``net``."""
    adj, match_l, match_r, v = net.adj, net.match_l, net.match_r, net.v
    n_right = len(match_r)
    dist = [math.inf] * (n_right + len(adj))
    parent = [-1] * len(dist)
    for source in sources:
        done, heap = [], []
        l, dl, ul = source, 0, 0
        while True:
            for r, w in adj[l].items():
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
            ul = -adj[l][r] - v[r]
        for j in done:
            v[j] -= d - dist[j]
        for j in done + [r] + [j for _, _, j in heap]:
            dist[j] = math.inf
        while r != -1:  # flip the path back to the source
            l = parent[r]
            match_l[l], r = (r if r < n_right else -1), match_l[l]
            if match_l[l] != -1:
                match_r[match_l[l]] = l
    return net


def reference_prices(net) -> Tuple[List[int], List[int]]:
    """Dual prices (u, v) of ``net``'s matching by label correcting."""
    adj, match_l, match_r = net.adj, net.match_l, net.match_r
    dist_l = [0 if r == -1 else -adj[l][r] for l, r in enumerate(match_l)]
    dist_r = [-float("inf") if l == -1 else 0 for l in match_r]
    in_queue = [True] * len(dist_l)
    queue = deque(range(len(dist_l)))
    while queue:
        l = queue.popleft()
        in_queue[l] = False
        dl, own = dist_l[l], match_l[l]
        for r, w in adj[l].items():
            nd = dl + w
            if r != own and nd > dist_r[r]:
                dist_r[r] = nd
                l2 = match_r[r]
                if l2 != -1 and nd - adj[l2][r] > dist_l[l2]:
                    dist_l[l2] = nd - adj[l2][r]
                    if not in_queue[l2]:
                        queue.append(l2)
                        in_queue[l2] = True
    u = [-d for d in dist_l]
    v = [0 if l == -1 else d for l, d in zip(match_r, dist_r)]
    return u, v


def _reference_one_level(adj: Dict[int, Dict[int, float]], loops: Dict[int, float],
                         two_m: float, rng: random.Random) -> Tuple[Dict[int, int], bool]:
    """One local-move phase. Returns (node -> community label, moved_any)."""
    order = sorted(adj)
    rng.shuffle(order)
    comm = {u: i for i, u in enumerate(sorted(adj))}
    k = {u: sum(adj[u].values()) + 2.0 * loops.get(u, 0.0) for u in adj}
    tot = {comm[u]: k[u] for u in adj}

    moved_any = False
    improved = True
    while improved:
        improved = False
        for u in order:
            cu = comm[u]
            ku = k[u]
            # weight of u's edges into each neighboring community, u removed
            tot[cu] -= ku
            links: Dict[int, float] = {cu: 0.0}
            for v, w in adj[u].items():
                links[comm[v]] = links.get(comm[v], 0.0) + w
            best_c, best_gain = cu, links.get(cu, 0.0) - tot[cu] * ku / two_m
            for c in sorted(links):
                gain = links[c] - tot.get(c, 0.0) * ku / two_m
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c, best_gain = c, gain
            comm[u] = best_c
            tot[best_c] = tot.get(best_c, 0.0) + ku
            if best_c != cu:
                improved = True
                moved_any = True
    return comm, moved_any


def _reference_aggregate(adj: Dict[int, Dict[int, float]], loops: Dict[int, float],
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


def reference_detect_communities(g: LayerGraph, seed: int = 0) -> Membership:
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
        comm, moved = _reference_one_level(adj, loops, two_m, rng)
        if not moved:
            break
        adj, loops, relabel = _reference_aggregate(adj, loops, comm)
        node2cur = {n: relabel[comm[cur]] for n, cur in node2cur.items()}
        if len(adj) <= 1:
            break
    return _renumber(g.id, node2cur)


def _reference_lines(path, comment):
    """Numbered non-blank lines, stripped, without ``comment`` lines."""
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def reference_summarize(g: LayerGraph, m: Membership, hub_quantile: float = 0.8
                        ) -> Dict[CommunityId, CommunitySummary]:
    """Per-community size, density and hubs from a degree count over the
    edges and one more pass over them for the internal edges."""
    groups = m.communities()
    degree = Counter(chain.from_iterable(g.edges))  # an isolated node reads 0
    internal = {c: 0 for c in groups}
    for u, v in g.edges:
        if m.assignment[u] == m.assignment[v]:
            internal[m.assignment[u]] += 1
    out = {}
    for c, members in groups.items():
        n = len(members)
        density = 1.0 if n < 2 else 2.0 * internal[c] / (n * (n - 1))
        degs = sorted(degree[v] for v in members)
        cutoff = degs[max(1, math.ceil(hub_quantile * n - 1e-9)) - 1]
        hubs = frozenset(v for v in members if degree[v] >= cutoff)
        out[CommunityId(m.layer, c)] = CommunitySummary(n, density, hubs)
    return out


def reference_load_layer(path) -> LayerGraph:
    layer_id: Optional[str] = None
    nodes: set = set()
    edges: List[Tuple[int, int]] = []
    seen_edges: set = set()
    for lineno, line in _reference_lines(path, COMMENT):
        fields = line.split("\t")
        if layer_id is None:
            if len(fields) != 2 or fields[0] != "layer":
                raise ParseError("expected header 'layer <TAB> <id>'", lineno)
            layer_id = fields[1]
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise ParseError("expected 'edge <TAB> u <TAB> v'", lineno)
            u, v = _int(fields[1], lineno), _int(fields[2], lineno)
            if u not in nodes or v not in nodes:
                raise ParseError(f"edge ({u},{v}) references undeclared node", lineno)
            if u == v:
                raise ParseError(f"self-loop on node {u} in layer {layer_id}", lineno)
            canon = (u, v) if u < v else (v, u)
            if canon in seen_edges:
                log.warning("%s line %d: duplicate edge (%d,%d) ignored",
                            path, lineno, u, v)
            seen_edges.add(canon)
            edges.append((u, v))
        elif len(fields) == 1:
            node = _int(fields[0], lineno)
            if node < 0:
                raise ParseError(f"node id {node} is not a non-negative integer",
                                 lineno)
            nodes.add(node)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if layer_id is None:
        raise ParseError("missing layer header", 1)
    return LayerGraph.build(layer_id, nodes, edges)


def reference_load_interlayer(path) -> InterLayerEdges:
    header: Optional[Tuple[str, str]] = None
    links: List[Tuple[int, int]] = []
    for lineno, line in _reference_lines(path, COMMENT):
        fields = line.split("\t")
        if header is None:
            if len(fields) != 3 or fields[0] != "interlayer":
                raise ParseError("expected header 'interlayer <TAB> L1 <TAB> L2'",
                                 lineno)
            header = (fields[1], fields[2])
        else:
            if len(fields) != 2:
                raise ParseError("expected 'u <TAB> v'", lineno)
            links.append((_int(fields[0], lineno), _int(fields[1], lineno)))
    if header is None:
        raise ParseError("missing interlayer header", 1)
    return InterLayerEdges.build(header[0], header[1], links)


def reference_load_membership_tsv(g: LayerGraph, path) -> Membership:
    rows: List[Tuple[int, int]] = []
    for lineno, line in _reference_lines(path, "#"):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'node <TAB> community'", lineno)
        rows.append((_int(fields[0], lineno), _int(fields[1], lineno)))
    return load_membership(g, rows)


def reference_ingest_edges(records: ImdbRecords, threshold: float = 0.5,
                           mode: str = "min") -> Dict[str, Set[FrozenSet[str]]]:
    """Each layer's edges as two-key sets, keyed as ``ingest_imdb``'s id map
    (``A:p1``, ``D:p2``, ``M:t1``), every pair of the layer's nodes tested."""
    cast: Dict[str, Set[str]] = {}
    for person, movie in records.acts_in:
        cast.setdefault(movie, set()).add(person)
    genres: Dict[str, Set[str]] = {}
    for person, movie in records.directs:
        genres.setdefault(person, set()).update(records.movies[movie].genres)
    rated = {m: rating_class(movie.rating) for m, movie in records.movies.items()
             if movie.rating is not None}
    actors = {person for person, _ in records.acts_in}
    tests = {
        "A": (actors, lambda u, v: any(u in c and v in c for c in cast.values())),
        "D": (genres, lambda u, v: genre_overlap(frozenset(genres[u]), frozenset(genres[v]),
                                                 mode) >= threshold),
        "M": (rated, lambda u, v: rated[u] == rated[v]),
    }
    return {layer: {frozenset((f"{layer}:{u}", f"{layer}:{v}"))
                    for u, v in combinations(sorted(nodes), 2) if joined(u, v)}
            for layer, (nodes, joined) in tests.items()}
