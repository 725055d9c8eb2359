import itertools
import random
from collections import Counter

import pytest

from hemln import (LayerGraph, Membership, community, detect_communities,
                   load_membership, summarize)
from hemln.errors import (
    DuplicateNode,
    EmptyGraph,
    InvalidQuantile,
    InvariantViolation,
    MissingNode,
    UnknownNode,
)
from oracle import reference_detect_communities, reference_summarize


def modularity(g: LayerGraph, parts):
    """Reference modularity for an unweighted simple graph."""
    m = len(g.edges)
    if m == 0:
        return 0.0
    degree = Counter(itertools.chain.from_iterable(g.edges))
    q = 0.0
    for part in parts:
        internal = sum(1 for u, v in g.edges if u in part and v in part)
        deg = sum(degree[n] for n in part)
        q += internal / m - (deg / (2 * m)) ** 2
    return q


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1:]
        yield smaller + [{first}]


def best_partition_by_enumeration(g):
    return max(all_partitions(g.nodes), key=lambda p: modularity(g, p))


def triangle(a, b, c):
    return [(a, b), (b, c), (a, c)]


def test_two_triangles_split():
    g = LayerGraph.build("A", range(6), triangle(0, 1, 2) + triangle(3, 4, 5))
    m = detect_communities(g, seed=1)
    parts = list(m.communities().values())
    # oracle: exhaustive search over all partitions of the 6 nodes
    best = best_partition_by_enumeration(g)
    assert modularity(g, parts) == pytest.approx(modularity(g, best))
    assert sorted(map(sorted, parts)) == [[0, 1, 2], [3, 4, 5]]


def test_k5_single_community():
    edges = list(itertools.combinations(range(5), 2))
    g = LayerGraph.build("A", range(5), edges)
    m = detect_communities(g, seed=0)
    parts = list(m.communities().values())
    best = best_partition_by_enumeration(g)
    assert modularity(g, parts) == pytest.approx(modularity(g, best))
    assert parts == [frozenset(range(5))]


def test_single_node():
    g = LayerGraph.build("A", [7], [])
    m = detect_communities(g, seed=3)
    assert m.assignment == {7: 1}


def test_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        detect_communities(LayerGraph.build("A", [], []), 0)


def test_determinism_across_runs():
    edges = triangle(0, 1, 2) + triangle(3, 4, 5) + [(2, 3), (5, 6), (6, 7)]
    g = LayerGraph.build("A", range(8), edges)
    runs = [detect_communities(g, seed=42).assignment for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_renumbering_by_size_then_smallest_member():
    # sizes 3 and 3: tie broken by smallest member node
    g = LayerGraph.build("A", range(6), triangle(3, 4, 5) + triangle(0, 1, 2))
    m = detect_communities(g, seed=0)
    assert m.assignment[0] == 1
    assert m.assignment[3] == 2


def erdos_renyi(rng, n):
    p = rng.uniform(0.03, 0.15)
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def noisy_planted(rng, n):
    size = rng.randint(4, 12)
    p_in, p_out = rng.uniform(0.3, 0.9), rng.uniform(0.01, 0.08)
    return [(u, v) for u, v in itertools.combinations(range(n), 2)
            if rng.random() < (p_in if u // size == v // size else p_out)]


def preferential_attachment(rng, n):
    edges, ends = [(0, 1)], [0, 1]
    for u in range(2, n):
        for v in {rng.choice(ends) for _ in range(rng.randint(1, 3))}:
            edges.append((u, v))
            ends += [u, v]
    return edges


def overlapping_cliques(rng, n):
    edges, start = [], 0
    while start < n - 2:
        size = rng.randint(3, 7)
        edges += itertools.combinations(range(start, min(n, start + size)), 2)
        start += size - rng.randint(0, 2)  # share up to two nodes
    return edges


def planted_groups(rng):
    """6-10 groups of 60-150 nodes (ring + chords) with sparse cross edges:
    detection runs >= 3 levels, so super nodes link by weighted edges."""
    edges, start = set(), 0
    sizes = [rng.randint(60, 150) for _ in range(rng.randint(6, 10))]
    for size in sizes:
        group = range(start, start + size)
        edges.update((u, u + 1) for u in group[:-1])
        edges.add((group[0], group[-1]))
        edges.update(tuple(sorted(rng.sample(group, 2))) for _ in range(size))
        start += size
    edges.update(tuple(sorted(rng.sample(range(start), 2)))
                 for _ in range(3 * len(sizes)))
    return start, sorted(edges)


def ring_of_cliques(rng):
    """40-90 cliques of 3-5 nodes, each joined to the next by 1-3 edges."""
    size, count = rng.randint(3, 5), rng.randint(40, 90)
    edges = [e for c in range(count)
             for e in itertools.combinations(range(c * size, (c + 1) * size), 2)]
    for c in range(count):
        nxt = (c + 1) % count * size
        edges += {(c * size + rng.randrange(size), nxt + rng.randrange(size))
                  for _ in range(rng.randint(1, 3))}
    return size * count, edges


DEGENERATE = {
    "single edge": (range(2), [(0, 1)]),
    "star": (range(21), [(0, v) for v in range(1, 21)]),
    "two components": (range(6), triangle(0, 1, 2) + triangle(3, 4, 5)),
    "mostly isolated": (range(200), [(3, 50), (50, 199), (7, 8)]),
}


def reference_cases():
    """(name, graph) pairs that detect_communities must match the oracle on."""
    for family in (erdos_renyi, noisy_planted, preferential_attachment,
                   overlapping_cliques):
        rng = random.Random(family.__name__)
        for i in range(25):
            n = rng.randint(20, 120)
            isolated = range(n, n + rng.randint(0, 5))
            yield (family.__name__, i), LayerGraph.build(
                "A", itertools.chain(range(n), isolated), family(rng, n))
    for family in (planted_groups, ring_of_cliques):
        rng = random.Random(family.__name__)
        for i in range(4):
            n, edges = family(rng)
            yield (family.__name__, i), LayerGraph.build("A", range(n), edges)
    for name, (nodes, edges) in DEGENERATE.items():
        yield (name, 0), LayerGraph.build("A", nodes, edges)


def test_equals_reference_louvain(monkeypatch):
    """The dense-id kernel with its settled-node skip repeats every decision
    of the reference's full sweeps over dict-of-dicts adjacency."""
    aggregate = community._aggregate
    run = [0, False]  # aggregations, any super edge of weight > 1

    def counting(nbrs, k, comm):
        new_nbrs, new_k, sup = aggregate(nbrs, k, comm)
        run[0] += 1
        run[1] |= any(len(set(ns)) < len(ns) for ns in new_nbrs)
        return new_nbrs, new_k, sup

    monkeypatch.setattr(community, "_aggregate", counting)
    reached = {}
    for case, g in reference_cases():
        for seed in (0, 1, 7):
            run[:] = [0, False]
            assert (detect_communities(g, seed).assignment
                    == reference_detect_communities(g, seed).assignment), \
                (case, seed)
            if case[0] in ("planted_groups", "ring_of_cliques"):
                levels, heavy = reached.get(case[0], (0, False))
                reached[case[0]] = (max(levels, run[0]), heavy or run[1])
    # both large families aggregate >= 3 times and weigh super edges > 1
    for name, (levels, heavy) in reached.items():
        assert levels >= 3 and heavy, (name, levels, heavy)
    assert len(reached) == 2


def test_summarize_equals_reference():
    """Summaries read off the rows equal those of the edge walks, density
    bit for bit, on every reference graph with its node ids spread out so
    that no id equals its position, under a detected and a random membership."""
    rng = random.Random(11)
    for case, g in reference_cases():
        spread = {n: 5000 - 3 * n for n in g.nodes}
        g = LayerGraph.build("A", spread.values(),
                             [(spread[u], spread[v]) for u, v in g.edges])
        labels = rng.randint(1, 6)
        for m in (detect_communities(g, 0),
                  Membership("A", {n: rng.randint(1, labels) for n in g.nodes})):
            for q in (0.1, 0.5, 0.8, 1.0):
                got, want = summarize(g, m, q), reference_summarize(g, m, q)
                assert list(got.items()) == list(want.items()), (case, q)


def test_load_membership_renumbers():
    g = LayerGraph.build("A", [1, 2, 3], [])
    m = load_membership(g, [(1, 7), (2, 7), (3, 9)])
    assert m.assignment == {1: 1, 2: 1, 3: 2}


def test_load_membership_errors():
    g = LayerGraph.build("A", [1, 2, 3], [])
    with pytest.raises(MissingNode):
        load_membership(g, [(1, 7), (2, 7)])
    with pytest.raises(DuplicateNode):
        load_membership(g, [(1, 7), (1, 8), (2, 7), (3, 7)])
    with pytest.raises(UnknownNode):
        load_membership(g, [(1, 7), (2, 7), (99, 7)])


def test_partition_property():
    edges = triangle(0, 1, 2) + [(2, 3), (3, 4)]
    g = LayerGraph.build("A", range(5), edges)
    m = detect_communities(g, seed=5)
    parts = m.communities().values()
    assert sum(len(p) for p in parts) == len(g.nodes)
    assert set().union(*parts) == g.nodes


def test_summary_triangle_density():
    g = LayerGraph.build("A", range(3), triangle(0, 1, 2))
    m = load_membership(g, [(0, 1), (1, 1), (2, 1)])
    s = list(summarize(g, m).values())[0]
    assert (s.node_count, s.density) == (3, 1.0)


def test_summary_density_formula():
    # 4 nodes, 3 internal edges -> density 0.5
    g = LayerGraph.build("A", range(4), [(0, 1), (1, 2), (2, 3)])
    m = load_membership(g, [(n, 1) for n in range(4)])
    s = list(summarize(g, m).values())[0]
    assert s.density == pytest.approx(2 * 3 / (4 * 3))


def test_summary_singleton_convention():
    g = LayerGraph.build("A", [0, 1, 2], [(1, 2)])
    m = load_membership(g, [(0, 1), (1, 2), (2, 2)])
    summaries = summarize(g, m)
    singleton = [s for s in summaries.values() if s.node_count == 1][0]
    assert singleton.density == 1.0
    assert singleton.hubs == {0}


def test_hub_floor_contains_max_degree():
    g = LayerGraph.build("A", range(5), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    m = load_membership(g, [(n, 1) for n in range(5)])
    s = list(summarize(g, m, hub_quantile=0.9).values())[0]
    assert 0 in s.hubs and s.hubs


def test_hubs_read_each_node_degree():
    # degrees [1, 3, 1, 1, 0]: node 4 is isolated and reads degree 0
    g = LayerGraph.build("A", range(5), [(0, 1), (2, 1), (3, 1)])
    m = load_membership(g, [(n, 1) for n in range(5)])
    hubs = {q: list(summarize(g, m, hub_quantile=q).values())[0].hubs
            for q in (0.2, 0.4, 0.8, 1.0)}
    assert hubs == {0.2: {0, 1, 2, 3, 4}, 0.4: {0, 1, 2, 3},
                    0.8: {0, 1, 2, 3}, 1.0: {1}}


def test_invalid_quantile():
    g = LayerGraph.build("A", [0], [])
    m = load_membership(g, [(0, 1)])
    for q in (0.0, 1.5, -0.2, float("nan")):
        with pytest.raises(InvalidQuantile,
                           match=rf"^hub_quantile must be in \(0,1\], got {q}$"):
            summarize(g, m, hub_quantile=q)


def test_summarize_membership_missing_a_node():
    g = LayerGraph.build("A", range(4), triangle(0, 1, 2) + [(2, 3)])
    with pytest.raises(MissingNode, match="^node 3 of layer A has no community$"):
        summarize(g, Membership("A", {0: 1, 1: 1, 2: 2}))
    # an isolated node missed, and a node outside the layer named
    g = LayerGraph.build("A", range(4), [(0, 1), (1, 2)])
    with pytest.raises(MissingNode, match="^node 3 of layer A has no community$"):
        summarize(g, Membership("A", {0: 1, 1: 1, 2: 1}))
    with pytest.raises(UnknownNode, match="^node 99 not in layer A$"):
        summarize(g, Membership("A", {0: 1, 1: 1, 2: 1, 3: 2, 99: 2}))


def test_summarize_membership_of_another_layer():
    g = LayerGraph.build("A", range(2), [(0, 1)])
    with pytest.raises(InvariantViolation,
                       match="^membership of layer B given for layer A$"):
        summarize(g, Membership("B", {0: 1, 1: 1}))
