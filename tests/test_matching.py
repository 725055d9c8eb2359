import heapq
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hemln import (MLN, CommunityId, InterLayerEdges, LayerGraph, MatchedPairs,
                   Membership, matching, max_flow_match, summarize)
from hemln.cbg import METRICS, CommunityBipartiteGraph, MetaEdge, build_cbg, crossing_pairs
from hemln.errors import InvariantViolation
from hemln.matching import _Network
from oracle import (TooLarge, bit_tie_break_match, brute_force_match,
                    composite_reference_match, reference_augment, reference_prices)

A = lambda i: CommunityId("A", i)
D = lambda i: CommunityId("D", i)


def make_cbg(weighted_edges, extra_left=(), extra_right=()):
    """weighted_edges: list of (left idx, right idx, weight)."""
    edges = tuple(MetaEdge(A(l), D(r), frozenset({(l, 100 + r)}), w)
                  for l, r, w in weighted_edges)
    lefts = frozenset(e.left for e in edges) | frozenset(A(i) for i in extra_left)
    rights = frozenset(e.right for e in edges) | frozenset(D(i) for i in extra_right)
    return CommunityBipartiteGraph(lefts, rights, edges)


def pairs_idx(mp: MatchedPairs):
    return [(l.index, r.index) for l, r in mp.pairs]


def test_simple_choice():
    cbg = make_cbg([(1, 1, 1.0), (1, 2, 0.4), (2, 2, 0.9)])
    mp = max_flow_match(cbg)
    assert pairs_idx(mp) == [(1, 1), (2, 2)]
    assert mp.total_weight == pytest.approx(1.9)


def test_empty_cbg():
    cbg = make_cbg([], extra_left=[1], extra_right=[1])
    assert max_flow_match(cbg) == MatchedPairs((), 0.0)
    assert brute_force_match(cbg) == MatchedPairs((), 0.0)


def test_single_edge():
    cbg = make_cbg([(1, 1, 0.37)])
    mp = max_flow_match(cbg)
    assert pairs_idx(mp) == [(1, 1)] and mp.total_weight == pytest.approx(0.37)


def test_a_left_stays_unmatched_when_that_weighs_more():
    # two pairs weigh 1 + 1; the heavier optimum leaves left 2 unmatched,
    # so a matcher that forces maximum cardinality fails here
    cbg = make_cbg([(1, 1, 10.0), (1, 2, 1.0), (2, 1, 1.0)])
    assert pairs_idx(max_flow_match(cbg)) == [(1, 1)]
    assert brute_force_match(cbg) == max_flow_match(cbg)


def test_lexicographic_tie_break():
    cbg = make_cbg([(1, 1, 0.6), (2, 1, 0.6)])
    assert pairs_idx(max_flow_match(cbg)) == [(1, 1)]
    assert pairs_idx(brute_force_match(cbg)) == [(1, 1)]


def test_two_by_two_complete():
    a, b, c, d = 0.8, 0.3, 0.4, 0.9
    cbg = make_cbg([(1, 1, a), (1, 2, b), (2, 1, c), (2, 2, d)])
    assert pairs_idx(max_flow_match(cbg)) == [(1, 1), (2, 2)]  # a+d > b+c


@pytest.mark.parametrize("cbg, message", [
    (CommunityBipartiteGraph(frozenset({A(1)}), frozenset({D(1)}), (
        MetaEdge(A(1), D(2), frozenset(), 1.0),)), "leaves the CBG's nodes"),
    (make_cbg([(1, 1, 0.6), (1, 1, 0.6)]), "given twice"),
    (make_cbg([(1, 1, float("nan"))]), "weighs nan"),
    (make_cbg([(1, 1, float("inf"))]), "weighs inf"),
    (make_cbg([(1, 1, -5.0), (1, 2, 1e-12)]), "weighs -5.0"),
    (make_cbg([(1, 1, 0.0)]), "weighs 0.0"),
], ids=["end-outside", "pair-twice", "nan", "inf", "negative", "zero"])
def test_hand_built_cbg_breaking_the_build_cbg_rules(cbg, message):
    # build_cbg never makes these; each raised a raw error or matched wrongly
    with pytest.raises(InvariantViolation, match=message):
        max_flow_match(cbg)


def test_brute_force_guard():
    edges = [(i, i, 0.5) for i in range(1, 10)]
    with pytest.raises(TooLarge):
        brute_force_match(make_cbg(edges))


def test_matching_validity_random():
    rng = random.Random(1234)
    for _ in range(100):
        nl, nr = rng.randint(1, 7), rng.randint(1, 7)
        edges = [(l, r, rng.uniform(0.05, 1.0))
                 for l in range(1, nl + 1) for r in range(1, nr + 1)
                 if rng.random() < 0.6]
        cbg = make_cbg(edges, extra_left=range(1, nl + 1),
                       extra_right=range(1, nr + 1))
        mp = max_flow_match(cbg)
        lefts = [l for l, _ in mp.pairs]
        rights = [r for _, r in mp.pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert len(mp.pairs) <= min(nl, nr)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6),
              st.floats(0.05, 1.0, allow_nan=False)),
    min_size=0, max_size=20))
def test_oracle_equivalence_property(raw_edges):
    dedup = {}
    for l, r, w in raw_edges:
        dedup[(l, r)] = w
    edges = [(l, r, w) for (l, r), w in dedup.items()]
    cbg = make_cbg(edges)
    fast = max_flow_match(cbg)
    slow = brute_force_match(cbg)
    assert fast.pairs == slow.pairs
    assert fast.total_weight == pytest.approx(slow.total_weight, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5),
              st.integers(50, 1000)),  # weights on a coarse grid: w = n/1000
    min_size=1, max_size=12),
    st.sampled_from([0.25, 0.5, 2.0, 3.0, 4.0]))
def test_scaling_invariance(raw_edges, scale):
    dedup = {}
    for l, r, n in raw_edges:
        dedup[(l, r)] = n / 1000.0
    base = make_cbg([(l, r, w) for (l, r), w in dedup.items()])
    scaled = make_cbg([(l, r, w * scale) for (l, r), w in dedup.items()])
    assert max_flow_match(base).pairs == max_flow_match(scaled).pairs


@pytest.mark.parametrize("n_left,n_right,grid", [
    (50, 70, None), (160, 120, None), (120, 150, 20), (300, 260, None),
    (500, 500, 20)])
def test_total_weight_matches_linear_sum_assignment(n_left, n_right, grid):
    # past the brute-force oracle's guard: compare the optimum with scipy's
    # assignment solver, where a missing meta edge is a zero-weight cell
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(n_left * 1000 + n_right)
    weights = [[0.0] * n_right for _ in range(n_left)]
    edges = []
    for l in range(n_left):
        for r in rng.sample(range(n_right), 8):
            w = rng.randint(1, grid) / grid if grid else rng.uniform(0.05, 1.0)
            weights[l][r] = w
            edges.append((l + 1, r + 1, w))
    mp = max_flow_match(make_cbg(edges, extra_left=range(1, n_left + 1),
                                 extra_right=range(1, n_right + 1)))
    rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
    best = sum(weights[l][r] for l, r in zip(rows, cols))
    assert mp.total_weight == pytest.approx(best, abs=1e-6)


WEIGHT_GRIDS = ((1 / 3, 2 / 3, 1.0), (0.5, 1.0), None)  # None: continuous


def random_wide_cbg(seed, max_side=200):
    """20-max_side meta nodes per side, sides of unequal size, some meta
    nodes without edges, and tie-heavy weights on two of every three seeds."""
    rng = random.Random(seed)
    n_left, n_right = rng.randint(20, max_side), rng.randint(20, max_side)
    grid = WEIGHT_GRIDS[seed % 3]
    degree = rng.randint(1, 6)
    edges = [(l, r, rng.choice(grid) if grid else rng.uniform(0.05, 1.0))
             for l in range(1, n_left + 1) if rng.random() > 0.1
             for r in rng.sample(range(1, n_right + 1), min(degree, n_right))]
    return make_cbg(edges, extra_left=range(1, n_left + 1),
                    extra_right=range(1, n_right + 1))


def test_equals_composite_reference_past_brute_force_guard():
    # the one-pass composite-integer matcher reaches past the 16-node guard;
    # the two-phase matcher must return the same pairs and float total
    for seed in range(300):
        cbg = random_wide_cbg(seed)
        assert max_flow_match(cbg) == composite_reference_match(cbg), seed


def tie_heavy_cbg(seed):
    """1-25 meta nodes a side, sides of unequal size, weights in thirds, and
    edges in (left, right) order, as ``build_cbg`` emits them."""
    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 25), rng.randint(1, 25)
    density = rng.uniform(0.1, 0.7)
    return make_cbg([(l, r, rng.randint(1, 3) / 3)
                     for l in range(1, n_left + 1) for r in range(1, n_right + 1)
                     if rng.random() < density],
                    extra_left=range(1, n_left + 1), extra_right=range(1, n_right + 1))


def test_result_does_not_depend_on_edge_order():
    # only the tie-break orders a left's rights; every other pass must give
    # the same result for the edges in any order
    for seed in range(600):
        cbg = tie_heavy_cbg(seed)
        edges = list(cbg.edges)
        random.Random(seed).shuffle(edges)
        shuffled = cbg._replace(edges=tuple(edges))
        assert max_flow_match(shuffled) == max_flow_match(cbg), seed


def test_indexed_edges_hold_each_meta_edge_once():
    # every differential oracle reads the CBG through this table, so a fault
    # in it would pass them all; each meta edge holds the kernel's integer,
    # and this is the one statement of the rule in the tests: w * 1e9 rounded
    # half-even, at least 1 (the last CBG pins the floor and both halves)
    cases = [random_wide_cbg(seed, max_side=60) for seed in range(100)]
    cases.append(make_cbg([(1, 1, 1e-10), (1, 2, 2.5e-9), (2, 1, 3.5e-9), (2, 2, 0.5)]))
    for cbg in cases:
        lefts, rights, rows, _ = cbg.table
        assert lefts == sorted(cbg.left_nodes) and rights == sorted(cbg.right_nodes)
        assert len(rows) == len(lefts)
        held = [(lefts[l], rights[r], w) for l, row in enumerate(rows)
                for r, w in row.items()]
        assert sorted(held) == sorted((e.left, e.right, max(1, round(e.weight * 10 ** 9)))
                                      for e in cbg.edges)
    assert rows == [{0: 1, 1: 2}, {0: 4, 1: 500_000_000}]


def test_price_certificate_rejects_a_matching_short_of_maximum():
    # left 0 is matched to right 1 (weight 3) although right 0 pays 5
    net = _Network(2, [{0: 5, 1: 3}])
    net.match_l, net.match_r = [1], [-1, 0]
    with pytest.raises(InvariantViolation):
        net.prices()
    net.match_l, net.match_r = [0], [0, -1]
    assert net.prices() == ([5], [0, 0])


@pytest.mark.parametrize("potentials", [[0, -1], [1, 0], [-6, 0]],
                         ids=["free-right-priced", "negative-right-price",
                              "negative-left-price"])
def test_price_certificate_rejects_injected_potentials(potentials):
    # the optimal matching, but potentials that price right 1 (free, no
    # edge) at 1, right 0 at -1, or left 0 at 5 - 6 = -1; the one edge stays
    # tight, so each case breaks only the condition it names
    net = _Network(2, [{0: 5}])
    net.match_l, net.match_r = [0], [0, -1]
    net.v = potentials
    with pytest.raises(InvariantViolation):
        net.prices()


def _network(cbg):
    """The CBG's phase-1 network, before any search."""
    _, rights, rows, _ = cbg.table
    return _Network(len(rights), rows)


def _phase_one(cbg):
    return _network(cbg).augment()


def ladder_cbg(n, grid):
    """n x n meta nodes, 20 random rights per left, weights k/grid."""
    rng = random.Random(n)
    return make_cbg([(l, r, rng.randint(1, grid) / grid)
                     for l in range(1, n + 1)
                     for r in rng.sample(range(1, n + 1), 20)])


def test_prices_equal_label_correcting_reference():
    # the dual read off the potentials is the one the label-correcting pass
    # finds, so T is the same whichever pass prices the matching (phase 2's
    # pairs would not move with another optimal dual either: for every one,
    # the matchings inside its T that cover its S_L and S_R are exactly the
    # maximum-weight matchings)
    for seed in range(300):
        net = _phase_one(random_wide_cbg(seed))
        assert net.prices() == reference_prices(net), seed
    net = _phase_one(ladder_cbg(600, 3))
    assert net.prices() == reference_prices(net)


def test_total_weight_matches_networkx():
    # a second optimum oracle past the brute-force guard: networkx's blossom
    # matcher on the kernel's integer weights, so the totals compare exactly
    nx = pytest.importorskip("networkx")
    for seed in range(30):
        cbg = random_wide_cbg(seed, max_side=100)
        lefts, rights, rows, _ = cbg.table
        graph = nx.Graph()
        graph.add_weighted_edges_from((lefts[l], rights[r], w)
                                      for l, row in enumerate(rows) for r, w in row.items())
        best = sum(graph.edges[e]["weight"] for e in nx.max_weight_matching(graph))
        assert sum(graph.edges[p]["weight"] for p in max_flow_match(cbg).pairs) == best, seed


def _phase_one_view(cbg):
    """Phase 1's pairs, S_L = {l : u_l > 0}, S_R = {r : v_r > 0} and the
    tight edges, by meta-node index."""
    lefts, rights, rows, _ = cbg.table
    net = _phase_one(cbg)
    u, v = net.prices()
    return (sorted((lefts[l].index, rights[r].index)
                   for l, r in enumerate(net.match_l) if r != -1),
            [lefts[l].index for l, p in enumerate(u) if p],
            [rights[r].index for r, p in enumerate(v) if p],
            sorted((lefts[l].index, rights[r].index) for l, row in enumerate(rows)
                   for r, w in row.items() if u[l] + v[r] == w))


@pytest.mark.parametrize("edges, phase_one, s_left, s_right, tight, expected", [
    # lefts 2 and 4 tie to right 1; phase 1 matches 4, the smaller pair set has 2
    ([(2, 1, 2.0), (4, 1, 2.0)],
     [(4, 1)], [], [1], [(2, 1), (4, 1)], [(2, 1)]),
    # left 1 takes right 2 from left 2 (in S_L), whose path to right 3 ends
    # at left 3, outside S_L, which goes free
    ([(1, 2, 1.0), (2, 2, 2.0), (2, 3, 3.0), (3, 3, 2.0)],
     [(2, 2), (3, 3)], [2], [2, 3], [(1, 2), (2, 2), (2, 3), (3, 3)],
     [(1, 2), (2, 3)]),
    # left 1 leaves right 2 (in S_R) for right 1; left 4 covers right 2 again
    ([(1, 1, 1.0), (1, 2, 3.0), (4, 1, 1.0), (4, 2, 3.0)],
     [(1, 2), (4, 1)], [1, 4], [2], [(1, 1), (1, 2), (4, 1), (4, 2)],
     [(1, 1), (4, 2)]),
    # lefts 1 and 3 have a tight right, but taking it would free left 4 (in
    # S_L), which has no other right: both stay free
    ([(1, 1, 2.0), (3, 1, 2.0), (4, 1, 3.0)],
     [(4, 1)], [4], [1], [(1, 1), (3, 1), (4, 1)], [(4, 1)]),
    # left 2 leaves right 4 (in S_R), and no path covers it again alone: only
    # a right that search reached may close one, so left 2 skips right 1 and
    # takes right 2, and left 3, freed, covers right 4
    ([(1, 2, 2.0), (1, 3, 1.0), (1, 4, 2.0), (2, 1, 1.0), (2, 2, 3.0),
      (2, 4, 2.0), (3, 2, 2.0), (3, 4, 1.0)],
     [(1, 4), (2, 1), (3, 2)], [1, 2], [2, 4],
     [(1, 3), (1, 4), (2, 1), (2, 2), (2, 4), (3, 2), (3, 4)],
     [(1, 3), (2, 2), (3, 4)]),
], ids=["phase-one-not-lexicographic", "left-path-ends-outside-s-left",
        "freed-right-covered-again", "left-with-tight-rights-stays-free",
        "right-covered-through-the-taken-right"])
def test_tie_break_branches(edges, phase_one, s_left, s_right, tight, expected):
    cbg = make_cbg(edges)
    assert _phase_one_view(cbg) == (phase_one, s_left, s_right, tight)
    assert pairs_idx(max_flow_match(cbg)) == expected
    assert max_flow_match(cbg) == brute_force_match(cbg)


def test_tie_break_equals_the_bit_weight_kernel():
    # the greedy against the |T|-bit tie-break it replaced, on tie-heavy
    # CBGs of 1-40 meta nodes a side, unequal sides and edgeless meta nodes
    for seed in range(4000):
        rng = random.Random(seed)
        side = rng.choice((4, 9, 16, 40))
        n_left, n_right = rng.randint(1, side), rng.randint(1, side)
        density, levels = rng.uniform(0.05, 0.7), rng.randint(1, 4)
        edges = [(l, r, rng.randint(1, levels) / levels)
                 for l in range(1, n_left + 1) for r in range(1, n_right + 1)
                 if rng.random() < density]
        cbg = make_cbg(edges, extra_left=range(1, n_left + 1),
                       extra_right=range(1, n_right + 1))
        assert max_flow_match(cbg) == bit_tie_break_match(cbg), seed


def dense_cbgs(seed, groups=250, size=10, fanout=20):
    """The CBG of one layer pair under each metric, in the shape of the
    benchmark's composition workload: two layers of ``groups`` planted groups
    of ``size`` nodes (a ring plus ``size // 2`` chords), memberships by
    group, and each left group linking to ``fanout`` right groups with 1-3
    links each."""
    rng = random.Random(seed)
    mln, memberships = MLN(), {}
    for lid, offset in (("A", 0), ("D", 10 ** 5)):
        edges = set()
        for base in range(offset, offset + groups * size, size):
            members = range(base, base + size)
            edges.update((n, base + (n - base + 1) % size) for n in members)
            edges.update(tuple(rng.sample(members, 2)) for _ in range(size // 2))
        mln.add_layer(LayerGraph.build(lid, range(offset, offset + groups * size), edges))
        memberships[lid] = Membership(lid, {n: (n - offset) // size + 1
                                            for n in range(offset, offset + groups * size)})
    mln.add_interlayer(InterLayerEdges.build("A", "D", {
        (g * size + rng.randrange(size), 10 ** 5 + h * size + rng.randrange(size))
        for g in range(groups) for h in rng.sample(range(groups), fanout)
        for _ in range(rng.randint(1, 3))}))
    mln.freeze()
    sa, sd = (summarize(mln.layer(lid), memberships[lid]) for lid in "AD")
    buckets = crossing_pairs(mln, "A", "D", memberships["A"], memberships["D"])
    return {metric: build_cbg("A", "D", buckets, sorted(sa), sorted(sd), sa, sd, metric)
            for metric in METRICS}


@pytest.mark.parametrize("seed", [0, 1])
def test_tie_break_equals_the_bit_weight_kernel_on_dense_cbgs(seed):
    for metric, cbg in dense_cbgs(seed).items():
        assert len(cbg.edges) + len(cbg.dropped) == 250 * 20, metric
        assert max_flow_match(cbg) == bit_tie_break_match(cbg), metric


def test_built_table_equals_the_table_of_its_meta_edges():
    # build_cbg weighs into the matcher's table; the same CBG given as its
    # MetaEdges (the view) is converted into the same rows and matched alike
    for seed in (0, 1):
        for metric, cbg in dense_cbgs(seed).items():
            hand = CommunityBipartiteGraph(cbg.left_nodes, cbg.right_nodes, cbg.edges)
            assert hand.table[:3] == cbg.table[:3], metric
            assert [{r: w for r, w in row.items() if w > 0.0} for row in cbg.table.weights] == \
                hand.table.weights, metric
            assert max_flow_match(hand) == max_flow_match(cbg), metric


def _heaviest_first(net):
    """The lefts by their row's largest weight, largest first, ties by index."""
    return sorted(range(len(net.adj)),
                  key=lambda l: (-max(net.adj[l].values(), default=0), l))


def _total(net):
    return sum(net.adj[l][r] for l, r in enumerate(net.match_l) if r != -1)


def test_augment_leaves_the_full_search_state():
    # the bound keeps out only entries that would pop after the search ends,
    # so phase 1 leaves the matching and potentials of the full search run in
    # the same order; in index order that search reaches the same weight
    cases = [(f"random_wide_cbg({seed})", random_wide_cbg(seed)) for seed in range(300)]
    cases.append(("ladder_cbg(600, 3)", ladder_cbg(600, 3)))
    cases += [(f"dense_cbgs({seed}) {metric}", cbg)
              for seed in (0, 1) for metric, cbg in dense_cbgs(seed).items()]
    for name, cbg in cases:
        net = _phase_one(cbg)
        full = reference_augment(_network(cbg), _heaviest_first(net))
        assert (net.match_l, net.match_r, net.v) == (full.match_l, full.match_r, full.v), name
        by_index = reference_augment(_network(cbg), range(len(net.adj)))
        assert _total(net) == _total(by_index), name


def test_phase_one_pushes_a_fraction_of_the_full_search(monkeypatch):
    # heap pushes on the benchmark-shaped CBG, against the full search in
    # index order: ~0.22x under d, ~0.20x under h and ~0.65x under e
    pushes = Counter()

    def counted(kernel):
        def push(heap, item):
            pushes[kernel] += 1
            heapq.heappush(heap, item)
        return push

    monkeypatch.setattr(matching, "heappush", counted("bounded"))
    monkeypatch.setattr(oracle, "heappush", counted("full"))
    for metric, cbg in dense_cbgs(0).items():
        pushes.clear()
        _phase_one(cbg)
        reference_augment(_network(cbg), range(len(cbg.left_nodes)))
        assert pushes["bounded"] <= {"e": 0.75, "d": 0.3, "h": 0.3}[metric] * pushes["full"], (
            metric, pushes)
