"""End-to-end acceptance suite.

Each test prints a single ``criterion NN <name>: PASS`` (or FAIL) line so
the suite doubles as a checklist when run with ``pytest -v -s``.
"""
import functools
import random
import time

from hemln import (
    MLN,
    CommunityId,
    InterLayerEdges,
    LayerGraph,
    build_cbg,
    classify,
    crossing_pairs,
    detect_communities,
    detect_k_community,
    load_membership,
    max_flow_match,
    parse_spec,
    summarize,
    format_tuples,
    validate_spec,
)
from hemln.cbg import CommunityBipartiteGraph, MetaEdge
from hemln.cli import main as cli_main
from hemln.fileio import save_mln
from hemln.imdb import ImdbRecords, Movie, ingest_imdb
from oracle import brute_force_match


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# instance generators


def random_cbg(rng):
    nl, nr = rng.randint(1, 7), rng.randint(1, 7)
    edges = []
    for l in range(1, nl + 1):
        for r in range(1, nr + 1):
            if rng.random() < 0.5:
                w = rng.uniform(0.05, 1.0)
                edges.append(MetaEdge(CommunityId("A", l), CommunityId("D", r),
                                      frozenset({(l, 100 + r)}), w))
    lefts = frozenset(CommunityId("A", i) for i in range(1, nl + 1))
    rights = frozenset(CommunityId("D", i) for i in range(1, nr + 1))
    return CommunityBipartiteGraph(lefts, rights, tuple(edges))


def clique_layer(lid, sizes, offset):
    """A layer whose communities are disjoint cliques of the given sizes."""
    nodes, edges, rows = [], [], []
    nid = offset
    for i, s in enumerate(sizes):
        members = list(range(nid, nid + s))
        nid += s
        nodes += members
        rows += [(n, i + 1) for n in members]
        edges += [(u, v) for j, u in enumerate(members) for v in members[j + 1:]]
    g = LayerGraph.build(lid, nodes, edges)
    m = load_membership(g, rows)
    return g, m


def clique_instance(rng, left_sizes, right_sizes, links):
    gl, ml = clique_layer("A", left_sizes, 0)
    gr, mr = clique_layer("D", right_sizes, 1000)
    mln = MLN().add_layer(gl).add_layer(gr)
    mln.add_interlayer(InterLayerEdges.build("A", "D", links))
    mln.freeze()
    sl, sr = summarize(gl, ml), summarize(gr, mr)
    buckets = crossing_pairs(mln, "A", "D", ml, mr)
    def cbg(metric):
        return build_cbg("A", "D", buckets, sorted(sl), sorted(sr),
                         sl, sr, metric)
    return cbg


def community_members(membership, index):
    return [n for n, c in membership.assignment.items() if c == index]


def random_mln_and_spec(rng):
    """A random 3-5 layer MLN plus a valid serial (optionally cyclic) spec."""
    n_layers = rng.randint(3, 5)
    order = [f"L{i}" for i in range(n_layers)]
    rng.shuffle(order)
    mln = MLN()
    node_pools = {}
    for i, lid in enumerate(order):
        offset = (i + 1) * 1000
        n = rng.randint(9, 18)
        nodes = list(range(offset, offset + n))
        edges = [(u, v) for j, u in enumerate(nodes) for v in nodes[j + 1:]
                 if rng.random() < 0.3]
        mln.add_layer(LayerGraph.build(lid, nodes, edges))
        node_pools[lid] = nodes

    def link(l1, l2):
        links = {(rng.choice(node_pools[l1]), rng.choice(node_pools[l2]))
                 for _ in range(rng.randint(3, 10))}
        mln.add_interlayer(InterLayerEdges.build(l1, l2, links))

    tokens = [order[0]]
    for prev, cur in zip(order, order[1:]):
        link(prev, cur)
        tokens += [f"#({prev},{cur})", cur]
    cyclic = rng.random() < 0.5
    if cyclic:
        link(order[-1], order[0])
        tokens += [f"#({order[-1]},{order[0]})", order[0]]
    mln.freeze()
    spec = validate_spec(parse_spec(" ".join(tokens)), mln)
    memberships = {lid: detect_communities(mln.layer(lid), seed=rng.randint(0, 99))
                   for lid in order}
    summaries = {lid: summarize(mln.layer(lid), memberships[lid])
                 for lid in order}
    return mln, memberships, summaries, spec, cyclic


# ---------------------------------------------------------------------------
# criteria


@criterion("criterion 01 matching-oracle-equivalence")
def test_01_matching_oracle_equivalence():
    rng = random.Random(20260823)
    start = time.perf_counter()
    for _ in range(500):
        cbg = random_cbg(rng)
        fast = max_flow_match(cbg)
        slow = brute_force_match(cbg)
        assert fast.pairs == slow.pairs
        assert abs(fast.total_weight - slow.total_weight) <= 1e-9
    assert time.perf_counter() - start < 10.0


@criterion("criterion 02 clique-equisized-weight-proportionality")
def test_02_clique_equisized_proportionality():
    # power-of-two sizes and a power-of-two max pair count keep every weight
    # an exact dyadic rational, so the e/d proportionality is exact in floats
    # and matching ties cannot break differently between the two metrics
    rng = random.Random(2)
    for _ in range(50):
        p, q = rng.choice((2, 4)), rng.choice((2, 4))
        kl, kr = rng.randint(2, 4), rng.randint(2, 4)
        cap = (p * q) // 2 if p * q > 2 else p * q
        links = set()
        for li in range(kl):
            for ri in range(kr):
                cells = [(li * p + u, 1000 + ri * q + v)
                         for u in range(p) for v in range(q)]
                count = cap if (li, ri) == (0, 0) else rng.randint(0, cap)
                links.update(rng.sample(cells, count))
        cbg = clique_instance(rng, [p] * kl, [q] * kr, links)
        ce, cd = cbg("e"), cbg("d")
        keys = lambda c: {(e.left, e.right) for e in c.edges}
        assert keys(ce) == keys(cd)
        assert max_flow_match(ce).pairs == max_flow_match(cd).pairs
        for e in cd.edges:
            # densities are exactly 1.0 for cliques, so the product is the
            # bare fraction and the ratio to |pairs| is exactly 1/(p*q)
            assert e.weight == len(e.pairs) / (p * q)


@criterion("criterion 03 clique-hub-product-equality")
def test_03_clique_hub_product_equality():
    rng = random.Random(3)
    for _ in range(50):
        left_sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
        right_sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
        gl, ml = clique_layer("A", left_sizes, 0)
        gr, mr = clique_layer("D", right_sizes, 1000)
        links = set()
        for li in range(1, len(left_sizes) + 1):
            for ri in range(1, len(right_sizes) + 1):
                if rng.random() < 0.6:
                    # cover every node on both sides so all hubs participate
                    lm = community_members(ml, li)
                    rm = community_members(mr, ri)
                    for i in range(max(len(lm), len(rm))):
                        links.add((lm[i % len(lm)], rm[i % len(rm)]))
        if not links:
            links.add((0, 1000))
        mln = MLN().add_layer(gl).add_layer(gr)
        mln.add_interlayer(InterLayerEdges.build("A", "D", links))
        mln.freeze()
        sl, sr = summarize(gl, ml), summarize(gr, mr)
        buckets = crossing_pairs(mln, "A", "D", ml, mr)
        cd = build_cbg("A", "D", buckets, sorted(sl), sorted(sr), sl, sr, "d")
        ch = build_cbg("A", "D", buckets, sorted(sl), sorted(sr), sl, sr, "h")
        assert {(e.left, e.right) for e in cd.edges} == \
            {(e.left, e.right) for e in ch.edges}
        hw = {(e.left, e.right): e.weight for e in ch.edges}
        for e in cd.edges:
            assert e.weight == hw[(e.left, e.right)]
        assert max_flow_match(cd).pairs == max_flow_match(ch).pairs


@criterion("criterion 04 arity-law")
def test_04_arity_law():
    rng = random.Random(4)
    saw_cyclic_3 = False
    for _ in range(100):
        mln, memberships, summaries, spec, cyclic = random_mln_and_spec(rng)
        result = detect_k_community(mln, memberships, summaries, spec)
        for t in result.tuples:
            assert len(t.communities) == spec.k
            assert len(t.x_slots) == (spec.k - 1) + spec.cycle_steps
        if cyclic and spec.k == 3:
            saw_cyclic_3 = True
            for t in result.tuples:
                assert len(t.x_slots) == 3
    assert saw_cyclic_3


@criterion("criterion 05 base-case-bound")
def test_05_base_case_bound():
    rng = random.Random(5)
    for _ in range(100):
        mln, memberships, summaries, spec, _ = random_mln_and_spec(rng)
        result = detect_k_community(mln, memberships, summaries, spec)
        base = result.diagnostics[0]
        assert len(result.tuples) <= min(base.u_left_size, base.u_right_size)
        for d in result.diagnostics[1:]:
            assert d.mp_size <= len(result.tuples)


@criterion("criterion 06 running-example-fixture")
def test_06_running_example(three_layer_mln):
    mln, memberships, summaries = three_layer_mln

    def run(text):
        spec = validate_spec(parse_spec(text), mln)
        return detect_k_community(mln, memberships, summaries, spec)

    acyclic = run("G1 #(G1,G2) G2 #(G2,G3) G3")
    assert format_tuples(acyclic) == (
        "< c_G1^1, c_G2^3, 0 ; x_{G1,G2}, phi >\n"
        "< c_G1^2, c_G2^1, c_G3^2 ; x_{G1,G2}, x_{G2,G3} >\n"
        "< c_G1^3, c_G2^5, 0 ; x_{G1,G2}, phi >\n")
    cyclic = run("G1 #(G1,G2) G2 #(G2,G3) G3 #(G3,G1) G1")
    total, partial = classify(cyclic)
    assert len(total) == 1 and len(partial) == 2
    assert total[0].communities == (2, 1, 2)
    assert total[0].x_slots[2] == {(33, 3)}  # the closing cycle pairs


@criterion("criterion 07 metric-domains")
def test_07_metric_domains():
    rng = random.Random(7)
    for _ in range(50):
        sizes = lambda: [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        ls, rs = sizes(), sizes()
        links = {(rng.randrange(0, sum(ls)), 1000 + rng.randrange(0, sum(rs)))
                 for _ in range(rng.randint(2, 15))}
        cbg = clique_instance(rng, ls, rs, links)
        ce = cbg("e")
        assert all(0.0 < e.weight <= 1.0 for e in ce.edges)
        assert max(e.weight for e in ce.edges) == 1.0
        cd = cbg("d")
        assert all(0.0 < e.weight <= 1.0 for e in cd.edges)
        ch = cbg("h")
        assert all(0.0 < e.weight <= 1.0 for e in ch.edges)
        assert all(e.weight == 0.0 for e in ch.dropped)


@criterion("criterion 08 non-associativity-witness")
def test_08_non_associativity(three_layer_mln):
    mln, memberships, summaries = three_layer_mln

    def canonical(text):
        spec = validate_spec(parse_spec(text), mln)
        result = detect_k_community(mln, memberships, summaries, spec)
        return {frozenset(zip(t.layers, t.communities)) for t in result.tuples}

    assert canonical("G1 #(G1,G2) G2 #(G2,G3) G3") != \
        canonical("G3 #(G3,G2) G2 #(G2,G1) G1")


@criterion("criterion 09 cost-structure")
def test_09_cost_structure():
    rng = random.Random(9)
    groups, group_size = 100, 200
    layers = []
    for i, lid in enumerate(("L0", "L1", "L2")):
        offset = (i + 1) * 100_000
        edges = set()
        for g in range(groups):
            base = offset + g * group_size
            members = range(base, base + group_size)
            for n in members:  # ring keeps every planted group connected
                edges.add((n, base + (n - base + 1) % group_size))
            for _ in range(2 * group_size):
                u, v = rng.sample(members, 2)
                edges.add((u, v))
        nodes = range(offset, offset + groups * group_size)
        layers.append(LayerGraph.build(lid, nodes, edges))
    mln = MLN()
    for g in layers:
        mln.add_layer(g)
    for a, b in (("L0", "L1"), ("L1", "L2")):
        ga, gb = mln.layer(a), mln.layer(b)
        links = {(rng.randrange(min(ga.nodes), max(ga.nodes) + 1),
                  rng.randrange(min(gb.nodes), max(gb.nodes) + 1))
                 for _ in range(1500)}
        mln.add_interlayer(InterLayerEdges.build(a, b, links))
    mln.freeze()

    start = time.perf_counter()
    memberships = {g.id: detect_communities(g, seed=1) for g in layers}
    detection_seconds = time.perf_counter() - start

    summaries = {g.id: summarize(g, memberships[g.id]) for g in layers}
    spec = validate_spec(parse_spec("L0 #(L0,L1) L1 #(L1,L2) L2"), mln)
    start = time.perf_counter()
    result = detect_k_community(mln, memberships, summaries, spec)
    composition_seconds = time.perf_counter() - start

    assert result.tuples
    assert composition_seconds < 0.25 * detection_seconds, (
        f"composition {composition_seconds:.2f}s vs "
        f"detection {detection_seconds:.2f}s")
    assert detection_seconds + composition_seconds < 60.0


@criterion("criterion 10 determinism")
def test_10_determinism(tmp_path):
    rng = random.Random(10)
    mln = MLN()
    pools = {}
    for i, lid in enumerate(("G1", "G2", "G3")):
        offset = (i + 1) * 100
        nodes = list(range(offset, offset + 30))
        edges = [(u, v) for j, u in enumerate(nodes) for v in nodes[j + 1:]
                 if rng.random() < 0.2]
        mln.add_layer(LayerGraph.build(lid, nodes, edges))
        pools[lid] = nodes
    for a, b in (("G1", "G2"), ("G2", "G3")):
        links = {(rng.choice(pools[a]), rng.choice(pools[b])) for _ in range(15)}
        mln.add_interlayer(InterLayerEdges.build(a, b, links))
    mln_dir = tmp_path / "mln"
    save_mln(mln.freeze(), mln_dir)

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["kcommunity", "--mln", str(mln_dir), "--seed", "42",
                         "--spec", "G1 #(G1,G2) G2 #(G2,G3) G3",
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["diagnostics.tsv", "membership_G1.tsv", "membership_G2.tsv",
                     "membership_G3.tsv", "result.jsonl", "result.txt"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@criterion("criterion 11 imdb-ingestion-hand-counts")
def test_11_imdb_ingestion():
    # 30 record rows: 8 movies + 8 people + 9 acting credits + 5 directing
    records = ImdbRecords()
    records.movies = {
        "m1": Movie("Alpha", ("Drama", "Crime"), 7.9),
        "m2": Movie("Beta", ("Drama",), 8.0),
        "m3": Movie("Gamma", ("Comedy",), 8.4),
        "m4": Movie("Delta", ("Comedy", "Romance"), 6.0),
        "m5": Movie("Epsilon", ("Horror",), 1.9),
        "m6": Movie("Zeta", ("Horror", "Thriller", "Romance"), 2.0),
        "m7": Movie("Eta", ("Drama",), None),
        "m8": Movie("Theta", ("Action",), 7.0),
    }
    records.people = {f"p{i}": f"Person {i}" for i in range(1, 9)}
    records.acts_in = {("p1", "m1"), ("p2", "m1"), ("p3", "m1"), ("p1", "m2"),
                       ("p4", "m3"), ("p5", "m4"), ("p4", "m5"), ("p2", "m6"),
                       ("p5", "m8")}
    records.directs = {("p6", "m1"), ("p6", "m2"), ("p7", "m3"), ("p7", "m4"),
                       ("p8", "m6")}
    mln, ids = ingest_imdb(records)

    a, d, m = mln.layer("A"), mln.layer("D"), mln.layer("M")
    # actors: p1..p5; the only shared cast is m1 -> triangle p1-p2-p3
    assert len(a.nodes) == 5 and len(a.edges) == 3
    # directors: p6 {Drama,Crime}, p7 {Comedy,Romance}, p8 {Horror,Thriller,
    # Romance}; only p7-p8 overlap (Romance, 1/min(2,3) = 0.5) makes an edge
    assert len(d.nodes) == 3 and len(d.edges) == 1
    assert tuple(sorted((ids["D:p7"], ids["D:p8"]))) in d.edges
    # rating classes: m1 7.9 -> [6,8); m2 8.0 and m3 8.4 -> [8,10];
    # m4 6.0, m8 7.0 join m1; m5 1.9 alone in [0,2); m6 2.0 alone in [2,4);
    # m7 unrated stays isolated
    assert len(m.nodes) == 8 and len(m.edges) == 4
    assert tuple(sorted((ids["M:m1"], ids["M:m2"]))) not in m.edges
    assert tuple(sorted((ids["M:m2"], ids["M:m3"]))) in m.edges
    # links: p6 directed casts {p1,p2,p3} and {p1}; p7 -> {p4},{p5}; p8 -> {p2}
    assert len(mln.interlayer_links("A", "D")) == 6
    assert len(mln.interlayer_links("D", "M")) == 5
    assert len(mln.interlayer_links("A", "M")) == 9
