import json
from itertools import combinations, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hemln import (
    MLN,
    CommunityBipartiteGraph,
    CommunityId,
    InterLayerEdges,
    LayerGraph,
    Membership,
    build_cbg,
    cbg_to_tsv,
    classify,
    crossing_pairs,
    detect_k_community,
    diagnostics_tsv,
    parse_spec,
    rank,
    select_u,
    summarize,
    to_jsonl,
    format_tuples,
    validate_spec,
)
from hemln.cbg import METRICS
from hemln.engine import KTuple, from_jsonl
from hemln.errors import (DisconnectedSpec, InvariantViolation, ParseError, SubscriptMismatch,
                          UnknownKey)
from hemln.kspec import Composition, KSpec


def run(mln_fixture, text, metric="e"):
    mln, memberships, summaries = mln_fixture
    spec = validate_spec(parse_spec(text), mln)
    return detect_k_community(mln, memberships, summaries, spec, metric)


ACYCLIC = "G1 #(G1,G2) G2 #(G2,G3) G3"
CYCLIC = "G1 #(G1,G2) G2 #(G2,G3) G3 #(G3,G1) G1"
REVERSED = "G3 #(G3,G2) G2 #(G2,G1) G1"


def test_acyclic_running_example(three_layer_mln):
    result = run(three_layer_mln, ACYCLIC)
    assert format_tuples(result) == (
        "< c_G1^1, c_G2^3, 0 ; x_{G1,G2}, phi >\n"
        "< c_G1^2, c_G2^1, c_G3^2 ; x_{G1,G2}, x_{G2,G3} >\n"
        "< c_G1^3, c_G2^5, 0 ; x_{G1,G2}, phi >\n")
    total, partial = classify(result)
    assert len(total) == 1 and len(partial) == 2
    assert total[0].communities == (2, 1, 2)


def test_cyclic_running_example(three_layer_mln):
    result = run(three_layer_mln, CYCLIC)
    total, partial = classify(result)
    assert len(total) == 1 and len(partial) == 2
    assert len(total[0].x_slots) == 3  # k=3 plus one cycle edge
    # the cycle step contributed the closing expanded edge set
    assert total[0].x_slots[2] == {(33, 3)}
    for t in partial:
        assert t.x_slots[1] is None and t.x_slots[2] is None


def test_cycle_step_leaves_an_inconsistent_match_empty():
    # three 4-node layers of two 2-node communities; A-B and B-C link
    # community 1 to 1 and 2 to 2, but the closing C-A links cross, so the
    # cycle step matches each tuple's C community to the other tuple's A one
    from hemln import MLN, InterLayerEdges, LayerGraph, load_membership, summarize
    mln = MLN()
    for lid, base in (("A", 0), ("B", 10), ("C", 20)):
        mln.add_layer(LayerGraph.build(lid, range(base, base + 4),
                                       [(base, base + 1), (base + 2, base + 3)]))
    for left, right, links in (("A", "B", [(0, 10), (2, 12)]),
                               ("B", "C", [(10, 20), (12, 22)]),
                               ("C", "A", [(20, 2), (22, 0)])):  # C1-A2, C2-A1
        mln.add_interlayer(InterLayerEdges.build(left, right, links))
    mln.freeze()
    # a layer's nodes at offsets 0 and 1 form community 1, at 2 and 3 community 2
    memberships = {lid: load_membership(g, [(n, 1 + n % 10 // 2)
                                            for n in sorted(g.nodes)])
                   for lid, g in mln.layers.items()}
    summaries = {lid: summarize(mln.layer(lid), m) for lid, m in memberships.items()}
    result = run((mln, memberships, summaries), "A #(A,B) B #(B,C) C #(C,A) A")
    assert result.diagnostics[2].mp_size == 2  # both C communities matched
    assert format_tuples(result) == (
        "< c_A^1, c_B^1, c_C^1 ; x_{A,B}, x_{B,C}, phi >\n"
        "< c_A^2, c_B^2, c_C^2 ; x_{A,B}, x_{B,C}, phi >\n")


def test_hand_built_spec_equals_parsed(three_layer_mln):
    # layers and cases come from the steps, so a spec built by hand runs
    # every step, as the parsed one does
    mln, memberships, summaries = three_layer_mln
    for text in (ACYCLIC, CYCLIC, REVERSED):
        parsed = parse_spec(text)
        by_hand = KSpec(parsed.first_layer, parsed.steps)
        assert by_hand == parsed
        assert (detect_k_community(mln, memberships, summaries, by_hand).tuples
                == run(three_layer_mln, text).tuples)


@pytest.mark.parametrize("spec, error", [
    (KSpec("G3", (Composition("G1", "G2"),)), SubscriptMismatch),
    (KSpec("G2", (Composition("G1", "G2"),)), SubscriptMismatch),
    (KSpec("G1", ()), DisconnectedSpec),
], ids=["left-not-visited", "left-after-its-right", "no-steps"])
def test_hand_built_spec_is_validated(three_layer_mln, spec, error):
    # each has a membership for every layer it names, and the first two a
    # stored pair; running them would give tuples over layers the spec does
    # not name, or a base step taken as a cycle step, or no tuple at all
    mln, memberships, summaries = three_layer_mln
    with pytest.raises(error):
        detect_k_community(mln, memberships, summaries, spec)


def test_arity_law(three_layer_mln):
    for text in (ACYCLIC, CYCLIC, REVERSED):
        mln, memberships, summaries = three_layer_mln
        spec = validate_spec(parse_spec(text), mln)
        result = detect_k_community(mln, memberships, summaries, spec)
        for t in result.tuples:
            assert len(t.communities) == len(spec.layers)
            assert len(t.x_slots) == (len(spec.layers) - 1) + spec.cases.count("ii")


def test_non_associativity_witness(three_layer_mln):
    forward = run(three_layer_mln, ACYCLIC)
    backward = run(three_layer_mln, REVERSED)

    def canonical(result):
        return {
            frozenset((l, c) for l, c in zip(t.layers, t.communities))
            for t in result.tuples}

    assert canonical(forward) != canonical(backward)


def test_base_case_bound(three_layer_mln):
    result = run(three_layer_mln, ACYCLIC)
    base = result.diagnostics[0]
    assert len(result.tuples) <= min(base.u_left_size, base.u_right_size)
    for d in result.diagnostics[1:]:
        assert d.mp_size <= len(result.tuples)


def test_empty_base_case(three_layer_mln):
    # restrict to a pair with no surviving links by using layers G3,G1 first:
    # only c3^2-c1^2 is linked, so the base case has exactly one pair; a
    # genuinely empty base needs an empty CBG -- simulate via G1,G3 link
    # removal is impossible on the frozen fixture, so check the 1-pair case
    result = run(three_layer_mln, "G3 #(G3,G1) G1")
    assert len(result.tuples) == 1


def test_commutativity_of_base_case(three_layer_mln):
    fwd = run(three_layer_mln, "G1 #(G1,G2) G2")
    rev = run(three_layer_mln, "G2 #(G2,G1) G1")
    fwd_pairs = {(t.communities[0], t.communities[1]) for t in fwd.tuples}
    rev_pairs = {(t.communities[1], t.communities[0]) for t in rev.tuples}
    assert fwd_pairs == rev_pairs


def test_slot_consistency(three_layer_mln):
    mln, memberships, _ = three_layer_mln
    result = run(three_layer_mln, CYCLIC)
    step_layers = [(s.left, s.right) for s in result.spec.steps]
    for t in result.tuples:
        for (left, right), x in zip(step_layers, t.x_slots):
            if x is None:
                continue
            cl = t.communities[t.layers.index(left)]
            cr = t.communities[t.layers.index(right)]
            assert cl != 0 and cr != 0
            for a, b in x:
                assert memberships[left].assignment[a] == cl
                assert memberships[right].assignment[b] == cr


def test_determinism(three_layer_mln):
    r1 = run(three_layer_mln, CYCLIC)
    r2 = run(three_layer_mln, CYCLIC)
    assert to_jsonl(r1) == to_jsonl(r2)
    assert format_tuples(r1) == format_tuples(r2)
    assert diagnostics_tsv(r1) == diagnostics_tsv(r2)


def test_classify_empty():
    from hemln.engine import KCommunityResult
    empty = KCommunityResult(KSpec("A", ()), (), ())
    assert classify(empty) == ((), ())


def rank_values(summaries, field):
    """The per-community numbers a rank key reads, from summaries."""
    return {lid: {c.index: getattr(s, field) for c, s in by_id.items()}
            for lid, by_id in summaries.items()}


def test_rank_total_before_partial(three_layer_mln):
    _, _, summaries = three_layer_mln
    result = run(three_layer_mln, ACYCLIC)
    for key, field in (("min_size", "node_count"), ("min_density", "density")):
        ordered = rank(result.tuples, rank_values(summaries, field), key)
        assert ordered[0].total
        assert not ordered[1].total and not ordered[2].total


def test_rank_min_size_values():
    # two complete tuples, sizes (5,4,3) vs (4,4,4): the latter first
    layers = ("A", "B", "C")
    t1 = KTuple(layers, (1, 1, 1), (frozenset({(0, 1)}), frozenset({(1, 2)})))
    t2 = KTuple(layers, (2, 2, 2), (frozenset({(3, 4)}), frozenset({(4, 5)})))
    from hemln.engine import KCommunityResult

    sizes = {"A": {1: 5, 2: 4}, "B": {1: 4, 2: 4}, "C": {1: 3, 2: 4}}
    steps = (Composition("A", "B"), Composition("B", "C"))
    spec = KSpec("A", steps)
    result = KCommunityResult(spec, (t1, t2), ())
    ordered = rank(result.tuples, sizes, "min_size")
    assert ordered[0] is t2 and ordered[1] is t1


def test_rank_sum_size_counts_a_zero_slot_as_0():
    # sum_size counts an empty slot as 0 and, unlike min_size, does not
    # rank complete tuples first
    layers = ("A", "B", "C")
    x = (frozenset({(0, 1)}), frozenset({(1, 2)}))
    t1 = KTuple(layers, (1, 1, 1), x)  # 5 + 4 + 3 = 12, min 3
    t2 = KTuple(layers, (2, 2, 0), (x[0], None))  # 9 + 9 + 0 = 18, partial
    t3 = KTuple(layers, (3, 3, 3), x)  # 1 + 1 + 8 = 10, min 1
    sizes = {"A": {1: 5, 2: 9, 3: 1}, "B": {1: 4, 2: 9, 3: 1}, "C": {1: 3, 3: 8}}
    assert rank([t3, t2, t1], sizes, "sum_size") == [t2, t1, t3]
    assert rank([t3, t2, t1], sizes, "min_size") == [t1, t3, t2]


def test_rank_sum_raw_pairs(three_layer_mln):
    result = run(three_layer_mln, ACYCLIC)
    ordered = rank(result.tuples, {}, "sum_raw_pairs")
    counts = [sum(len(x) for x in t.x_slots if x is not None) for t in ordered]
    assert counts == sorted(counts, reverse=True)


def test_rank_unknown_key(three_layer_mln):
    result = run(three_layer_mln, ACYCLIC)
    with pytest.raises(UnknownKey):
        rank(result.tuples, {}, "banana")


def test_jsonl_schema(three_layer_mln):
    result = run(three_layer_mln, ACYCLIC)
    records = [json.loads(line) for line in to_jsonl(result).splitlines()]
    assert len(records) == 3
    for rec in records:
        assert [s["layer"] for s in rec["slots"]] == ["G1", "G2", "G3"]
        assert len(rec["x"]) == 2
        assert isinstance(rec["total"], bool)
    totals = [rec for rec in records if rec["total"]]
    assert len(totals) == 1
    assert totals[0]["x"][0]["pairs"] == [[3, 10], [4, 11]]


def test_jsonl_round_trip(three_layer_mln):
    for text in (ACYCLIC, CYCLIC):
        result = run(three_layer_mln, text)
        assert from_jsonl(to_jsonl(result)) == list(result.tuples)
    with pytest.raises(ParseError, match="line 2"):
        from_jsonl("\n[]\n")
    with pytest.raises(ParseError, match="^line 1: malformed result record: "):
        from_jsonl("[" * 100000)  # json.loads raises a RecursionError


def test_unknown_metric_is_a_hemln_error(three_layer_mln):
    mln, memberships, summaries = three_layer_mln
    with pytest.raises(InvariantViolation):
        run(three_layer_mln, ACYCLIC, metric="x")
    by_hand = KSpec("G1", (Composition("G1", "G2", "x"),))
    with pytest.raises(InvariantViolation):
        detect_k_community(mln, memberships, summaries, by_hand)


def test_per_step_metric_override(three_layer_mln):
    # all fixture communities are cliques, so e and d give the same pairs;
    # the override path just has to run
    result = run(three_layer_mln, "G1 #(G1,G2):d G2 #(G2,G3):h G3")
    assert len(result.tuples) == 3


@pytest.mark.parametrize("missing", ["memberships", "summaries"])
def test_spec_layer_without_membership_or_summaries(three_layer_mln, missing):
    mln, memberships, summaries = three_layer_mln
    given = {"memberships": memberships, "summaries": summaries}
    given[missing] = {lid: v for lid, v in given[missing].items() if lid != "G3"}
    spec = validate_spec(parse_spec(ACYCLIC), mln)
    with pytest.raises(InvariantViolation,
                       match="^layer G3 has no membership or summaries$"):
        detect_k_community(mln, given["memberships"], given["summaries"], spec)


def test_rank_keeps_the_order_of_tuples_with_equal_slots():
    # hand-edited records may repeat a slot sequence; the sort is stable
    layers = ("A", "B")
    t1 = KTuple(layers, (1, 1), (frozenset({(5, 6)}),))
    t2 = KTuple(layers, (1, 1), (frozenset({(0, 1)}),))
    assert rank([t1, t2], {}, "sum_raw_pairs") == [t1, t2]
    assert rank([t2, t1], {}, "sum_raw_pairs") == [t2, t1]


@st.composite
def composition_cases(draw):
    """(MLN, memberships, spec): 2-4 layers of 1-3 communities of 1-3 nodes
    (indices drawn from 1-4), every layer pair stored in a drawn orientation
    with a drawn subset of its links, and a serial spec over every layer
    whose steps may branch from any visited layer, with cycle steps between
    visited layers and a metric (or the default) per step."""
    names = [f"L{i}" for i in range(draw(st.integers(2, 4)))]
    mln, memberships = MLN(), {}
    for i, lid in enumerate(names):
        ids = draw(st.permutations(range(1, 5)))[:draw(st.integers(1, 3))]  # gaps too
        of = [c for c in ids for _ in range(draw(st.integers(1, 3)))]
        nodes = range(100 * i, 100 * i + len(of))
        pairs = list(combinations(nodes, 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        mln.add_layer(LayerGraph.build(lid, nodes, edges))
        memberships[lid] = Membership(lid, dict(zip(nodes, of)))
    for a, b in combinations(names, 2):
        if draw(st.booleans()):
            a, b = b, a
        cells = [(u, v) for u in sorted(mln.layer(a).nodes) for v in sorted(mln.layer(b).nodes)]
        keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        mln.add_interlayer(InterLayerEdges.build(a, b, compress(cells, keep)))
    order = draw(st.permutations(names))
    metric = st.sampled_from((None,) + METRICS)
    steps, visited = [], [order[0]]
    for right in order[1:]:
        steps.append(Composition(draw(st.sampled_from(visited)), right, draw(metric)))
        visited.append(right)
        for _ in range(draw(st.integers(0, 2))):
            left, back = draw(st.permutations(visited))[:2]
            steps.append(Composition(left, back, draw(metric)))
    return mln.freeze(), memberships, KSpec(order[0], tuple(steps))


@settings(max_examples=300, deadline=None)
@given(composition_cases(), st.sampled_from(METRICS))
def test_equals_reference_composition(case, default_metric):
    # the engine against the composition written from the definition, on
    # cycles, branches, empty and inconsistent matches and every metric
    mln, memberships, spec = case
    summaries = {lid: summarize(mln.layer(lid), m) for lid, m in memberships.items()}
    spec = validate_spec(spec, mln)
    fast = detect_k_community(mln, memberships, summaries, spec, default_metric)
    slow = oracle.reference_k_community(mln, memberships, summaries, spec, default_metric)
    assert to_jsonl(fast) == to_jsonl(slow)
    assert diagnostics_tsv(fast) == diagnostics_tsv(slow)
    # the invariants perfbench/check.py reads off a job's files, on the same draws
    for lid in spec.layers:  # no community sits in two tuples
        used = [t.slot(lid) for t in fast.tuples if t.slot(lid)]
        assert len(used) == len(set(used)), lid
    for t in fast.tuples:  # an x slot is the links between its tuple's communities
        for step, x in zip(spec.steps, t.x_slots):
            stored = mln.stored_interlayer(step.left, step.right)
            links = (stored.links if stored.from_layer == step.left
                     else {(b, a) for a, b in stored.links})
            of_left, of_right = (memberships[lid].assignment for lid in (step.left, step.right))
            assert x is None or x == {(a, b) for a, b in links if (of_left[a], of_right[b])
                                      == (t.slot(step.left), t.slot(step.right))}, step
    for record in map(json.loads, to_jsonl(fast).splitlines()):
        assert record["total"] == (None not in record["x"])


def test_select_u_offers_on_the_base_new_layer_and_cycle_steps(three_layer_mln):
    mln, memberships, _ = three_layer_mln
    tuples = list(run(three_layer_mln, "G1 #(G1,G2) G2").tuples)
    for step, case, done in ((Composition("G1", "G2"), "i", None),
                             (Composition("G2", "G3"), "i", tuples),
                             (Composition("G2", "G1"), "ii", tuples)):
        buckets = crossing_pairs(mln, step.left, step.right,
                                 memberships[step.left], memberships[step.right])
        offer = select_u(step, case, done, buckets)
        assert all(offer), step
    assert offer == ([CommunityId("G2", i) for i in (1, 3, 5)],
                     [CommunityId("G1", i) for i in (1, 2, 3)])


def _underived(self):
    raise AssertionError("meta edges derived in a composition step")


@pytest.mark.parametrize("metric", METRICS)
def test_no_step_derives_meta_edges(dense_mln, metric, monkeypatch):
    # a step reads the matcher's rows and the buckets by community index;
    # MetaEdges are a view that no step reads, and its count is the rows'
    mln, members = dense_mln
    summaries = {lid: summarize(mln.layer(lid), m) for lid, m in members.items()}
    spec = validate_spec(parse_spec("L #(L,R) R #(R,S) S #(S,L) L"), mln)
    usual = detect_k_community(mln, members, summaries, spec, metric)
    with monkeypatch.context() as patched:
        for name in ("edges", "dropped"):
            patched.setattr(CommunityBipartiteGraph, name, property(_underived))
        guarded = detect_k_community(mln, members, summaries, spec, metric)
    assert guarded == usual and len(usual.tuples) >= 246
    # hemln cbg prints the derived view of the base step's CBG: one line per
    # meta edge the step counted, the dropped ones apart
    buckets = crossing_pairs(mln, "L", "R", members["L"], members["R"])
    cbg = build_cbg("L", "R", buckets, sorted(summaries["L"]), sorted(summaries["R"]),
                    summaries["L"], summaries["R"], metric)
    assert cbg_to_tsv(cbg).count("\n") == len(cbg.edges) == usual.diagnostics[0].cbg_edge_count
    assert len(cbg.edges) + len(cbg.dropped) == len(buckets) == 5000
