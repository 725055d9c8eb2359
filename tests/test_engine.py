import pytest

from hemln import (
    classify,
    detect_k_community,
    diagnostics_tsv,
    parse_spec,
    rank,
    to_jsonl,
    format_tuples,
    validate_spec,
)
from hemln.engine import KTuple, from_jsonl
from hemln.errors import InvariantViolation, ParseError, UnknownKey


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


def test_hand_built_spec_equals_parsed(three_layer_mln):
    # layers and cases come from the steps, so a spec built by hand runs
    # every step, as the parsed one does
    from hemln.kspec import KSpec
    mln, memberships, summaries = three_layer_mln
    for text in (ACYCLIC, CYCLIC, REVERSED):
        parsed = parse_spec(text)
        by_hand = KSpec(parsed.first_layer, parsed.steps)
        assert by_hand == parsed
        assert (detect_k_community(mln, memberships, summaries, by_hand).tuples
                == run(three_layer_mln, text).tuples)


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
    from hemln.kspec import KSpec
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
    from hemln.kspec import Composition, KSpec

    sizes = {"A": {1: 5, 2: 4}, "B": {1: 4, 2: 4}, "C": {1: 3, 2: 4}}
    steps = (Composition("A", "B"), Composition("B", "C"))
    spec = KSpec("A", steps)
    result = KCommunityResult(spec, (t1, t2), ())
    ordered = rank(result.tuples, sizes, "min_size")
    assert ordered[0] is t2 and ordered[1] is t1


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
    import json
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


def test_unknown_metric_is_a_hemln_error(three_layer_mln):
    from hemln.kspec import Composition, KSpec
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
