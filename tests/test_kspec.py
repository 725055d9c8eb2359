import pytest

from hemln import (
    MLN,
    Composition,
    InterLayerEdges,
    KSpec,
    LayerGraph,
    parse_spec,
    validate_spec,
)
from hemln.errors import (
    DisconnectedSpec,
    EmptySpec,
    NoInterLayerEdges,
    NonSerialSpec,
    SpecSyntaxError,
    SubscriptMismatch,
    UnknownLayer,
)


def test_two_layer_spec():
    spec = parse_spec("A #(A,D) D")
    assert spec.first_layer == "A"
    assert spec.steps == (Composition("A", "D"),)
    assert len(spec.layers) == 2
    assert spec.cases.count("ii") == 0


def test_cyclic_three_layer_spec():
    spec = parse_spec("M #(M,A) A #(A,D) D #(D,M) M")
    assert len(spec.layers) == 3
    assert spec.cases.count("ii") == 1
    assert spec.cases == ("i", "i", "ii")


def test_subscript_mismatch():
    with pytest.raises(SubscriptMismatch):
        parse_spec("A #(A,X) D")
    with pytest.raises(SubscriptMismatch):
        parse_spec("A #(A,A) A")
    # the left subscript is checked by validate_spec, which a hand-built
    # spec passes through too: G2 joins G3, but is not visited before it
    with pytest.raises(SubscriptMismatch, match="^left subscript G2 of #\\(G2,G3\\) "):
        validate_spec(parse_spec("G1 #(G2,G3) G3"), path_mln())


def test_branching_from_visited_layer():
    # left subscript may be any already-visited layer, not just the
    # immediately preceding one
    spec = parse_spec("G2 #(G2,G3) G3 #(G2,G1) G1")
    assert spec.steps[1] == Composition("G2", "G1")
    assert spec.cases == ("i", "i")


def test_metric_suffix():
    spec = parse_spec("A #(A,D):d D #(D,M):h M")
    assert spec.steps[0].metric == "d"
    assert spec.steps[1].metric == "h"
    assert parse_spec("A #(A,D) D").steps[0].metric is None


def test_empty_and_truncated_specs():
    with pytest.raises(EmptySpec):
        parse_spec("   ")
    with pytest.raises(SpecSyntaxError):
        parse_spec("A")
    with pytest.raises(SpecSyntaxError):
        parse_spec("A #(A,D)")
    with pytest.raises(SpecSyntaxError):
        parse_spec("A D")


def test_non_serial_rejected():
    with pytest.raises(NonSerialSpec):
        parse_spec("( A #(A,D) D ) #(D,M) M")


def test_missing_space_before_an_operator_is_a_syntax_error():
    """A '(' inside '#(' is no precedence parenthesis, wherever it stands."""
    with pytest.raises(SpecSyntaxError,
                       match=r"^at token 0: expected a layer name, got 'A#\(A,D\)'$"):
        parse_spec("A#(A,D) D")


def test_k_increments_only_on_new_layers():
    spec = parse_spec("A #(A,D) D #(D,M) M #(M,A) A #(A,D) D")
    assert len(spec.steps) == 4
    assert len(spec.layers) == 3
    assert spec.cases.count("ii") == 2


def path_mln():
    mln = MLN()
    mln.add_layer(LayerGraph.build("G1", [1], []))
    mln.add_layer(LayerGraph.build("G2", [2], []))
    mln.add_layer(LayerGraph.build("G3", [3], []))
    mln.add_interlayer(InterLayerEdges.build("G1", "G2", [(1, 2)]))
    mln.add_interlayer(InterLayerEdges.build("G2", "G3", [(2, 3)]))
    return mln


def test_validate_path_spec():
    spec = parse_spec("G1 #(G1,G2) G2 #(G2,G3) G3")
    assert validate_spec(spec, path_mln()) is spec
    assert spec.cases == ("i", "i")


def test_validate_missing_interlayer():
    spec = parse_spec("G1 #(G1,G2) G2 #(G2,G3) G3 #(G3,G1) G1")
    with pytest.raises(NoInterLayerEdges, match="between G3 and G1"):
        validate_spec(spec, path_mln())


def test_validate_unknown_layer():
    spec = parse_spec("G1 #(G1,G9) G9")
    with pytest.raises(UnknownLayer):
        validate_spec(spec, path_mln())


def test_validate_spec_without_steps():
    # parse_spec never builds one: a hand-built spec of one layer
    with pytest.raises(DisconnectedSpec):
        validate_spec(KSpec("G1", ()), path_mln())


def test_different_orders_are_distinct_values():
    assert parse_spec("G1 #(G1,G2) G2 #(G2,G3) G3") != \
        parse_spec("G3 #(G3,G2) G2 #(G2,G1) G1")
