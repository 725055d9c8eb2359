import pytest

from hemln import MLN, InterLayerEdges, LayerGraph, detect_communities
from hemln.errors import ParseError
from hemln.fileio import (
    load_config,
    load_interlayer,
    load_layer,
    load_membership_tsv,
    load_mln,
    save_membership_tsv,
    save_mln,
)


def test_layer_file_minimal(tmp_path):
    path = tmp_path / "layer_A.tsv"
    path.write_text("layer\tA\n1\n2\nedge\t1\t2\n")
    g = load_layer(path)
    assert g.id == "A" and len(g.nodes) == 2 and len(g.edges) == 1


def test_layer_file_duplicate_edge_deduplicated(tmp_path):
    path = tmp_path / "layer_A.tsv"
    path.write_text("layer\tA\n1\n2\nedge\t1\t2\nedge\t2\t1\n")
    g = load_layer(path)
    assert len(g.edges) == 1


def test_layer_file_undeclared_node(tmp_path):
    path = tmp_path / "layer_A.tsv"
    path.write_text("layer\tA\n1\nedge\t1\t9\n")
    with pytest.raises(ParseError):
        load_layer(path)


def test_layer_file_comments_and_bad_header(tmp_path):
    path = tmp_path / "layer_A.tsv"
    path.write_text("; a comment\nlayer\tA\n1\n")
    assert load_layer(path).nodes == {1}
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\n2\n")
    with pytest.raises(ParseError):
        load_layer(bad)


def test_interlayer_file(tmp_path):
    path = tmp_path / "inter_A_D.tsv"
    path.write_text("interlayer\tA\tD\n1\t10\n")
    x = load_interlayer(path)
    assert x.from_layer == "A" and x.links == {(1, 10)}


def sample_mln():
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", [1, 2, 3], [(1, 2), (2, 3)]))
    mln.add_layer(LayerGraph.build("D", [10, 11], [(10, 11)]))
    mln.add_interlayer(InterLayerEdges.build("A", "D", [(1, 10), (3, 11)]))
    return mln.freeze()


def test_mln_roundtrip_byte_identical(tmp_path):
    mln = sample_mln()
    d1, d2 = tmp_path / "one", tmp_path / "two"
    save_mln(mln, d1)
    loaded = load_mln(d1)
    assert loaded == mln
    save_mln(loaded, d2)
    for f1 in sorted(d1.iterdir()):
        assert f1.read_bytes() == (d2 / f1.name).read_bytes()


def test_membership_roundtrip(tmp_path):
    g = LayerGraph.build("A", range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    m = detect_communities(g, 9)
    path = tmp_path / "membership_A.tsv"
    save_membership_tsv(m, path)
    assert load_membership_tsv(g, path).assignment == m.assignment


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="load_membership numbers communities by first "
                          "appearance, not by size as detection does")
def test_detected_membership_survives_save_load(tmp_path):
    # node 0 lies in the smaller community, which detection numbers 2
    g = LayerGraph.build("A", range(8), [(0, 1), (1, 2), (0, 2)]
                         + [(u, v) for u in range(3, 8) for v in range(u + 1, 8)])
    m = detect_communities(g, 0)
    assert m.assignment[0] == 2
    path = tmp_path / "membership_A.tsv"
    save_membership_tsv(m, path)
    assert load_membership_tsv(g, path) == m


def test_config_parse(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("; defaults\nmetric = d\nseed=17\nhub_quantile=0.9\n")
    values = load_config(path)
    assert values == {"metric": "d", "seed": "17", "hub_quantile": "0.9"}
