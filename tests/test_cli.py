import gc
import hashlib
import json

import pytest

from hemln import (
    MLN,
    InterLayerEdges,
    LayerGraph,
    detect_communities,
    detect_k_community,
    parse_spec,
    rank,
    summarize,
    validate_spec,
)
from hemln import cli
from hemln.cli import main
from hemln.fileio import load_mln, save_layer, save_membership_tsv, save_mln


def triangle(a, b, c):
    return [(a, b), (b, c), (a, c)]


@pytest.fixture
def mln_dir(tmp_path):
    mln = MLN()
    mln.add_layer(LayerGraph.build(
        "G1", range(6), triangle(0, 1, 2) + triangle(3, 4, 5)))
    mln.add_layer(LayerGraph.build(
        "G2", range(10, 16), triangle(10, 11, 12) + triangle(13, 14, 15)))
    mln.add_interlayer(InterLayerEdges.build(
        "G1", "G2", [(0, 10), (1, 11), (3, 13)]))
    out = tmp_path / "mln"
    save_mln(mln.freeze(), out)
    return out


def test_detect_writes_membership(tmp_path):
    layer = tmp_path / "layer_A.tsv"
    g = LayerGraph.build("A", range(6), triangle(0, 1, 2) + triangle(3, 4, 5))
    save_layer(g, layer)
    out = tmp_path / "membership_A.tsv"
    assert main(["detect", "--layer", str(layer), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 6
    comm = {int(n): int(c) for n, c in rows}
    assert comm[0] == comm[1] == comm[2]
    assert comm[3] == comm[4] == comm[5]
    assert comm[0] != comm[3]


def test_kcommunity_end_to_end(mln_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["kcommunity", "--mln", str(mln_dir),
                 "--spec", "G1 #(G1,G2) G2", "--out", str(out)])
    assert code == 0
    assert (out / "membership_G1.tsv").exists()
    assert (out / "membership_G2.tsv").exists()
    text = (out / "result.txt").read_text()
    assert text.count("<") == 2  # two matched community pairs
    records = [json.loads(l) for l in (out / "result.jsonl").read_text().splitlines()]
    assert all(rec["total"] for rec in records)
    diag = (out / "diagnostics.tsv").read_text().splitlines()
    assert diag[0].startswith("step\t")
    assert len(diag) == 2  # header + single base step


def test_kcommunity_determinism(mln_dir, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        main(["kcommunity", "--mln", str(mln_dir), "--seed", "7",
              "--spec", "G1 #(G1,G2) G2", "--out", str(out)])
        outs.append(out)
    for fname in ("membership_G1.tsv", "membership_G2.tsv",
                  "result.txt", "result.jsonl", "diagnostics.tsv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_kcommunity_spec_file_multiple(mln_dir, tmp_path):
    specs = tmp_path / "specs.txt"
    specs.write_text("G1 #(G1,G2) G2\nG2 #(G2,G1) G1\n")
    out = tmp_path / "multi"
    code = main(["kcommunity", "--mln", str(mln_dir),
                 "--spec-file", str(specs), "--out", str(out)])
    assert code == 0
    for i in (0, 1):
        assert (out / f"result_{i}.txt").exists()
        assert (out / f"diagnostics_{i}.tsv").exists()


def test_cbg_prints_tsv(mln_dir, capsys):
    assert main(["cbg", "--mln", str(mln_dir), "--pair", "G1,G2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    counts = sorted(int(l.split("\t")[2]) for l in lines)
    assert counts == [1, 2]


def test_rank_sum_raw_pairs(mln_dir, tmp_path, capsys):
    out = tmp_path / "run"
    main(["kcommunity", "--mln", str(mln_dir),
          "--spec", "G1 #(G1,G2) G2", "--out", str(out)])
    code = main(["rank", "--result", str(out / "result.jsonl"),
                 "--key", "sum_raw_pairs"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(l.startswith("< c_G1^") for l in lines)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kcommunity"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_data_errors_exit_2(mln_dir, tmp_path, capsys):
    code = main(["kcommunity", "--mln", str(mln_dir),
                 "--spec", "G1 #(G1,G9) G9", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "hemln:" in capsys.readouterr().err
    code = main(["kcommunity", "--mln", str(tmp_path / "missing"),
                 "--spec", "G1 #(G1,G2) G2", "--out", str(tmp_path / "y")])
    assert code == 2


def test_env_seed_overrides_flag(mln_dir, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("MLN_SEED", "3")
    main(["kcommunity", "--mln", str(mln_dir), "--seed", "99",
          "--spec", "G1 #(G1,G2) G2", "--out", str(out1)])
    monkeypatch.delenv("MLN_SEED")
    main(["kcommunity", "--mln", str(mln_dir), "--seed", "3",
          "--spec", "G1 #(G1,G2) G2", "--out", str(out2)])
    assert (out1 / "membership_G1.tsv").read_bytes() == \
        (out2 / "membership_G1.tsv").read_bytes()


def test_config_file_defaults(mln_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spec = G1 #(G1,G2) G2\nmetric = d\nseed = 5\n")
    out = tmp_path / "cfg-run"
    code = main(["kcommunity", "--mln", str(mln_dir),
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "result.txt").read_text().count("<") == 2


def test_ingest_imdb_command(tmp_path):
    (tmp_path / "movies.tsv").write_text(
        "tconst\tprimaryTitle\tgenres\taverageRating\n"
        "t1\tOne\tDrama\t7.9\nt2\tTwo\tDrama\t8.0\n")
    (tmp_path / "people.tsv").write_text(
        "nconst\tprimaryName\np1\tAnn\np2\tBob\np3\tCyd\n")
    (tmp_path / "acts.tsv").write_text(
        "nconst\ttconst\np1\tt1\np2\tt1\np2\tt2\n")
    (tmp_path / "directs.tsv").write_text("nconst\ttconst\np3\tt1\np3\tt2\n")
    out = tmp_path / "imdb-mln"
    code = main(["ingest-imdb",
                 "--movies", str(tmp_path / "movies.tsv"),
                 "--people", str(tmp_path / "people.tsv"),
                 "--acts", str(tmp_path / "acts.tsv"),
                 "--directs", str(tmp_path / "directs.tsv"),
                 "--out", str(out)])
    assert code == 0
    for name in ("layer_A.tsv", "layer_D.tsv", "layer_M.tsv",
                 "inter_A_D.tsv", "inter_A_M.tsv", "inter_D_M.tsv",
                 "node_ids.tsv"):
        assert (out / name).exists()


def cliques(*groups):
    return [(u, v) for g in groups for i, u in enumerate(g) for v in g[i + 1:]]


UNEVEN_SPEC = "A #(A,B) B"
# Known defect, kept failing on purpose: strict, so the fix must drop it.
RENUMBERED_ON_LOAD = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="load_membership numbers communities by first appearance, "
                        "not by size as detection does")


@pytest.fixture
def uneven_mln_dir(tmp_path):
    """Detection numbers communities by size, and in both layers the
    smallest node lies in the smaller community."""
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", range(10), cliques(range(4), range(4, 10))))
    mln.add_layer(LayerGraph.build("B", range(10, 22),
                                   cliques(range(10, 13), range(13, 22))))
    mln.add_interlayer(InterLayerEdges.build(
        "A", "B", [(0, 13), (1, 14), (2, 15), (4, 10), (5, 11)]))
    out = tmp_path / "uneven-mln"
    save_mln(mln.freeze(), out)
    return out


@RENUMBERED_ON_LOAD
def test_rank_min_size_cli_matches_in_process(uneven_mln_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["kcommunity", "--mln", str(uneven_mln_dir), "--spec", UNEVEN_SPEC,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rank", "--result", str(out / "result.jsonl"), "--key", "min_size",
                 "--mln", str(uneven_mln_dir), "--memberships", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()

    mln = load_mln(uneven_mln_dir)
    memberships = {lid: detect_communities(mln.layer(lid), 0) for lid in mln.layers}
    summaries = {lid: summarize(mln.layer(lid), m) for lid, m in memberships.items()}
    spec = validate_spec(parse_spec(UNEVEN_SPEC), mln)
    result = detect_k_community(mln, memberships, summaries, spec)
    sizes = {lid: {c.index: s.node_count for c, s in by_id.items()}
             for lid, by_id in summaries.items()}
    ordered = rank(result.tuples, sizes, "min_size")
    assert printed == [f"< c_A^{a}, c_B^{b} >" for a, b in
                       (t.communities for t in ordered)]


@RENUMBERED_ON_LOAD
def test_kcommunity_on_its_own_memberships_is_byte_identical(uneven_mln_dir,
                                                             tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["kcommunity", "--mln", str(uneven_mln_dir), "--spec", UNEVEN_SPEC,
                 "--out", str(first)]) == 0
    assert main(["kcommunity", "--mln", str(uneven_mln_dir), "--spec", UNEVEN_SPEC,
                 "--memberships", str(first), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


PINNED_SPECS = {
    "acyclic": "G1 #(G1,G2) G2 #(G2,G3):d G3",
    "cyclic": "G1 #(G1,G2):h G2 #(G2,G3) G3 #(G3,G1):d G1",
}

# sha256 of every kcommunity output file on the fixture network: a change
# that moves any output byte fails here.
_MEMBERSHIP_DIGESTS = {
    "membership_G1.tsv": "a44261bbe056c27248a4a8157ec60c24f4ad01567baf303cdb78929d75a8972b",
    "membership_G2.tsv": "0c07ae3b8d3676951e49d8ae768b6f6cf6899060070ebcc55887c72a2d3ea6f7",
    "membership_G3.tsv": "191e0b7c46d0a4f9a927ebda4ebc4ab198247776f9a1d2f7c33d260e6efcaea7",
}
PINNED_DIGESTS = {
    "acyclic": {
        **_MEMBERSHIP_DIGESTS,
        "diagnostics.tsv": "cbe93ca642e132e81868e2c54ea9129a203731ca13035d0fe91251c898630c09",
        "result.jsonl": "3f914eeb27c50341f7b242c760aa358ee87afb2742d7cd3c1475a0f586767777",
        "result.txt": "83e699ead99da24f9d16d5d0c76858c6c8f0601f452746f7c1ac62ab7ab1b563",
    },
    "cyclic": {
        **_MEMBERSHIP_DIGESTS,
        "diagnostics.tsv": "f404a38046f73881422c810900aa9cc13328f1f7ea28695ec66a1d3df4307689",
        "result.jsonl": "fd0d84a599a899cad07004e0d1366c0e637e6e73810db90425d224821cec17a8",
        "result.txt": "645f44dc6d7cb9f17a041f205ddcbc0a85e3323a3975a8df3fc94dfdd7f386ee",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_kcommunity_output_bytes_pinned(three_layer_mln, tmp_path, name):
    mln, memberships, _ = three_layer_mln
    mln_dir, member_dir = tmp_path / "mln", tmp_path / "memberships"
    save_mln(mln, mln_dir)
    member_dir.mkdir()
    for lid, m in memberships.items():
        save_membership_tsv(m, member_dir / f"membership_{lid}.tsv")
    out = tmp_path / "run"
    assert main(["kcommunity", "--mln", str(mln_dir), "--memberships",
                 str(member_dir), "--spec", PINNED_SPECS[name],
                 "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == PINNED_DIGESTS[name]


# `hemln cbg` stdout on the fixture network, one pair per metric; (G3,G1)
# runs against the stored (G1,G3) orientation
PINNED_CBG = {
    ("G1,G2", "e"): "1\t3\t2\t1.0\n2\t1\t2\t1.0\n3\t5\t1\t0.5\n",
    ("G2,G3", "d"): "1\t2\t2\t0.2222222222222222\n",
    ("G3,G1", "h"): "2\t2\t1\t0.012345679012345678\n",
}


@pytest.mark.parametrize("pair, metric", sorted(PINNED_CBG))
def test_cbg_output_bytes_pinned(three_layer_mln, tmp_path, capsysbinary,
                                 pair, metric):
    mln, memberships, _ = three_layer_mln
    mln_dir, member_dir = tmp_path / "mln", tmp_path / "memberships"
    save_mln(mln, mln_dir)
    member_dir.mkdir()
    for lid, m in memberships.items():
        save_membership_tsv(m, member_dir / f"membership_{lid}.tsv")
    assert main(["cbg", "--mln", str(mln_dir), "--memberships", str(member_dir),
                 "--pair", pair, "--metric", metric]) == 0
    assert capsysbinary.readouterr().out == PINNED_CBG[(pair, metric)].encode()


NOT_UTF8 = b"\xff\xfe not utf-8\n"
IMDB_TSVS = {
    "movies": "tconst\tprimaryTitle\tgenres\taverageRating\nt1\tOne\tDrama\t7.9\n",
    "people": "nconst\tprimaryName\np1\tAnn\np2\tBob\n",
    "acts": "nconst\ttconst\np1\tt1\n",
    "directs": "nconst\ttconst\np2\tt1\n",
}


def _kcommunity(mln_dir, tmp_path, *extra, spec="G1 #(G1,G2) G2"):
    return ["kcommunity", "--mln", str(mln_dir), "--spec", spec,
            "--out", str(tmp_path / "out"), *extra]


def _config(mln_dir, tmp_path, content):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    return _kcommunity(mln_dir, tmp_path, "--config", str(cfg))


def _not_utf8_in_mln(mln_dir, tmp_path, name):
    (mln_dir / name).write_bytes(NOT_UTF8)
    return _kcommunity(mln_dir, tmp_path)


def _membership_not_utf8(mln_dir, tmp_path):
    memberships = tmp_path / "memberships"
    memberships.mkdir()
    (memberships / "membership_G1.tsv").write_bytes(NOT_UTF8)
    return _kcommunity(mln_dir, tmp_path, "--memberships", str(memberships))


def _membership_missing(mln_dir, tmp_path):
    memberships = tmp_path / "memberships"
    memberships.mkdir()
    return _kcommunity(mln_dir, tmp_path, "--memberships", str(memberships))


def _out_is_a_file(mln_dir, tmp_path):
    (tmp_path / "out").write_text("in the way\n")
    return _kcommunity(mln_dir, tmp_path)


def _spec_file(mln_dir, tmp_path, text):
    spec_file = tmp_path / "specs.txt"
    spec_file.write_text(text)
    return ["kcommunity", "--mln", str(mln_dir), "--spec-file", str(spec_file),
            "--out", str(tmp_path / "out")]


def _rank(tmp_path, jsonl, key="sum_raw_pairs", *extra):
    result = tmp_path / "result.jsonl"
    result.write_text(jsonl)
    return ["rank", "--result", str(result), "--key", key, *extra]


def _record(layer='"G2"', community="1", pair="[0, 10]"):
    """One result.jsonl line with a (G1, G2) tuple, its second slot and its
    first pair as given."""
    return ('{"slots": [{"layer": "G1", "community": 1}, '
            f'{{"layer": {layer}, "community": {community}}}], '
            f'"x": [{{"step": ["G1", "G2"], "pairs": [{pair}]}}], "total": true}}\n')


def _rank_unknown_community(mln_dir, tmp_path):
    memberships = tmp_path / "memberships"
    memberships.mkdir()
    for lid, nodes in (("G1", range(6)), ("G2", range(10, 16))):
        (memberships / f"membership_{lid}.tsv").write_text(
            "".join(f"{n}\t{1 + n % 10 // 3}\n" for n in nodes))
    record = ('{"slots":[{"layer":"G1","community":9},{"layer":"G2","community":1}],'
              '"x":[null],"total":false}\n')
    return _rank(tmp_path, record, "min_size", "--mln", str(mln_dir),
                 "--memberships", str(memberships))


def _imdb(tmp_path, **replaced):
    argv = ["ingest-imdb", "--out", str(tmp_path / "imdb-mln")]
    for name, text in {**IMDB_TSVS, **replaced}.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    return argv


BAD_INPUTS = {
    "env-seed": (lambda d, t: _kcommunity(d, t), "MLN_SEED"),
    "config-seed": (lambda d, t: _config(d, t, b"seed = x\n"), "seed"),
    "config-hub-quantile": (lambda d, t: _config(d, t, b"hub_quantile = high\n"),
                            "hub_quantile"),
    "config-not-utf8": (lambda d, t: _config(d, t, NOT_UTF8), "utf-8"),
    # settings are checked before --mln is read: here it does not exist
    "config-metric": (lambda d, t: _config(t / "no-mln", t, b"metric = z\n"),
                      "bad metric 'z'"),
    "hub-quantile-zero": (lambda d, t: _kcommunity(t / "no-mln", t,
                                                   "--hub-quantile", "0"),
                          "bad hub_quantile 0.0"),
    "layer-not-utf8": (lambda d, t: _not_utf8_in_mln(d, t, "layer_G1.tsv"), "utf-8"),
    "inter-not-utf8": (lambda d, t: _not_utf8_in_mln(d, t, "inter_G1_G2.tsv"),
                       "utf-8"),
    "membership-not-utf8": (_membership_not_utf8, "utf-8"),
    "membership-missing": (_membership_missing, "membership_G1.tsv"),
    "spec-syntax": (lambda d, t: _kcommunity(d, t, spec="G1 #(G1,G2"),
                    "composition operator"),
    "spec-unknown-layer": (lambda d, t: _kcommunity(d, t, spec="G1 #(G1,G9) G9"),
                           "unknown layer G9"),
    "spec-no-first-layer": (lambda d, t: _kcommunity(d, t, spec="#(G2,G1):z"),
                            "layer name"),
    "out-not-writable": (_out_is_a_file, "out"),
    "spec-file-empty": (lambda d, t: _spec_file(d, t, "; no specs\n\n  \n"),
                        "no specification"),
    "rank-not-json": (lambda d, t: _rank(t, "{not json\n"), "line 1"),
    "rank-bad-record": (lambda d, t: _rank(t, '\n{"slots": 3, "x": []}\n'), "line 2"),
    # only what to_jsonl writes: a string layer, an int community, int pairs
    "rank-community-float": (lambda d, t: _rank(t, _record(community="1.9")), "line 1"),
    "rank-community-bool": (lambda d, t: _rank(t, _record(community="true")),
                            "line 1"),
    "rank-community-string": (lambda d, t: _rank(t, _record(community='"2"')),
                              "line 1"),
    "rank-layer-number": (lambda d, t: _rank(t, _record(layer="7")), "line 1"),
    "rank-pair-not-ints": (lambda d, t: _rank(t, _record(pair='[0, "10"]')),
                           "line 1"),
    # summaries must describe the result's communities, not a re-detection
    "rank-size-key-no-memberships": (lambda d, t: _rank(t, "", "min_size",
                                                        "--mln", str(d)),
                                     "--memberships"),
    "rank-unknown-community": (_rank_unknown_community, "c_G1^9"),
    "imdb-rating-not-a-number": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                                    .replace("7.9", "good")),
                                 "line 2"),
    "imdb-rating-out-of-range": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                                    .replace("7.9", "10.5")),
                                 "line 2"),
    "imdb-people-no-nconst": (lambda d, t: _imdb(t, people="id\tprimaryName\np1\tAnn\n"),
                              "nconst"),
    "imdb-acts-no-tconst": (lambda d, t: _imdb(t, acts="nconst\tmovie\np1\tt1\n"),
                            "tconst"),
    "imdb-directs-no-nconst": (lambda d, t: _imdb(t, directs="who\ttconst\np2\tt1\n"),
                               "nconst"),
    # past csv's default field size limit of 131072 characters
    "imdb-field-too-long": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                               .replace("One", "x" * 200_000)),
                            "line 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_exit_2(mln_dir, tmp_path, capsys, monkeypatch, case):
    make_argv, expected = BAD_INPUTS[case]
    if case == "env-seed":
        monkeypatch.setenv("MLN_SEED", "abc")
    argv = make_argv(mln_dir, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("hemln: ") and err.count("\n") == 1
    assert expected in err
    if case != "out-not-writable":  # kcommunity checks its inputs before --out
        assert not (tmp_path / "out").exists()


# options a command does not read are usage errors, not silently ignored
UNREAD_OPTIONS = {
    "ingest-imdb-seed": ("ingest-imdb", "--seed", "1"),
    "ingest-imdb-config": ("ingest-imdb", "--config", "run.cfg"),
    "ingest-imdb-hub-quantile": ("ingest-imdb", "--hub-quantile", "0.5"),
    "detect-hub-quantile": ("detect", "--hub-quantile", "0.5"),
    "rank-seed": ("rank", "--seed", "1"),
    # rank keys read no hubs, so rank takes neither option
    "rank-hub-quantile": ("rank", "--hub-quantile", "0.5"),
    "rank-config": ("rank", "--config", "run.cfg"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
def test_unread_option_exits_1(tmp_path, case):
    command, *option = UNREAD_OPTIONS[case]
    argv = {"ingest-imdb": _imdb(tmp_path),
            "detect": ["detect", "--layer", "layer.tsv", "--out", "m.tsv"],
            "rank": _rank(tmp_path, "")}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + option)
    assert exc.value.code == 1


def test_rank_bad_key_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_rank(tmp_path, "", "no_such_key"))
    assert exc.value.code == 1


def test_rank_ignores_mln_seed(mln_dir, tmp_path, monkeypatch):
    assert main(_kcommunity(mln_dir, tmp_path)) == 0
    monkeypatch.setenv("MLN_SEED", "not a seed")  # rank has no --seed
    assert main(["rank", "--result", str(tmp_path / "out" / "result.jsonl"),
                 "--key", "sum_raw_pairs"]) == 0


# every command runs with the cyclic collector paused and gives the caller's
# setting back, whatever its exit
GC_RUNS = {
    "exit-0": (lambda d, t: _kcommunity(d, t), 0),
    "exit-2": (lambda d, t: _kcommunity(d, t, spec="G1 #(G1,G9) G9"), 2),
    "exit-1": (lambda d, t: _kcommunity(d, t, "--no-such-option"), 1),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", sorted(GC_RUNS))
def test_command_restores_gc_state(mln_dir, tmp_path, monkeypatch, case, enabled):
    make_argv, code = GC_RUNS[case]
    seen = []

    def compose(*args):
        seen.append(gc.isenabled())
        return detect_k_community(*args)
    monkeypatch.setattr(cli, "detect_k_community", compose)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code == 1:
            with pytest.raises(SystemExit) as exc:
                main(make_argv(mln_dir, tmp_path))
            assert exc.value.code == 1
        else:
            assert main(make_argv(mln_dir, tmp_path)) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == ([False] if code == 0 else [])
