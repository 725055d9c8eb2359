import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

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
from hemln import cli, engine
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


def test_kcommunity_repeated_spec(mln_dir, tmp_path):
    # each --spec runs, in order, and the i-th writes its own run's bytes
    specs = ("G1 #(G1,G2) G2", "G2 #(G2,G1):h G1")
    run = ["kcommunity", "--mln", str(mln_dir)]
    batch = tmp_path / "batch"
    assert main(run + ["--spec", specs[0], "--spec", specs[1],
                       "--out", str(batch)]) == 0
    expected = {}
    for i, spec in enumerate(specs):
        single = tmp_path / f"single_{i}"
        assert main(run + ["--spec", spec, "--out", str(single)]) == 0
        for p in single.iterdir():
            stem, ext = p.name.split(".")
            name = p.name if stem.startswith("membership") else f"{stem}_{i}.{ext}"
            expected[name] = p.read_bytes()
    assert {p.name: p.read_bytes() for p in batch.iterdir()} == expected


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


def test_usage_errors_exit_1(mln_dir, tmp_path, capsys):
    run = ["kcommunity", "--mln", str(mln_dir), "--out", str(tmp_path / "out")]
    for argv in (["kcommunity"],  # missing required flags
                 ["no-such-command"],
                 run,  # no --spec
                 run + ["--spec", "G1 #(G1,G2) G2", "--metric", "z"],
                 run + ["--spec", "G1 #(G1,G2) G2", "--seed", "x"],
                 # a repeated --spec with no value is not a batch of one
                 run + ["--spec", "G1 #(G1,G2) G2", "--spec"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert not (tmp_path / "out").exists()


def test_data_errors_exit_2(mln_dir, tmp_path, capsys):
    code = main(["kcommunity", "--mln", str(mln_dir),
                 "--spec", "G1 #(G1,G9) G9", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "hemln:" in capsys.readouterr().err
    code = main(["kcommunity", "--mln", str(tmp_path / "missing"),
                 "--spec", "G1 #(G1,G2) G2", "--out", str(tmp_path / "y")])
    assert code == 2


def test_overlap_mode_choices_are_the_imdb_modes():
    # the CLI keeps its own literal: importing hemln.imdb at start would load
    # csv for every command
    from hemln.imdb import OVERLAP_MODES
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["ingest-imdb"]._actions
                if a.dest == "overlap_mode")
    assert tuple(mode.choices) == OVERLAP_MODES


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


def _seeded_imdb_tsvs(directory, seed):
    """IMDb TSVs drawn from ``seed``: ratings in every class, unrated movies,
    movies with no genre, casts that overlap, and directors who share a genre
    set."""
    rng = random.Random(seed)
    genres = ("Drama", "Crime", "Comedy", "Horror", "Action")
    people = [f"nm{i:03d}" for i in range(70)]
    rows = {"movies": ["tconst\tprimaryTitle\tgenres\taverageRating"],
            "people": ["nconst\tprimaryName", *(f"{p}\tP{p}" for p in people)],
            "acts": ["nconst\ttconst"], "directs": ["nconst\ttconst"]}
    for m in range(90):
        tconst = f"tt{m:03d}"
        rating = r"\N" if m % 9 == 0 else f"{rng.uniform(0, 10):.1f}"
        genre = ",".join(rng.sample(genres, rng.randint(0, 2))) or r"\N"
        rows["movies"].append(f"{tconst}\tMovie {m}\t{genre}\t{rating}")
        rows["acts"] += [f"{p}\t{tconst}" for p in rng.sample(people[:55], 5)]
        rows["directs"].append(f"{rng.choice(people[55:])}\t{tconst}")
    for name, lines in rows.items():
        (directory / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    return [arg for name in rows for arg in (f"--{name}", str(directory / f"{name}.tsv"))]


# sha256 of every ingest-imdb output file on _seeded_imdb_tsvs(seed 5)
PINNED_IMDB_DIGESTS = {
    "inter_A_D.tsv": "a9c0cc3983b5f05dcbebdd9f5dd12e69283ec1aa06567bcfc98c08e801eca785",
    "inter_A_M.tsv": "6ec006a73d6f2b46c39f4aa04fca46167566e68fa6aaf18e078c4725df64ac09",
    "inter_D_M.tsv": "b4e25cf43cb17d9a950a731c0f34ec047e998c25bca986f30b17795cb395ef58",
    "layer_A.tsv": "0cee5bc1b829294eb0050fe4bbb6d03b539a0b3bf83af486208fbb2fc4399948",
    "layer_D.tsv": "96317ff3a7e247915e572227be4058580ae150f9e86053b0cda8cf45f8df6a97",
    "layer_M.tsv": "93896e57c591d418bc41483d1716048ab8c9b55988b268bac325a95c1459e8d6",
    "node_ids.tsv": "281a3339b0bf568b097c5854f011a259c34ab013cfa8309992c7f203672cb0fe",
}


def test_ingest_imdb_output_bytes_pinned(tmp_path):
    out = tmp_path / "imdb-mln"
    assert main(["ingest-imdb", *_seeded_imdb_tsvs(tmp_path, 5), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == PINNED_IMDB_DIGESTS


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


# sha256 of `hemln cbg --pair L0,L1` stdout on the planted network, after
# the line the wrapper prints before main
PINNED_CBG_SHA256 = "1a16d1005c40bdec9daa4287d3e11b6d63def69a31f9000d99ca7554d58556e3"


def test_cbg_subprocess_prints_each_line_once(planted_mln_dir, tmp_path, capsys):
    assert main(["cbg", "--mln", str(planted_mln_dir), "--pair", "L0,L1"]) == 0
    expected = "before detection\n" + capsys.readouterr().out
    # the line sits in the block buffer of a file stdout while main runs
    code = ("import sys\n"
            "print('before detection')\n"
            "from hemln.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cbg.tsv"
    with open(out, "wb") as stdout:
        subprocess.run([sys.executable, "-c", code, "cbg", "--mln",
                        str(planted_mln_dir), "--pair", "L0,L1"], stdout=stdout,
                       env=env, check=True, timeout=120)
    text = out.read_text(encoding="utf-8")
    assert text == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CBG_SHA256


@pytest.fixture
def empty_layers_dir(tmp_path):
    """Layers A and C have edges, B and D no nodes."""
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", range(4), [(0, 1), (1, 2), (2, 3)]))
    mln.add_layer(LayerGraph.build("B", [], []))
    mln.add_layer(LayerGraph.build("C", [10, 11], [(10, 11)]))
    mln.add_layer(LayerGraph.build("D", [], []))
    for left, right in (("A", "B"), ("B", "C"), ("C", "D")):
        mln.add_interlayer(InterLayerEdges.build(left, right, []))
    out = tmp_path / "empty-mln"
    save_mln(mln.freeze(), out)
    return out


def test_first_empty_layer_in_order_is_the_data_error(empty_layers_dir, tmp_path,
                                                      capsys):
    # layers are detected in sorted order: B fails before D is reached
    out = tmp_path / "out"
    assert main(["kcommunity", "--mln", str(empty_layers_dir), "--spec",
                 "A #(A,B) B #(B,C) C #(C,D) D", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "hemln: layer B has no nodes\n"
    assert not out.exists()


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


def _not_utf8_in_mln(mln_dir, tmp_path, name):
    (mln_dir / name).write_bytes(NOT_UTF8)
    return _kcommunity(mln_dir, tmp_path)


def _layer_g1_line(mln_dir, tmp_path, line):
    with (mln_dir / "layer_G1.tsv").open("a") as layer:
        layer.write(line + "\n")
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


def _membership_rows(mln_dir, tmp_path, g1_rows):
    """Good G2 memberships, and G1 memberships of the given rows."""
    memberships = tmp_path / "memberships"
    memberships.mkdir()
    (memberships / "membership_G2.tsv").write_text(
        "".join(f"{n}\t1\n" for n in range(10, 16)))
    (memberships / "membership_G1.tsv").write_text(
        "".join(f"{n}\t{c}\n" for n, c in g1_rows))
    return _kcommunity(mln_dir, tmp_path, "--memberships", str(memberships))


def _out_is_a_file(mln_dir, tmp_path):
    (tmp_path / "out").write_text("in the way\n")
    return _kcommunity(mln_dir, tmp_path)


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
    # the hub quantile is checked before --mln is read: here it does not exist
    "hub-quantile-zero": (lambda d, t: _kcommunity(t / "no-mln", t,
                                                   "--hub-quantile", "0"),
                          "hub_quantile must be in (0,1], got 0.0"),
    "cbg-hub-quantile-zero": (lambda d, t: ["cbg", "--mln", str(t / "no-mln"),
                                            "--pair", "G1,G2", "--hub-quantile", "0"],
                              "hub_quantile must be in (0,1], got 0.0"),
    "layer-not-utf8": (lambda d, t: _not_utf8_in_mln(d, t, "layer_G1.tsv"), "utf-8"),
    "inter-not-utf8": (lambda d, t: _not_utf8_in_mln(d, t, "inter_G1_G2.tsv"),
                       "utf-8"),
    # layer_G1.tsv holds 13 lines: the header, 6 nodes and 6 edges
    "layer-self-loop": (lambda d, t: _layer_g1_line(d, t, "edge\t0\t0"),
                        "line 14: self-loop on node 0"),
    "layer-negative-node": (lambda d, t: _layer_g1_line(d, t, "-1"),
                            "line 14: node id -1"),
    "membership-not-utf8": (_membership_not_utf8, "utf-8"),
    "membership-missing": (_membership_missing, "membership_G1.tsv"),
    # a membership file assigns every node of its layer, once, and no other
    "membership-node-outside-layer": (lambda d, t: _membership_rows(
        d, t, [(n, 1) for n in (*range(6), 99)]), "node 99 not in layer G1"),
    "membership-misses-a-node": (lambda d, t: _membership_rows(
        d, t, [(n, 1) for n in range(5)]), "node 5 of layer G1 has no community"),
    "membership-node-twice": (lambda d, t: _membership_rows(
        d, t, [(n, 1) for n in range(6)] + [(0, 2)]),
        "node 0 listed with indices 1 and 2"),
    "spec-syntax": (lambda d, t: _kcommunity(d, t, spec="G1 #(G1,G2"),
                    "composition operator"),
    "spec-unknown-layer": (lambda d, t: _kcommunity(d, t, spec="G1 #(G1,G9) G9"),
                           "layer G9 not in MLN"),
    "spec-no-first-layer": (lambda d, t: _kcommunity(d, t, spec="#(G2,G1):z"),
                            "layer name"),
    "out-not-writable": (_out_is_a_file, "out"),
    # --pair names two layers, split on its one comma
    **{f"cbg-pair-{name}": (lambda d, t, pair=pair: ["cbg", "--mln", str(d),
                                                     "--pair", pair],
                            f"--pair expects 'L1,L2', got {pair!r}")
       for name, pair in (("one-layer", "G1"), ("three-layers", "G1,G2,G1"))},
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
    # and only the shapes it writes: two or more distinct layers, an x slot
    # per step, each step two layers of the record
    "rank-one-slot": (lambda d, t: _rank(t, '{"slots":[{"layer":"G1","community":1}],'
                                            '"x":[],"total":true}\n'), "line 1"),
    "rank-repeated-layer": (lambda d, t: _rank(
        t, '{"slots":[{"layer":"G1","community":1},{"layer":"G1","community":2}],'
           '"x":[null,null,null],"total":false}\n'), "line 1"),
    "rank-step-outside-record": (lambda d, t: _rank(
        t, '{"slots":[{"layer":"G1","community":0},{"layer":"G2","community":0}],'
           '"x":[{"step":["Q","Z"],"pairs":[]}],"total":true}\n'), "line 1"),
    # summaries must describe the result's communities, not a re-detection
    "rank-size-key-no-memberships": (lambda d, t: _rank(t, "", "min_size",
                                                        "--mln", str(d)),
                                     "--memberships"),
    "rank-unknown-community": (_rank_unknown_community, "c_G1^9"),
    # a key needs both options or takes neither: sum_raw_pairs reads no file
    "rank-sum-raw-pairs-unread-options": (lambda d, t: _rank(
        t, "", "sum_raw_pairs", "--mln", str(t / "nonexistent"),
        "--memberships", str(t / "nope")), "takes neither --mln nor --memberships"),
    "imdb-rating-not-a-number": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                                    .replace("7.9", "good")),
                                 "line 2"),
    # a repeated key is an error, not the later row silently
    "imdb-movies-repeated-tconst": (lambda d, t: _imdb(
        t, movies=IMDB_TSVS["movies"] + "t1\tOne\tComedy\t1.0\n"),
        "line 3: repeated tconst 't1'"),
    "imdb-people-repeated-nconst": (lambda d, t: _imdb(
        t, people=IMDB_TSVS["people"] + "p1\tAnn\n"),
        "line 4: repeated nconst 'p1'"),
    # csv skips blank lines, and the error still names the row's own line
    "imdb-rating-after-blank-lines": (lambda d, t: _imdb(
        t, movies=IMDB_TSVS["movies"].replace("\nt1", "\n\n\nt1")
                                     .replace("7.9", "good")), "line 4"),
    "imdb-rating-out-of-range": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                                    .replace("7.9", "10.5")),
                                 "line 2"),
    # a key column that is empty or \\N names no record
    "imdb-movies-null-tconst": (lambda d, t: _imdb(
        t, movies=IMDB_TSVS["movies"] + "\\N\tNull\tDrama\t7.0\n"),
        "movies.tsv: tconst is empty or \\N"),
    "imdb-acts-row-without-tconst": (lambda d, t: _imdb(t, acts="nconst\ttconst\np1\n"),
                                     "acts.tsv: tconst is empty"),
    "imdb-people-no-nconst": (lambda d, t: _imdb(t, people="id\tprimaryName\np1\tAnn\n"),
                              "nconst"),
    "imdb-acts-no-tconst": (lambda d, t: _imdb(t, acts="nconst\tmovie\np1\tt1\n"),
                            "tconst"),
    "imdb-directs-no-nconst": (lambda d, t: _imdb(t, directs="who\ttconst\np2\tt1\n"),
                               "nconst"),
    # the genre overlap threshold is a share in (0,1]: NaN, inf and 2 would
    # join no directors, 0 and -1 directors with no genre in common
    **{f"imdb-threshold-{text}": (
        lambda d, t, text=text: _imdb(t) + ["--genre-overlap-threshold", text],
        f"bad genre overlap threshold {float(text)}")
       for text in ("nan", "inf", "2", "0", "-1")},
    # with no movie, no credit can stand and no layer would have a node
    "imdb-no-movies": (lambda d, t: _imdb(
        t, movies=IMDB_TSVS["movies"].split("\n")[0] + "\n",
        acts="nconst\ttconst\n", directs="nconst\ttconst\n"), "no movies"),
    # past csv's default field size limit of 131072 characters
    "imdb-field-too-long": (lambda d, t: _imdb(t, movies=IMDB_TSVS["movies"]
                                               .replace("One", "x" * 200_000)),
                            "line 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_exit_2(mln_dir, tmp_path, capsys, case):
    make_argv, expected = BAD_INPUTS[case]
    argv = make_argv(mln_dir, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("hemln: ") and err.count("\n") == 1
    assert expected in err
    if "--out" in argv and case != "out-not-writable":  # inputs are checked first
        assert not Path(argv[argv.index("--out") + 1]).exists()


# options a command does not read are usage errors, not silently ignored
UNREAD_OPTIONS = {
    "ingest-imdb-seed": ("ingest-imdb", "--seed", "1"),
    "ingest-imdb-config": ("ingest-imdb", "--config", "run.cfg"),
    # each setting comes from its flag alone: no command reads a config file
    "detect-config": ("detect", "--config", "run.cfg"),
    "kcommunity-config": ("kcommunity", "--config", "run.cfg"),
    "cbg-config": ("cbg", "--config", "run.cfg"),
    # kcommunity reads its specs from --spec alone: no spec file
    "kcommunity-spec-file": ("kcommunity", "--spec-file", "specs.txt"),
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
            "kcommunity": _kcommunity("mln", tmp_path),
            "cbg": ["cbg", "--mln", "mln", "--pair", "G1,G2"],
            "rank": _rank(tmp_path, "")}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + option)
    assert exc.value.code == 1
    assert not (tmp_path / "out").exists()


def test_rank_bad_key_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_rank(tmp_path, "", "no_such_key"))
    assert exc.value.code == 1


def test_rank_ignores_mln_seed(mln_dir, tmp_path, monkeypatch, capsysbinary):
    # no command reads MLN_SEED: each writes the bytes of a run without it
    def run(name):
        d = tmp_path / name
        d.mkdir()
        mln, result = str(mln_dir), str(tmp_path / "plain" / "kc" / "result.jsonl")
        argvs = {
            "kc": ["kcommunity", "--mln", mln, "--spec", "G1 #(G1,G2) G2",
                   "--out", str(d / "kc")],
            "cbg": ["cbg", "--mln", mln, "--pair", "G1,G2"],
            "rank": ["rank", "--result", result, "--key", "sum_raw_pairs"],
            "detect": ["detect", "--layer", str(mln_dir / "layer_G1.tsv"),
                       "--out", str(d / "membership_G1.tsv")],
            "imdb": _imdb(d),
        }
        for key, argv in argvs.items():
            assert main(argv) == 0, key
            (d / f"{key}.out").write_bytes(capsysbinary.readouterr().out)
        return {p.relative_to(d): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    plain = run("plain")
    monkeypatch.setenv("MLN_SEED", "not-a-seed")
    assert run("env") == plain


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


def test_kcommunity_calls_each_stage_through_the_engine_once_per_step(
        planted_mln_dir, tmp_path, monkeypatch):
    # the benchmark times select_u, build_cbg and max_flow_match by replacing
    # them at the names hemln.engine looks up; a step that went around one
    # would leave its span empty
    calls = dict.fromkeys(("select_u", "build_cbg", "max_flow_match"), 0)
    for name in calls:
        def counted(*args, _stage=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(engine, name, counted)
    spec = "L0 #(L0,L1) L1 #(L1,L2) L2 #(L2,L1):h L1"
    assert main(["kcommunity", "--mln", str(planted_mln_dir), "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 0
    steps = (tmp_path / "out" / "diagnostics.tsv").read_text().count("\n") - 1
    assert steps == 3 and calls == dict.fromkeys(calls, steps)
