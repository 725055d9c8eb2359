"""A layer is one representation: the sorted neighbour rows that the loader
fills and that detection, ``summarize`` and ``save_layer`` read.

``LayerGraph.edges`` is derived from the rows for library callers and tests;
no command derives it. Rows follow sorted node order, whatever the order of
the lines of a layer file, so permuted input files give the same bytes.
"""
import os
import random
from itertools import combinations
from pathlib import Path

import pytest

from hemln import MLN, InterLayerEdges, LayerGraph
from hemln.cli import main
from hemln.fileio import save_mln

SPEC = "L0 #(L0,L1) L1 #(L1,L2) L2"


@pytest.fixture
def mln_dir(tmp_path):
    """Three layers of planted groups (rings plus chords, a few edges
    between groups), with isolated nodes, and links for two layer pairs."""
    rng = random.Random(27)
    mln = MLN()
    for i, (groups, size) in enumerate(((3, 9), (5, 8), (2, 11))):
        first = 1000 * (i + 1)
        nodes = list(range(first, first + groups * size + 3))
        edges = set()
        for g in range(groups):
            members = nodes[g * size:(g + 1) * size]
            edges.update(zip(members, members[1:] + members[:1]))
            edges.update(tuple(rng.sample(members, 2)) for _ in range(size))
        edges.update(tuple(rng.sample(nodes[:groups * size], 2)) for _ in range(groups))
        mln.add_layer(LayerGraph.build(f"L{i}", nodes, edges))
    for a, b in (("L0", "L1"), ("L1", "L2")):
        left, right = sorted(mln.layer(a).nodes), sorted(mln.layer(b).nodes)
        mln.add_interlayer(InterLayerEdges.build(a, b, {
            (rng.choice(left), rng.choice(right)) for _ in range(40)}))
    save_mln(mln.freeze(), tmp_path / "mln")
    return tmp_path / "mln"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _reversed_edge(line):
    _, u, v = line.split("\t")
    return f"edge\t{v}\t{u}"


def _permuted_copy(mln_dir, target, rng):
    """Node lines reversed, edge lines shuffled with half of them reversed,
    link lines shuffled; each header stays first."""
    target.mkdir()
    for path in sorted(mln_dir.iterdir()):
        header, *lines = path.read_text().splitlines()
        if path.name.startswith("layer_"):
            nodes = [line for line in lines if not line.startswith("edge")]
            edges = [line for line in lines if line.startswith("edge")]
            rng.shuffle(edges)
            lines = nodes[::-1] + [_reversed_edge(line) if k % 2 else line
                                   for k, line in enumerate(edges)]
        else:
            rng.shuffle(lines)
        (target / path.name).write_text("\n".join([header, *lines]) + "\n")
    return target


def test_permuted_input_files_give_the_same_bytes(mln_dir, tmp_path):
    permuted = _permuted_copy(mln_dir, tmp_path / "permuted", random.Random(3))
    for name in _files(mln_dir):  # the copy is a different file, the same graph
        assert _files(permuted)[name] != _files(mln_dir)[name], name
    outputs = []
    for source in (mln_dir, permuted):
        out = tmp_path / f"run-{source.name}"
        assert main(["kcommunity", "--mln", str(source), "--spec", SPEC,
                     "--out", str(out)]) == 0
        outputs.append(_files(out))
    assert outputs[0] == outputs[1]
    assert len(set(outputs[0]["membership_L1.tsv"].split(b"\n")[1:-1])) > 1


def _random_cliques(rng):
    """40 nodes with gaps between their ids, 8 of them in no clique, and
    cliques of 1 to 9 members that overlap, one repeated in reverse order and
    one repeated as a set."""
    nodes = frozenset(rng.sample(range(200), 40))
    pool = sorted(nodes)[:32]
    cliques = [rng.sample(pool, rng.choice((1, 2, 2, 3, 5, 9))) for _ in range(12)]
    return nodes, cliques + [cliques[0][::-1], set(cliques[5])]


@pytest.mark.parametrize("seed", range(20))
def test_clique_rows_equal_the_build_of_their_pairs(seed):
    nodes, cliques = _random_cliques(random.Random(seed))
    pairs = [pair for clique in cliques for pair in combinations(clique, 2)]
    g = LayerGraph.of("C", nodes, cliques)
    assert g == LayerGraph.build("C", nodes, pairs)
    assert g == LayerGraph.of("C", nodes, pairs)  # an edge is a clique of two
    order, joined = sorted(nodes), set(map(frozenset, pairs))
    assert g.nbrs == tuple(tuple(j for j, v in enumerate(order)
                                 if frozenset((u, v)) in joined) for u in order)
    assert not any(g.nbrs[32:])  # the nodes in no clique stay isolated


@pytest.fixture
def imdb_argv(tmp_path):
    """ingest-imdb's input options for a toy IMDb-style dataset."""
    files = {
        "movies": "tconst\tprimaryTitle\tgenres\taverageRating\n"
                  "t1\tOne\tDrama\t7.9\nt2\tTwo\tDrama,War\t6.5\n"
                  "t3\tThree\tWar\t7.1\nt4\tFour\tComedy\t\\N\n",
        "people": "nconst\tprimaryName\n" + "".join(f"p{i}\tP{i}\n" for i in range(6)),
        "acts": "nconst\ttconst\np0\tt1\np1\tt1\np1\tt2\np2\tt2\np3\tt3\np0\tt3\n",
        "directs": "nconst\ttconst\np4\tt1\np4\tt2\np5\tt3\np5\tt4\n",
    }
    argv = []
    for name, text in files.items():
        (tmp_path / f"{name}.tsv").write_text(text)
        argv += [f"--{name}", str(tmp_path / f"{name}.tsv")]
    return argv


def _every_command(mln_dir, imdb_argv, work, capsys):
    """(exit code, stdout) of each command that reads or writes a layer, and
    every file they wrote."""
    work.mkdir()
    runs = {}

    def run(name, *argv):
        runs[name] = (main(list(argv)), capsys.readouterr().out)

    run("detect", "detect", "--layer", str(mln_dir / "layer_L1.tsv"),
        "--out", str(work / "membership_L1.tsv"))
    run("kcommunity", "kcommunity", "--mln", str(mln_dir), "--spec", SPEC,
        "--metric", "h", "--out", str(work / "kcommunity"))
    run("cbg", "cbg", "--mln", str(mln_dir), "--pair", "L1,L2", "--metric", "d")
    for key in ("min_size", "min_density"):
        run(key, "rank", "--result", str(work / "kcommunity" / "result.jsonl"),
            "--key", key, "--mln", str(mln_dir), "--memberships",
            str(work / "kcommunity"))
    run("ingest-imdb", "ingest-imdb", *imdb_argv, "--out", str(work / "imdb"))
    return runs, {str(p.relative_to(work)): p.read_bytes()
                  for p in sorted(work.rglob("*")) if p.is_file()}


def _underived(self):
    raise AssertionError("LayerGraph.edges derived at runtime")


def _no_fork():
    raise AssertionError("a command forked")


def test_no_command_derives_edges(mln_dir, imdb_argv, tmp_path, capsys, monkeypatch):
    # nor forks: every command detects its layers in its own process
    usual = _every_command(mln_dir, imdb_argv, tmp_path / "usual", capsys)
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    monkeypatch.setattr(LayerGraph, "edges", property(_underived))
    with pytest.raises(AssertionError, match="derived at runtime"):
        LayerGraph.build("A", [1, 2], [(1, 2)]).edges
    runs, files = _every_command(mln_dir, imdb_argv, tmp_path / "guarded", capsys)
    codes = {name: code for name, (code, _) in runs.items()}
    assert codes == dict.fromkeys(codes, 0)
    assert (runs, files) == usual
    assert "kcommunity/membership_L1.tsv" in files and "imdb/layer_M.tsv" in files
    assert runs["cbg"][1] and runs["min_size"][1] and runs["min_density"][1]
