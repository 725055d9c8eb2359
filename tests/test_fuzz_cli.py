"""Byte-mutation fuzzing of the CLI.

Whatever bytes the input files hold, ``main`` returns or exits with 0
(success), 1 (usage error) or 2 (data error); any other exception leaving
``main`` is a bug. On the unmutated inputs every command exits 0, so each
example reaches past argument parsing. Examples are derandomized and their
number is fixed, so the test is reproducible and its cost bounded.
"""
import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemln import MLN, InterLayerEdges, LayerGraph
from hemln.cli import main
from hemln.fileio import save_mln

SPEC = "G1 #(G1,G2) G2"
IMDB_TSVS = {
    "movies": "tconst\tprimaryTitle\tgenres\taverageRating\n"
              "t1\tOne\tDrama,Crime\t7.9\nt2\tTwo\tDrama\t8.0\nt3\tThree\tComedy\t\\N\n",
    "people": "nconst\tprimaryName\np1\tAnn\np2\tBob\np3\tCyd\np4\tDee\n",
    "acts": "nconst\ttconst\np1\tt1\np2\tt1\np2\tt2\np1\tt3\n",
    "directs": "nconst\ttconst\np3\tt1\np3\tt2\np4\tt3\n",
}
TARGETS = ("mln/layer_G1.tsv", "mln/inter_G1_G2.tsv", "run/membership_G1.tsv",
           "run/result.jsonl", "imdb/movies.tsv", "imdb/people.tsv",
           "imdb/acts.tsv", "imdb/directs.tsv")


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    """Valid inputs for every command; each example mutates a copy."""
    root = tmp_path_factory.mktemp("fuzz-seed")
    mln = MLN()
    mln.add_layer(LayerGraph.build("G1", range(6), [(0, 1), (1, 2), (0, 2),
                                                    (3, 4), (4, 5), (3, 5)]))
    mln.add_layer(LayerGraph.build("G2", range(10, 16), [(10, 11), (11, 12),
                                                         (13, 14), (14, 15)]))
    mln.add_interlayer(InterLayerEdges.build("G1", "G2",
                                             [(0, 10), (1, 11), (3, 13), (5, 15)]))
    save_mln(mln.freeze(), root / "mln")
    assert main(["kcommunity", "--mln", str(root / "mln"), "--spec", SPEC,
                 "--out", str(root / "run")]) == 0
    (root / "imdb").mkdir()
    for name, text in IMDB_TSVS.items():
        (root / "imdb" / f"{name}.tsv").write_text(text)
    return root


def _commands(d: Path):
    mln, run, imdb = d / "mln", d / "run", d / "imdb"
    argvs = [
        ["kcommunity", "--mln", mln, "--spec", SPEC, "--metric", "h", "--seed", "3",
         "--hub-quantile", "0.5", "--out", d / "out1"],
        ["kcommunity", "--mln", mln, "--spec", SPEC, "--memberships", run,
         "--out", d / "out2"],
        ["cbg", "--mln", mln, "--pair", "G1,G2", "--memberships", run],
        ["rank", "--result", run / "result.jsonl", "--key", "min_density",
         "--mln", mln, "--memberships", run],
        ["detect", "--layer", mln / "layer_G1.tsv", "--out", d / "m.tsv"],
        ["ingest-imdb", *(arg for name in IMDB_TSVS
                          for arg in (f"--{name}", imdb / f"{name}.tsv")),
         "--out", d / "imdb-mln"],
    ]
    return [[str(a) for a in argv] for argv in argvs]


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for op, at, chunk in mutations:
        at %= len(buf) + 1
        if op == "replace":
            buf[at:at + len(chunk)] = chunk
        elif op == "insert":
            buf[at:at] = chunk
        else:
            del buf[at:at + len(chunk)]
    return bytes(buf)


# raw bytes (mostly not UTF-8) and text drawn from the files' own syntax
CHUNKS = st.binary(min_size=1, max_size=8) | st.text(
    "0123456789\t\n #=:,.-eGMtp\\N\"[]{}", min_size=1, max_size=8).map(str.encode)
MUTATIONS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                               st.integers(0, 1 << 12), CHUNKS),
                     min_size=1, max_size=4)


def _run(argv):
    """main's exit code and stderr, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_commands_exit_0_on_unmutated_inputs(seed_dir, tmp_path):
    # a command that fails on valid inputs would fuzz only its own error path
    d = tmp_path / "in"
    shutil.copytree(seed_dir, d)
    for argv in _commands(d):
        assert _run(argv) == (0, ""), argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(target=st.sampled_from(TARGETS), mutations=MUTATIONS)
def test_mutated_inputs_exit_0_1_or_2(seed_dir, target, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "in"
        shutil.copytree(seed_dir, d)
        path = d / target
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        for argv in _commands(d):
            code, err = _run(argv)
            assert code in (0, 1, 2), (argv, err)
