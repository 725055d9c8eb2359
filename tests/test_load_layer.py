"""Differential tests of the layer- and inter-layer-file loaders.

``hemln.fileio.load_layer`` resolves each node token once and appends each
edge to two list rows; only when sorting the rows finds a repeat, at the
end or at a fault, does it walk the text again for the warnings.
``oracle.reference_load_layer`` parses every token and keeps an edge list
plus a seen-set. ``hemln.fileio.load_interlayer`` parses each distinct link
token once; ``oracle.reference_load_interlayer`` calls ``_int`` on each.
For any file each pair must return equal graphs and log
the same duplicate-edge warnings, or raise the same exception class with the
same message (line number included). Every fault in a line, a self-loop
and a negative node included, is a ``ParseError`` naming that line, and the
first faulty line wins; only an unreadable file is an ``IoError``. The
hypothesis examples insert lines into valid files and mutate their bytes;
they are derandomized, so the tests are reproducible and their cost bounded.

``hemln.fileio`` takes a decoded file one ``BLOCK`` at a time, and the
reference loaders split it whole. A block that is a plain run (every line
``edge <TAB> u <TAB> v`` of declared, distinct nodes, or ``u <TAB> v`` of
ints) is split at once; any other block goes through the line loop. Every
differential test runs again with ``BLOCK`` set to 1 and 7 characters, so
the point past which a block may end falls inside '\\r\\n' pairs, tokens and
comments, and to 12, 24 and 40, so blocks of one to five edge lines are
runs. The named cases nearly form a run: each breaks one rule of the run
check amid plain edge or link lines. A property test holds the block split
to ``enumerate(text.splitlines(), 1)``. On a bench-sized layer and
inter-layer file, runs in every block after the header's (LF, and CRLF,
which reads as LF), no run (a tab after each line) and a ';' line in every
block give the same result.
"""
import logging
import operator
import random
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hemln import fileio
from hemln.errors import DuplicateNode, IoError, MissingNode, ParseError, UnknownNode
from hemln.fileio import (load_interlayer, load_layer, load_membership_tsv,
                          save_interlayer)
from hemln.model import InterLayerEdges, LayerGraph
from oracle import (reference_load_interlayer, reference_load_layer,
                    reference_load_membership_tsv)
from test_fuzz_cli import _mutate

SEEDS = (
    b"layer\tA\n1\n2\n3\n17\n204\nedge\t1\t2\nedge\t2\t3\nedge\t3\t1\n"
    b"edge\t17\t204\nedge\t2\t1\n",
    b"; comment\r\n\r\nlayer\tB\r\n1\r\n2\r\n3\r\n17\r\n204\r\n; between\r\n"
    b"edge\t1\t2\r\n\r\nedge\t204\t17\r\n",
)


def _amid_edges(lines: str, end: str = "\n") -> str:
    """A layer of nodes 1-7 whose edge lines form plain runs at blocks of 12-40
    characters, with ``lines`` amid them; ``end`` ends the file."""
    before = "".join(f"edge\t{u}\t{u + 1}\n" for u in range(1, 7))
    after = "".join(f"edge\t{u}\t{u + 2}\n" for u in range(1, 6))
    return "layer\tA\n1\n2\n3\n4\n5\n6\n7\n" + before + lines + after[:-1] + end


CASES = {
    "zero-padded and signed tokens": "layer\tA\n7\n8\nedge\t07\t+8\nedge\t8\t7\n",
    "zero-padded node lines": "layer\tA\n07\n7\n+8\nedge\t7\t8\nedge\t07\t08\n",
    "signed self-loop": "layer\tA\n7\nedge\t+7\t7\n",
    "edge before its node line": "layer\tA\n1\nedge\t1\t2\n2\n",
    "undeclared padded token": "layer\tA\n1\nedge\t1\t09\n",
    "self-loop then parse error": "layer\tA\n1\n2\nedge\t1\t1\nedge\t1\tx\n",
    "self-loop then undeclared node": "layer\tA\n1\n2\nedge\t2\t2\nedge\t1\t3\n",
    "two self-loops": "layer\tA\n1\n2\n5\nedge\t5\t5\nedge\t1\t2\nedge\t1\t1\n",
    "repeated self-loop": "layer\tA\n1\nedge\t1\t1\nedge\t1\t1\n",
    "negative nodes": "layer\tA\n-1\n-2\n3\nedge\t-1\t3\n",
    # the first faulty line wins, a node line or an edge line
    "negative node and a self-loop": "layer\tA\n-1\n2\nedge\t2\t2\n",
    "self-loop, then a negative node line": "layer\tA\n1\nedge\t1\t1\n-3\n",
    "self-loop on an undeclared node": "layer\tA\n1\nedge\t3\t3\n",
    "duplicate edges": "layer\tA\n1\n2\n3\nedge\t1\t2\nedge\t2\t1\nedge\t1\t2\n",
    # a repeat's warnings come from a walk over the text, before any fault
    "duplicate, then a fault": "layer\tA\n1\n2\nedge\t1\t2\nedge\t2\t1\nedge\t1\tx\n",
    "padded duplicate, then an undeclared node":
        "layer\tA\n7\n8\nedge\t7\t8\nedge\t08\t+7\nedge\t7\t9\n",
    "node lines out of order with a repeated edge":
        "layer\tA\n3\n1\n2\nedge\t3\t1\nedge\t1\t3\nedge\t2\t3\n",
    "node lines out of order, a repeated edge, then a fault":
        "layer\tA\n3\n1\n2\nedge\t3\t1\nedge\t1\t3\nedge\t2\t-\n",
    "crlf with comments and blanks":
        "; head\r\n\r\nlayer\tA\r\n1\r\n ; not a comment\r\n",
    "crlf edges": "layer\tA\r\n1\r\n2\r\n\r\n; c\r\nedge\t1\t2\r\nedge\t2\t1\r\n",
    "spaces inside a token": "layer\tA\n1\n2\nedge\t 1\t2 \nedge\t2\t1\n",
    "underscore token": "layer\tA\n10\n2\nedge\t1_0\t2\n",
    "bad edge token": "layer\tA\n1\nedge\t1\tone\n",
    "short edge line": "layer\tA\n1\nedge\t1\n",
    "unrecognized line": "layer\tA\n1\t2\n",
    "missing header": "; only a comment\n",
    "bad header": "1\n2\n",
    # each breaks one rule of the run check amid plain edge lines
    "plain runs": _amid_edges(""),
    "a short edge line, then a long one, amid a run": _amid_edges("edge\t1\nedge\t2\t3\t4\n"),
    "a long edge line, then a short one, amid a run": _amid_edges("edge\t1\t3\t5\nedge\t2\n"),
    # read_text reads '\r\n' and '\r' as '\n', so these two are plain runs
    "a CRLF line amid a run": _amid_edges("edge\t1\t4\r\n"),
    "a CR inside a line amid a run": _amid_edges("edge\t1\t4\redge\t2\t5\n"),
    "a vertical tab, then a fault": _amid_edges("edge\t1\t4\x0b\nedge\t1\t9\n"),
    "a next-line character, then a fault": _amid_edges("edge\t1\t4\x85\nedge\t1\t9\n"),
    "a trailing space amid a run": _amid_edges("edge\t1\t4 \n"),
    "a trailing tab amid a run": _amid_edges("edge\t1\t4\t\n"),
    "a leading space amid a run": _amid_edges(" edge\t1\t4\n"),
    "a blank line amid a run": _amid_edges("\n"),
    "a comment amid a run": _amid_edges("; c\n"),
    "a node line amid a run": _amid_edges("8\nedge\t1\t8\n"),
    "a self-loop amid a run": _amid_edges("edge\t3\t3\n"),
    "a self-loop by two declared tokens amid a run":
        _amid_edges("03\nedge\t3\t03\n"),
    "an undeclared node amid a run": _amid_edges("edge\t3\t9\n"),
    "a zero-padded token amid a run": _amid_edges("edge\t03\t5\n"),
    "a repeated edge amid a run": _amid_edges("edge\t2\t1\nedge\t3\t2\n"),
    "a repeated edge amid a run, then a fault":
        _amid_edges("edge\t2\t1\nedge\t1\tx\n"),
    "no final newline": _amid_edges("", end=""),
    "no final newline, and a fault on the last line":
        _amid_edges("", end="\nedge\t1\t9"),
}
NOT_UTF8 = b"layer\tA\n1\n\xff\n"


def _outcome(load, path, caplog):
    """('ok', graph) or ('error', class, message), with the warnings logged."""
    caplog.clear()
    try:
        result = ("ok", load(path))
    except Exception as exc:  # compared, not handled: both sides must agree
        result = ("error", type(exc), str(exc))
    return result, [r.getMessage() for r in caplog.records]


def _assert_same(path, caplog, load=load_layer, reference=reference_load_layer,
                 errors=(ParseError, IoError)):
    with caplog.at_level(logging.WARNING, logger="hemln.fileio"):
        got = _outcome(load, path, caplog)
        want = _outcome(reference, path, caplog)
    assert got == want
    # a fault is a ParseError at its line, or the file is unreadable
    assert got[0][0] == "ok" or got[0][1] in errors


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_load_layer_matches_reference(tmp_path, caplog, text):
    path = tmp_path / "layer.tsv"
    path.write_bytes(text.encode())
    _assert_same(path, caplog)


def test_duplicate_warning_comes_before_the_fault(tmp_path, caplog):
    path = tmp_path / "layer.tsv"
    path.write_text(CASES["duplicate, then a fault"], encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="hemln.fileio"):
        with pytest.raises(ParseError) as raised:
            load_layer(path)
    assert str(raised.value) == "line 6: expected an integer, got 'x'"
    assert [r.getMessage() for r in caplog.records] == [
        f"{path} line 5: duplicate edge (2,1) ignored"]


def test_not_utf8_matches_reference(tmp_path, caplog):
    path = tmp_path / "layer.tsv"
    path.write_bytes(NOT_UTF8)
    _assert_same(path, caplog)


@pytest.fixture(params=(1, 7, 12, 24, 40), ids="block={}".format)
def small_blocks(request, monkeypatch):
    """Every load takes its text a few characters at a time: at 12, 24 and 40
    a block of plain edge or link lines is a run of one to five lines."""
    monkeypatch.setattr(fileio, "BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("data", [*(t.encode() for t in CASES.values()), NOT_UTF8],
                         ids=[*CASES, "not utf-8"])
def test_layer_files_in_small_blocks_match_reference(tmp_path, caplog, data):
    path = tmp_path / "layer.tsv"
    path.write_bytes(data)
    _assert_same(path, caplog)


ROW_OF = {"1": 0, "2": 1, "3": 2, "4": 3, "03": 2}  # '03' declared after '3'
EDGE_RUNS = {
    "plain": ("edge\t1\t2\nedge\t4\t03\n", ([0, 3], [1, 2])),
    "a self-loop (load_layer rejects it)": ("edge\t3\t03\n", ([2], [2])),
}
NOT_EDGE_RUNS = {
    # the block starts with 'edge<TAB>'
    "a node line first": "1\nedge\t1\t2\n",
    "a space first": " edge\t1\t2\n",
    # every line after the first starts with 'edge<TAB>'
    "a link line": "edge\t1\t2\n3\t4\n",
    "a blank line": "edge\t1\t2\n\nedge\t2\t3\n",
    "a comment line": "edge\t1\t2\n; c\n",
    "a line that starts 'edges'": "edge\t1\t2\nedges\t2\t3\n",
    # exactly 3 fields a line
    "a short edge line, then a long one": "edge\t1\nedge\t2\t3\t4\n",
    "a long edge line, then a short one": "edge\t1\t2\t3\nedge\t4\n",
    "a trailing tab": "edge\t1\t2\t\n",
    # every endpoint is a declared token
    "an undeclared node": "edge\t1\t9\n",
    "a zero-padded token": "edge\t1\t02\n",
    "a trailing space": "edge\t1\t2 \n",
    "a vertical tab": "edge\t1\t2\x0bedge\t2\t3\n",
    "a CRLF line end": "edge\t1\t2\r\n",
    # a final '\n'
    "no final newline": "edge\t1\t2\nedge\t2\t3",
}
INT_RUNS = {
    "plain": ("1\t10\n204\t10\n", ([1, 204], [10, 10])),
    "spaces around the tokens": (" 1 \t 10 \n", ([1], [10])),  # as the line loop reads it
    "padded and signed tokens": ("01\t+10\n", ([1], [10])),
}
NOT_INT_RUNS = {
    # exactly one tab a line
    "a one-token line, then a three-token one": "1\n2\t3\t4\n",
    "a three-token line, then a one-token one": "2\t3\t4\n1\n",
    "a trailing tab": "1\t10\t\n",
    "a leading tab": "\t1\t10\n",
    "a blank line": "1\t10\n\n2\t10\n",
    # every token passes int
    "a comment line with a tab": "; 1\t10\n",
    "a '#' comment line with a tab": "#1\t10\n",
    "a bad token": "1\tx\n",
    # no break but '\n', though int reads these as spaces
    "a CR before a token": "1\t\r10\n",
    "a vertical tab at a line end": "1\t10\x0b\n",
    "a form feed at a line end": "1\t10\x0c\n",
    "a next-line character at a line end": "1\t10\x85\n",
    "a line separator at a line end": "1\t10\u2028\n",
    # a final '\n'
    "no final newline": "1\t10\n2\t11",
}


@pytest.mark.parametrize("block, columns", EDGE_RUNS.values(), ids=EDGE_RUNS.keys())
def test_edge_run_columns(block, columns):
    assert fileio._run(block, ROW_OF.__getitem__, "edge\t") == columns


@pytest.mark.parametrize("block", NOT_EDGE_RUNS.values(), ids=NOT_EDGE_RUNS.keys())
def test_edge_run_check_rejects(block):
    assert fileio._run(block, ROW_OF.__getitem__, "edge\t") is None


@pytest.mark.parametrize("block, columns", INT_RUNS.values(), ids=INT_RUNS.keys())
def test_int_run_columns(block, columns):
    assert fileio._run(block, cache(int)) == columns


@pytest.mark.parametrize("block", NOT_INT_RUNS.values(), ids=NOT_INT_RUNS.keys())
def test_int_run_check_rejects(block):
    assert fileio._run(block, cache(int)) is None


# every character str.splitlines breaks on, '\r\n' as one piece, and layer
# syntax; empty texts and texts without a final line break are drawn too
SPLIT_PIECES = st.sampled_from(("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                "\x1e", "\x85", "\u2028", "\u2029", "\t", ";", "0",
                                "1", "7", "42"))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(text=st.lists(SPLIT_PIECES, max_size=40).map("".join),
       block=st.integers(0, 8))
@example(text="", block=0)
@example(text="1\r\n2", block=1)
def test_block_split_equals_splitlines(text, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "BLOCK", block)
        assert list(fileio._numbered(text)) == list(enumerate(text.splitlines(), 1))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("layer-fuzz") / "layer.tsv"


# well-formed lines over a small token pool: padded, signed, undeclared and
# negative tokens, so files parse, collide and self-loop often
TOKENS = st.sampled_from(("1", "2", "3", "17", "204", "01", "+2", "0204", "-1",
                          "5"))
LINES = st.one_of(st.builds("edge\t{}\t{}\n".format, TOKENS, TOKENS),
                  TOKENS.map("{}\n".format),
                  st.sampled_from(("\n", "; c\n", "\r\n"))).map(str.encode)
# bytes: mostly layer syntax (with the other characters str.splitlines
# breaks on), sometimes raw
CHUNKS = st.text("0123456789\t\n\r+-_ ;edglayrA\x0b\x1c\x85\u2028",
                 min_size=1, max_size=4).map(str.encode) | st.binary(
    min_size=1, max_size=3)
BYTE_MUTATIONS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                                    st.integers(0, 1 << 8), CHUNKS), max_size=2)


def _mutated(seed: bytes, lines, mutations) -> bytes:
    rows = seed.splitlines(keepends=True)
    for at, line in lines:
        rows.insert(at % (len(rows) + 1), line)
    return _mutate(b"".join(rows), mutations)


def _fuzzed(seeds, lines, max_examples):
    """Give the test ``data``: one of ``seeds`` with up to 4 of ``lines``
    inserted and its bytes mutated."""
    files = st.builds(_mutated, st.sampled_from(seeds),
                      st.lists(st.tuples(st.integers(0, 1 << 8), lines), max_size=4),
                      BYTE_MUTATIONS)
    return lambda test: settings(
        derandomize=True, database=None, max_examples=max_examples, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture])(
            given(data=files)(test))


@_fuzzed(SEEDS, LINES, 400)
def test_mutated_layer_files_match_reference(scratch, caplog, data):
    scratch.write_bytes(data)
    _assert_same(scratch, caplog)


@pytest.mark.usefixtures("small_blocks")
@_fuzzed(SEEDS, LINES, 400)
def test_mutated_layer_files_in_small_blocks_match_reference(scratch, caplog, data):
    scratch.write_bytes(data)
    _assert_same(scratch, caplog)


INTER_SEEDS = (
    b"interlayer\tA\tD\n1\t10\n2\t11\n17\t204\n2\t10\n",
    b"; comment\r\n\r\ninterlayer\tA\tD\r\n1\t10\r\n; between\r\n"
    b"204\t17\r\n\r\n",
)


def _amid_links(lines: str, end: str = "\n") -> str:
    """An inter-layer file whose link lines form plain runs at blocks of 12-40
    characters, with ``lines`` amid them; ``end`` ends the file."""
    before = "".join(f"{u}\t{u + 10}\n" for u in range(1, 7))
    after = "".join(f"{u}\t{u + 20}\n" for u in range(1, 6))
    return "interlayer\tA\tD\n" + before + lines + after[:-1] + end


INTER_CASES = {
    "zero-padded and signed tokens": "interlayer\tA\tD\n07\t+10\n7\t10\n",
    "spaces inside a token": "interlayer\tA\tD\n 1\t10 \n",
    "underscore token": "interlayer\tA\tD\n1_0\t2\n",
    "negative tokens": "interlayer\tA\tD\n-1\t-10\n",
    "bad left token": "interlayer\tA\tD\n1\t10\nx\t10\n",
    "bad right token": "interlayer\tA\tD\n1\t10\n1\t1.0\n",
    "both tokens bad": "interlayer\tA\tD\none\tten\n",
    "short link line": "interlayer\tA\tD\n1\n",
    "long link line": "interlayer\tA\tD\n1\t2\t3\n",
    "same layer twice": "interlayer\tA\tA\n1\t2\n",  # MLN.add_interlayer rejects it
    "missing header": "; only a comment\n",
    "bad header": "1\t10\n",
    # each breaks one rule of the run check amid plain link lines
    "plain runs": _amid_links(""),
    "a one-token line, then a three-token one, amid a run": _amid_links("1\n2\t3\t4\n"),
    "a three-token line, then a one-token one, amid a run": _amid_links("2\t3\t4\n1\n"),
    "a CRLF line amid a run": _amid_links("1\t4\r\n"),  # read as '\n'
    "a CR before a token amid a run": _amid_links("1\t\r4\n"),  # a line break
    "a vertical tab, then a fault": _amid_links("1\t4\x0b\nx\t1\n"),
    "a form feed inside a line, then a fault": _amid_links("1\t4\x0c2\t5\nx\t1\n"),
    "a next-line character, then a fault": _amid_links("1\t4\x85\nx\t1\n"),
    "a line separator, then a fault": _amid_links("1\t4\u2028\nx\t1\n"),
    "a trailing space amid a run": _amid_links("1\t4 \n"),
    "a trailing tab amid a run": _amid_links("1\t4\t\n"),
    "a leading tab amid a run": _amid_links("\t1\t4\n"),
    "a blank line amid a run": _amid_links("\n"),
    "a comment amid a run": _amid_links("; c\n"),
    "a bad token amid a run": _amid_links("1\tx\n"),
    "zero-padded and signed tokens amid a run": _amid_links("01\t+4\n"),
    "a repeated link amid a run": _amid_links("1\t11\n"),
    "no final newline": _amid_links("", end=""),
    "no final newline, and a fault on the last line": _amid_links("", end="\n1\tx"),
}


@pytest.mark.parametrize("text", INTER_CASES.values(), ids=INTER_CASES.keys())
def test_load_interlayer_matches_reference(tmp_path, caplog, text):
    path = tmp_path / "inter.tsv"
    path.write_bytes(text.encode())
    _assert_same(path, caplog, load_interlayer, reference_load_interlayer)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("text", INTER_CASES.values(), ids=INTER_CASES.keys())
def test_interlayer_files_in_small_blocks_match_reference(tmp_path, caplog, text):
    path = tmp_path / "inter.tsv"
    path.write_bytes(text.encode())
    _assert_same(path, caplog, load_interlayer, reference_load_interlayer)


INTER_LINES = st.one_of(st.builds("{}\t{}\n".format, TOKENS, TOKENS),
                        st.sampled_from(("\n", "; c\n", "\r\n", "1\n"))
                        ).map(str.encode)


@_fuzzed(INTER_SEEDS, INTER_LINES, 300)
def test_mutated_interlayer_files_match_reference(scratch, caplog, data):
    scratch.write_bytes(data)
    _assert_same(scratch, caplog, load_interlayer, reference_load_interlayer)


@pytest.mark.usefixtures("small_blocks")
@_fuzzed(INTER_SEEDS, INTER_LINES, 300)
def test_mutated_interlayer_files_in_small_blocks_match_reference(scratch, caplog,
                                                                  data):
    scratch.write_bytes(data)
    _assert_same(scratch, caplog, load_interlayer, reference_load_interlayer)


# membership files: the loader shares the inter-layer loader's run check
MEMBER_LAYER = LayerGraph.build("A", range(1, 13), [])
MEMBER_ERRORS = (ParseError, IoError, DuplicateNode, MissingNode, UnknownNode)


def _load_members(path):
    return load_membership_tsv(MEMBER_LAYER, path)


def _reference_members(path):
    return reference_load_membership_tsv(MEMBER_LAYER, path)


def _amid_members(lines: str, end: str = "\n") -> str:
    """A membership of nodes 1-12 whose lines form plain runs at blocks of
    12-40 characters, with ``lines`` amid them; ``end`` ends the file."""
    before = "".join(f"{n}\t{(n + 1) // 2}\n" for n in range(1, 7))
    after = "".join(f"{n}\t{n % 3 + 1}\n" for n in range(7, 13))
    return "# layer A\n" + before + lines + after[:-1] + end


MEMBER_CASES = {
    "plain runs": _amid_members(""),
    "crlf": _amid_members("").replace("\n", "\r\n"),
    "zero-padded and signed tokens": _amid_members("01\t+1\n"),
    "a one-token line, then a three-token one": _amid_members("1\n2\t3\t4\n"),
    "a vertical tab, then a fault": _amid_members("1\t1\x0b\nx\t1\n"),
    "a next-line character, then a fault": _amid_members("1\t1\x85\nx\t1\n"),
    "a trailing space": _amid_members("1\t1 \n"),
    "a trailing tab": _amid_members("1\t1\t\n"),
    "a blank line": _amid_members("\n"),
    "a '#' comment": _amid_members("# c\n"),
    "a ';' line": _amid_members("; c\n"),
    "a bad token": _amid_members("3\tx\n"),
    "a node listed twice with two indices": _amid_members("1\t5\n"),
    "a node outside the layer": _amid_members("99\t1\n"),
    "a node missing": "# layer A\n1\t1\n2\t1\n",
    "no final newline": _amid_members("", end=""),
    "no final newline, and a fault on the last line": _amid_members("", end="\n1\tx"),
}


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("text", MEMBER_CASES.values(), ids=MEMBER_CASES.keys())
def test_membership_files_match_reference(tmp_path, caplog, text):
    path = tmp_path / "membership_A.tsv"
    path.write_bytes(text.encode())
    _assert_same(path, caplog, _load_members, _reference_members, MEMBER_ERRORS)


MEMBER_SEEDS = (_amid_members("").encode(), _amid_members("# c\n\n").replace(
    "\n", "\r\n").encode())
MEMBER_LINES = st.one_of(st.builds("{}\t{}\n".format, TOKENS, TOKENS),
                         st.sampled_from(("\n", "# c\n", "; c\n", "\r\n", "1\n"))
                         ).map(str.encode)


@pytest.mark.usefixtures("small_blocks")
@_fuzzed(MEMBER_SEEDS, MEMBER_LINES, 150)
def test_mutated_membership_files_match_reference(scratch, caplog, data):
    scratch.write_bytes(data)
    _assert_same(scratch, caplog, _load_members, _reference_members, MEMBER_ERRORS)


# bench-sized files: the bulk path and the line loop give the same result


@pytest.fixture
def runs_taken(monkeypatch):
    """Whether each block a load offers ``_run`` is a run (the header's block
    is not offered)."""
    taken = []
    run = fileio._run

    def spy(*args):
        columns = run(*args)
        taken.append(columns is not None)
        return columns
    monkeypatch.setattr(fileio, "_run", spy)
    return taken


def _copies(text: str) -> dict:
    """``text``, and copies with CRLF ends, a trailing tab on each line, and a
    ';' line every 1000 lines (and last), each with whether its blocks are runs:
    read_text reads '\\r\\n' as '\\n', so only the last two fall back."""
    lines = text.splitlines(keepends=True)
    commented = [line + "; c\n" * (i % 1000 == 999) for i, line in enumerate(lines)]
    return {"lf": (text, True), "crlf": (text.replace("\n", "\r\n"), True),
            "trailing tabs": (text.replace("\n", "\t\n"), False),
            "comments": ("".join(commented) + "; end\n", False)}


@pytest.mark.parametrize("copy", ["lf", "crlf", "trailing tabs", "comments"])
def test_bench_sized_layer_loads_alike_in_bulk_and_by_line(
        clique_layer, tmp_path, caplog, runs_taken, copy):
    """The ~80k-edge clique layer, one edge line repeated amid the runs."""
    lines = clique_layer[0].read_text().splitlines(keepends=True)
    u, v = lines[30_000].split("\t")[1:]
    lines.insert(40_000, f"edge\t{v.strip()}\t{u}\n")
    text, runs = _copies("".join(lines))[copy]
    path = tmp_path / "layer_M.tsv"
    path.write_bytes(text.encode())
    g = load_layer(clique_layer[0])
    runs_taken.clear()
    with caplog.at_level(logging.WARNING, logger="hemln.fileio"):
        assert load_layer(path) == g and len(caplog.records) == 1
    blocks = len(list(fileio._blocks(path.read_text())))
    assert runs_taken == [runs] * (blocks - 1) and blocks > 60
    _assert_same(path, caplog)


@pytest.mark.parametrize("copy", ["lf", "crlf", "trailing tabs", "comments"])
def test_bench_sized_interlayer_loads_alike_in_bulk_and_by_line(tmp_path, caplog,
                                                                 runs_taken, copy):
    rng = random.Random(3)
    links = {(rng.randrange(2000, 2750), rng.randrange(5000, 6000)) for _ in range(7600)}
    path = tmp_path / "inter_M_A.tsv"
    save_interlayer(InterLayerEdges.build("M", "A", links), path)
    text, runs = _copies(path.read_text())[copy]
    path.write_bytes(text.encode())
    assert load_interlayer(path).links == tuple(sorted(links))
    blocks = len(list(fileio._blocks(path.read_text())))
    assert runs_taken == [runs] * (blocks - 1) and blocks > 3
    _assert_same(path, caplog, load_interlayer, reference_load_interlayer)


def test_shuffled_repeated_links_load_sorted_and_distinct(tmp_path, runs_taken):
    """Every link line twice, in shuffled order, over runs: the sort in place and
    the drop of adjacent repeats give the links ascending, each once."""
    rng = random.Random(5)
    links = {(rng.randrange(2000, 2750), rng.randrange(5000, 6000)) for _ in range(7600)}
    lines = [f"{a}\t{b}\n" for a, b in links] * 2
    rng.shuffle(lines)
    path = tmp_path / "inter_M_A.tsv"
    path.write_text("interlayer\tM\tA\n" + "".join(lines))
    x = load_interlayer(path)
    assert all(map(operator.lt, x.links, x.links[1:])) and len(x.links) == len(links)
    assert x == InterLayerEdges.build("M", "A", links) and runs_taken and all(runs_taken)
