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

``hemln.fileio`` splits a decoded file into lines one ``BLOCK`` at a time,
and the reference loaders split it whole. Every differential test runs again
with ``BLOCK`` set to 1 and to 7 characters, so the point past which a block
may end falls inside '\\r\\n' pairs, tokens and comments, and a property test
holds the split itself to ``enumerate(text.splitlines(), 1)``.
"""
import logging

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hemln import fileio
from hemln.errors import IoError, ParseError
from hemln.fileio import load_interlayer, load_layer
from oracle import reference_load_interlayer, reference_load_layer
from test_fuzz_cli import _mutate

SEEDS = (
    b"layer\tA\n1\n2\n3\n17\n204\nedge\t1\t2\nedge\t2\t3\nedge\t3\t1\n"
    b"edge\t17\t204\nedge\t2\t1\n",
    b"; comment\r\n\r\nlayer\tB\r\n1\r\n2\r\n3\r\n17\r\n204\r\n; between\r\n"
    b"edge\t1\t2\r\n\r\nedge\t204\t17\r\n",
)

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


def _assert_same(path, caplog, load=load_layer, reference=reference_load_layer):
    with caplog.at_level(logging.WARNING, logger="hemln.fileio"):
        got = _outcome(load, path, caplog)
        want = _outcome(reference, path, caplog)
    assert got == want
    # a fault is a ParseError at its line, or the file is unreadable
    assert got[0][0] == "ok" or got[0][1] in (ParseError, IoError)


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


@pytest.fixture(params=(1, 7), ids="block={}".format)
def small_blocks(request, monkeypatch):
    """Every load splits its text a few characters at a time."""
    monkeypatch.setattr(fileio, "BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("data", [*(t.encode() for t in CASES.values()), NOT_UTF8],
                         ids=[*CASES, "not utf-8"])
def test_layer_files_in_small_blocks_match_reference(tmp_path, caplog, data):
    path = tmp_path / "layer.tsv"
    path.write_bytes(data)
    _assert_same(path, caplog)


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
