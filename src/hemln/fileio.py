"""File formats: layer and inter-layer TSVs, MLN directories and membership
files.

Layer file:

    layer <TAB> A
    1
    2
    edge <TAB> 1 <TAB> 2

Inter-layer file:

    interlayer <TAB> A <TAB> D
    1 <TAB> 10

Both are UTF-8 with ';' comment lines. Node ids are non-negative, and an
edge names two distinct nodes declared on earlier lines. Membership files
are ``node <TAB> community`` with '#' comments. Saves are canonically
sorted so save -> load -> save is byte-identical. A load decodes the whole
file, so a decode error wins over any parse error, then splits it into lines
a ``BLOCK`` at a time: a list of every line would hold ~5x the file.
"""
from __future__ import annotations

import os
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .community import Membership, load_membership
from .errors import IoError, ParseError
from .model import MLN, InterLayerEdges, LayerGraph, sorted_rows

COMMENT = ";"
BLOCK = 1 << 16  # characters split into lines at a time


def _read_text(path: os.PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None


def _numbered(text: str) -> Iterator[Tuple[int, str]]:
    """``enumerate(text.splitlines(), 1)`` in blocks that end after the first
    '\\n' at or past ``BLOCK`` characters, so no '\\r\\n' straddles two."""
    def blocks() -> Iterator[str]:
        start, n = 0, len(text)
        while start < n:
            end = text.find("\n", start + BLOCK) + 1 or n
            yield text[start:end]
            start = end
    return enumerate(chain.from_iterable(map(str.splitlines, blocks())), 1)


def _lines(path: os.PathLike, comment: str) -> Iterator[Tuple[int, str]]:
    """Numbered non-blank lines, stripped, without ``comment`` lines."""
    for lineno, raw in _numbered(_read_text(path)):
        line = raw.strip()
        if line and not line.startswith(comment):
            yield lineno, line


# ---------------------------------------------------------------------------
# layer / inter-layer files


def load_layer(path: os.PathLike) -> LayerGraph:
    """The layer in ``path``; the first faulty line raises a ParseError naming it.
    Rows fill as lists in node-line order (renumbered once if it is not ascending);
    a repeat ``sorted_rows`` finds, at the end or at a fault, is logged per line."""
    text = _read_text(path)
    layer_id: Optional[str] = None
    position: Dict[int, int] = {}  # node -> its row, in node-line order
    row_of: Dict[str, int] = {}  # node token -> its row, shared by every edge
    rows: List[List[int]] = []
    token_row = row_of.get
    try:
        for lineno, raw in _numbered(text):
            line = raw.strip()  # as _lines, inlined on the hot path
            if not line or line[0] == COMMENT:
                continue
            fields = line.split("\t")
            if layer_id is None:
                if len(fields) != 2 or fields[0] != "layer":
                    raise ParseError("expected header 'layer <TAB> <id>'", lineno)
                layer_id = fields[1]
            elif fields[0] == "edge":
                if len(fields) != 3:
                    raise ParseError("expected 'edge <TAB> u <TAB> v'", lineno)
                i, j = token_row(fields[1]), token_row(fields[2])
                if i is None or j is None:  # e.g. '07', '+7' or an undeclared node
                    u, v = _int(fields[1], lineno), _int(fields[2], lineno)
                    i, j = position.get(u), position.get(v)
                    if i is None or j is None:
                        raise ParseError(f"edge ({u},{v}) references undeclared node",
                                         lineno)
                if i == j:  # both tokens are ints by now, as in the messages
                    raise ParseError(f"self-loop on node {int(fields[1])} in layer "
                                     f"{layer_id}", lineno)
                rows[i].append(j)
                rows[j].append(i)
            elif len(fields) == 1:
                n = _int(fields[0], lineno)
                if n < 0:
                    raise ParseError(f"node id {n} is not a non-negative integer", lineno)
                row_of[fields[0]] = i = position.setdefault(n, len(rows))
                if i == len(rows):
                    rows.append([])
            else:
                raise ParseError(f"unrecognized line {line!r}", lineno)
    except ParseError as exc:  # every line before the fault is valid
        order = list(position)  # rows are in node-line order until the remap
        _log_duplicates(path, text, {order[i] for i in sorted_rows(rows)}, exc.line - 1)
        raise
    if layer_id is None:
        raise ParseError("missing layer header", 1)
    nodes = sorted(position)
    if nodes != list(position):  # node lines out of order: rows follow sorted nodes
        new = list(map(dict(zip(nodes, range(len(nodes)))).__getitem__, position))
        rows = [map(new.__getitem__, rows[position[n]]) for n in nodes]
    _log_duplicates(path, text, {nodes[i] for i in sorted_rows(rows)})
    return LayerGraph(layer_id, frozenset(nodes), tuple(rows))


def _log_duplicates(path: os.PathLike, text: str, ends: set,
                    lines: Optional[int] = None) -> None:
    """Warn of each repeated edge line in the first ``lines`` of ``text``; ``ends``
    holds the ends of every such line: the nodes whose rows held a repeat."""
    if not ends:
        return
    import logging  # only a file with a repeated edge line needs it
    seen: set = set()
    for lineno, raw in islice(_numbered(text), lines):
        fields = raw.strip().split("\t")
        if fields[0] == "edge" and int(fields[1]) in ends:
            u, v = int(fields[1]), int(fields[2])
            edge = (u, v) if u < v else (v, u)
            if edge in seen:
                logging.getLogger(__name__).warning(
                    "%s line %d: duplicate edge (%d,%d) ignored", path, lineno, u, v)
            seen.add(edge)


def save_layer(g: LayerGraph, path: os.PathLike) -> None:
    """Sorted node lines, then each edge once by rows; each id is formatted once."""
    names = list(map(str, sorted(g.nodes)))
    lines = [f"layer\t{g.id}", *names]
    lines += [f"edge\t{u}\t{names[j]}" for i, (u, row) in enumerate(zip(names, g.nbrs))
              for j in row if i < j]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_interlayer(path: os.PathLike) -> InterLayerEdges:
    """The links in ``path``; each distinct token becomes one int, shared by its links."""
    header: Optional[Tuple[str, str]] = None
    links: List[Tuple[int, int]] = []
    ints = cache(int)
    for lineno, raw in _numbered(_read_text(path)):
        line = raw.strip()  # as _lines, inlined on the hot path
        if not line or line[0] == COMMENT:
            continue
        fields = line.split("\t")
        if header is None:
            if len(fields) != 3 or fields[0] != "interlayer":
                raise ParseError("expected header 'interlayer <TAB> L1 <TAB> L2'",
                                 lineno)
            header = (fields[1], fields[2])
        else:
            if len(fields) != 2:
                raise ParseError("expected 'u <TAB> v'", lineno)
            try:
                links.append((ints(fields[0]), ints(fields[1])))
            except ValueError:  # _int raises the ParseError naming the token
                _int(fields[0], lineno), _int(fields[1], lineno)
    if header is None:
        raise ParseError("missing interlayer header", 1)
    return InterLayerEdges(header[0], header[1], frozenset(links))  # int() made exact ints


def save_interlayer(x: InterLayerEdges, path: os.PathLike) -> None:
    lines = [f"interlayer\t{x.from_layer}\t{x.to_layer}"]
    lines += [f"{a}\t{b}" for a, b in sorted(x.links)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


# ---------------------------------------------------------------------------
# MLN directories


def save_mln(mln: MLN, directory: os.PathLike) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for lid in sorted(mln.layers):
        save_layer(mln.layers[lid], directory / f"layer_{lid}.tsv")
    for l1, l2 in mln.interlayer_pairs():
        save_interlayer(mln.stored_interlayer(l1, l2),
                        directory / f"inter_{l1}_{l2}.tsv")


def load_mln(directory: os.PathLike) -> MLN:
    directory = Path(directory)
    if not directory.is_dir():
        raise IoError(f"{directory} is not a directory")
    mln = MLN()
    for path in sorted(directory.glob("layer_*.tsv")):
        mln.add_layer(load_layer(path))
    for path in sorted(directory.glob("inter_*.tsv")):
        mln.add_interlayer(load_interlayer(path))
    return mln.freeze()


# ---------------------------------------------------------------------------
# membership files


def save_membership_tsv(m: Membership, path: os.PathLike) -> None:
    lines = [f"# layer {m.layer}"]
    lines += [f"{n}\t{c}" for n, c in sorted(m.assignment.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_membership_tsv(g: LayerGraph, path: os.PathLike) -> Membership:
    rows: List[Tuple[int, int]] = []
    for lineno, line in _lines(path, "#"):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'node <TAB> community'", lineno)
        rows.append((_int(fields[0], lineno), _int(fields[1], lineno)))
    return load_membership(g, rows)
