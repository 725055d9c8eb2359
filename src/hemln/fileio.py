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
file, so a decode error wins over any parse error, then takes it a ``BLOCK``
at a time (a list of every line would hold ~5x the file), each ending at a
'\\n'. A block whose lines (past the header) all read ``edge <TAB> u <TAB> v``
of declared, distinct nodes, or ``u <TAB> v`` of ints, is a plain run: split
at once, its tokens resolved by ``map``, all checked first. Other blocks go
line by line, so that loop raises every fault. ``BLOCK`` is 16 Ki: with 64 Ki
the bulk split raised a load's traced peak by ~20%.
"""
from __future__ import annotations

import os
from functools import cache
from itertools import chain, islice
from operator import eq
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .community import Membership, load_membership
from .errors import IoError, ParseError
from .model import MLN, InterLayerEdges, LayerGraph, sorted_rows

COMMENT = ";"
BLOCK = 1 << 14  # characters taken at a time
BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' breaks but '\n'


def _read_text(path: os.PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None


def _blocks(text: str) -> Iterator[str]:
    """``text`` in pieces that end after the first '\\n' at or past ``BLOCK``
    characters, so no '\\r\\n' straddles two."""
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start + BLOCK) + 1 or n
        yield text[start:end]
        start = end


def _numbered(text: str) -> Iterator[Tuple[int, str]]:
    """``enumerate(text.splitlines(), 1)``, split a block at a time."""
    return enumerate(chain.from_iterable(map(str.splitlines, _blocks(text))), 1)


def _run(block: str, resolve: Callable[[str], int], first: str = ""):
    """Columns u and v of ``block``, each token ``resolve``d, if every line is
    ``first`` + ``u <TAB> v`` ending in '\\n' and no other break is in it; else None."""
    n, lines = block.count("\n"), "\n" + block[:-1]  # a '\n' before each line
    if (block[-1] != "\n" or lines.count("\n" + first) != n
            or any(map(block.__contains__, BREAKS))):  # int() reads '\x85' as a space
        return None
    fields = lines.replace("\n" + first, "\t\n\t").split("\t")  # '', '\n', u, v, '\n', ...
    try:  # given 3n + 1 fields, a line without exactly one tab puts a '\n' in u or v
        us, vs = list(map(resolve, fields[2::3])), list(map(resolve, fields[3::3]))
    except (KeyError, ValueError):  # e.g. a blank or comment line, '07' or '2 '
        return None
    return (us, vs) if len(fields) == 3 * n + 1 else None


# ---------------------------------------------------------------------------
# layer / inter-layer files


def load_layer(path: os.PathLike) -> LayerGraph:
    """The layer in ``path``; the first faulty line raises a ParseError naming it.
    Rows fill as lists in node-line order (renumbered once if not ascending), a run's
    edges at once; a repeat ``sorted_rows`` finds, at the end or at a fault, is logged."""
    text = _read_text(path)
    layer_id: Optional[str] = None
    position: Dict[int, int] = {}  # node -> its row, in node-line order
    row_of: Dict[str, int] = {}  # node token -> its row, shared by every edge
    rows: List[List[int]] = []
    token_row, lineno = row_of.get, 0
    try:
        for block in _blocks(text):
            run = layer_id is not None and _run(block, row_of.__getitem__, "edge\t")
            if run and not any(map(eq, *run)):  # and no self-loop
                for i, j in zip(*run):
                    rows[i].append(j)
                    rows[j].append(i)
                lineno += len(run[0])
                continue
            for lineno, raw in enumerate(block.splitlines(), lineno + 1):
                line = raw.strip()
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
    """The links in ``path``, read by ``_int_pairs``: a plain run a block at a time."""
    ids, links = _int_pairs(path, COMMENT, "u <TAB> v", "interlayer")
    if ids is None:
        raise ParseError("missing interlayer header", 1)
    return InterLayerEdges(*ids, frozenset(links))  # int() made exact ints


def _int_pairs(path: os.PathLike, comment: str, form: str, header: str = ""):
    """(L1, L2) of a first line ``header <TAB> L1 <TAB> L2``, if ``header``, and the
    pairs of the ``form`` lines, each distinct token one int; faults as load_layer."""
    ids, pairs, ints, lineno = None, [], cache(int), 0
    for block in _blocks(_read_text(path)):
        run = (ids or not header) and _run(block, ints)
        if run:
            pairs += zip(*run)
            lineno += len(run[0])
            continue
        for lineno, raw in enumerate(block.splitlines(), lineno + 1):
            line = raw.strip()
            if not line or line[0] == comment:
                continue
            fields = line.split("\t")
            if ids is None and header:
                if len(fields) != 3 or fields[0] != header:
                    raise ParseError(f"expected header '{header} <TAB> L1 <TAB> L2'", lineno)
                ids = (fields[1], fields[2])
            elif len(fields) != 2:
                raise ParseError(f"expected '{form}'", lineno)
            else:
                try:
                    pairs.append((ints(fields[0]), ints(fields[1])))
                except ValueError:  # _int raises the ParseError naming the token
                    _int(fields[0], lineno), _int(fields[1], lineno)
    return ids, pairs


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
    """The membership of ``g`` in ``path``, its rows read as ``load_interlayer``'s."""
    return load_membership(g, _int_pairs(path, "#", "node <TAB> community")[1])
