"""File formats: layer and inter-layer TSVs, MLN directories, membership
files, and key=value run configuration.

Layer file:

    layer <TAB> A
    1
    2
    edge <TAB> 1 <TAB> 2

Inter-layer file:

    interlayer <TAB> A <TAB> D
    1 <TAB> 10

Both are UTF-8 with ';' comment lines. An edge names nodes declared on
earlier lines, whose tokens a load resolves to ints once. Membership files
are ``node <TAB> community`` with '#' comments. Saves are canonically
sorted so save -> load -> save is byte-identical.
"""
from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .community import Membership, load_membership
from .errors import IoError, ParseError
from .model import MLN, InterLayerEdges, LayerGraph

log = logging.getLogger(__name__)

COMMENT = ";"


def load_config(path: os.PathLike) -> Dict[str, str]:
    values: Dict[str, str] = {}
    for lineno, line in _lines(path, COMMENT):
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _read_text(path: os.PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None


def _lines(path: os.PathLike, comment: str) -> Iterator[Tuple[int, str]]:
    """Numbered non-blank lines, stripped, without ``comment`` lines."""
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        yield lineno, line


# ---------------------------------------------------------------------------
# layer / inter-layer files


def load_layer(path: os.PathLike) -> LayerGraph:
    layer_id: Optional[str] = None
    nodes: set = set()
    ids: Dict[str, int] = {}  # node token -> its int, shared by every edge
    edges: Dict[Tuple[int, int], None] = {}  # canonical, in file order
    for lineno, line in _lines(path, COMMENT):
        fields = line.split("\t")
        if layer_id is None:
            if len(fields) != 2 or fields[0] != "layer":
                raise ParseError("expected header 'layer <TAB> <id>'", lineno)
            layer_id = fields[1]
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise ParseError("expected 'edge <TAB> u <TAB> v'", lineno)
            u, v = ids.get(fields[1]), ids.get(fields[2])
            if u is None or v is None:  # e.g. '07', '+7' or an undeclared node
                u, v = _int(fields[1], lineno), _int(fields[2], lineno)
                if u not in nodes or v not in nodes:
                    raise ParseError(f"edge ({u},{v}) references undeclared node",
                                     lineno)
            size = len(edges)
            edges[(u, v) if u < v else (v, u)] = None
            if len(edges) == size:
                log.warning("%s line %d: duplicate edge (%d,%d) ignored",
                            path, lineno, u, v)
        elif len(fields) == 1:
            nodes.add(ids.setdefault(fields[0], _int(fields[0], lineno)))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if layer_id is None:
        raise ParseError("missing layer header", 1)
    return LayerGraph.build(layer_id, nodes, edges)


def save_layer(g: LayerGraph, path: os.PathLike) -> None:
    lines = [f"layer\t{g.id}"]
    lines += [str(n) for n in sorted(g.nodes)]
    lines += [f"edge\t{u}\t{v}" for u, v in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_interlayer(path: os.PathLike) -> InterLayerEdges:
    header: Optional[Tuple[str, str]] = None
    links: List[Tuple[int, int]] = []
    for lineno, line in _lines(path, COMMENT):
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
                links.append((int(fields[0]), int(fields[1])))
            except ValueError:  # _int raises the ParseError naming the token
                _int(fields[0], lineno), _int(fields[1], lineno)
    if header is None:
        raise ParseError("missing interlayer header", 1)
    return InterLayerEdges.build(header[0], header[1], links)


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
