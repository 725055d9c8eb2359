"""Multilayer network data model.

A multilayer network is a set of simple undirected layer graphs with node
ids disjoint across layers, plus bipartite inter-layer edge sets, one per
unordered pair of distinct layers (only ``MLN.add_interlayer`` checks it).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Tuple

from .errors import (
    DuplicateLayer,
    DuplicatePair,
    EndpointNotInLayer,
    MalformedGraph,
    NoInterLayerEdges,
    NodeIdCollision,
    UnknownLayer,
)

NodeId = int
Edge = Tuple[NodeId, NodeId]


class LayerGraph(NamedTuple):
    """One layer: a simple undirected graph as sorted rows, so equal graphs are equal."""

    id: str
    nodes: frozenset
    nbrs: Tuple[Tuple[int, ...], ...]  # [i]: positions of sorted(nodes)[i]'s neighbours

    @property
    def edges(self) -> FrozenSet[Edge]:  # every edge as (low, high), derived at each call
        order = sorted(self.nodes)
        return frozenset((order[i], order[j])
                         for i, row in enumerate(self.nbrs) for j in row if i < j)

    @staticmethod
    def build(layer_id: str,
              nodes: Iterable[NodeId],
              edges: Iterable[Edge]) -> "LayerGraph":
        """Normalize and validate raw node/edge collections."""
        if not layer_id:
            raise MalformedGraph("layer id must be nonempty")
        node_set = frozenset(nodes)
        for n in node_set:
            if type(n) is not int or n < 0:  # bool is an int subclass: rejected
                raise MalformedGraph(f"node id {n!r} is not a non-negative integer")

        def checked() -> Iterator[Edge]:
            for u, v in edges:
                if type(u) is not int or type(v) is not int:  # 1.0 and True equal ints
                    raise MalformedGraph(
                        f"edge ({u!r},{v!r}) of layer {layer_id} is not an int pair")
                if u == v:
                    raise MalformedGraph(f"self-loop on node {u} in layer {layer_id}")
                if u not in node_set or v not in node_set:
                    raise MalformedGraph(
                        f"edge ({u},{v}) references a node outside layer {layer_id}")
                yield u, v
        try:
            return LayerGraph.of(layer_id, node_set, checked())
        except (TypeError, ValueError):
            raise MalformedGraph(f"an edge of layer {layer_id} is not a pair") from None

    @staticmethod
    def of(layer_id: str, nodes: frozenset, cliques: Iterable[Iterable[NodeId]]) -> "LayerGraph":
        """The layer on ``nodes`` joining every two members of each clique of distinct
        nodes (an edge is a clique of two; a repeat is one edge), unchecked: each
        member's list row takes the others as two slices, which ``sorted_rows`` sorts."""
        at = dict(zip(sorted(nodes), range(len(nodes))))  # node -> its position
        rows: List[List[int]] = [[] for _ in at]
        for clique in cliques:
            ps = list(map(at.__getitem__, clique))
            for i, p in enumerate(ps):
                rows[p] += ps[:i]
                rows[p] += ps[i + 1:]
        sorted_rows(rows)
        return LayerGraph(layer_id, nodes, tuple(rows))


def sorted_rows(rows: list) -> List[int]:
    """Replace each row in ``rows`` (an iterable of positions) by the sorted tuple
    of its distinct entries, in place, so each row is freed as its tuple is made;
    return the indices of the rows that held a repeat."""
    repeats = []
    for i, row in enumerate(rows):
        row = sorted(row)
        if len(set(row)) < len(row):
            repeats.append(i)
            row = sorted(set(row))
        rows[i] = tuple(row)
    return repeats


class InterLayerEdges(NamedTuple):
    """Bipartite links between two layers, stored oriented from -> to."""

    from_layer: str
    to_layer: str
    links: frozenset  # of (node in from_layer, node in to_layer)

    @staticmethod
    def build(from_layer: str, to_layer: str,
              links: Iterable[Edge]) -> "InterLayerEdges":
        def checked() -> Iterator[Edge]:
            for a, b in links:
                if type(a) is not int or type(b) is not int:  # 1.0 and True equal ints
                    raise MalformedGraph(f"link ({a!r},{b!r}) between {from_layer} "
                                         f"and {to_layer} is not an int pair")
                yield (a, b)
        try:
            pairs = frozenset(checked())
        except (TypeError, ValueError):
            raise MalformedGraph("an inter-layer link is not a node pair") from None
        return InterLayerEdges(from_layer, to_layer, pairs)


class MLN:
    """A multilayer network under construction or finalized.

    Construction is single-writer; call :meth:`freeze` once assembly is done.
    A frozen MLN rejects further mutation and is safe to share across threads.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerGraph] = {}
        self._inter: Dict[Tuple[str, str], InterLayerEdges] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise MalformedGraph("MLN is frozen; no further mutation allowed")

    def add_layer(self, g: LayerGraph) -> "MLN":
        self._check_mutable()
        if g.id in self.layers:
            raise DuplicateLayer(f"layer {g.id} already present")
        for h in self.layers.values():
            if not g.nodes.isdisjoint(h.nodes):
                raise NodeIdCollision(f"node {min(g.nodes & h.nodes)} of layer {g.id} "
                                      f"already belongs to layer {h.id}")
        self.layers[g.id] = g
        return self

    def add_interlayer(self, x: InterLayerEdges) -> "MLN":
        self._check_mutable()
        if x.from_layer == x.to_layer:
            raise MalformedGraph("inter-layer edges require two distinct layers")
        a_nodes = self.layer(x.from_layer).nodes
        b_nodes = self.layer(x.to_layer).nodes
        key = self._pair_key(x.from_layer, x.to_layer)
        if key in self._inter:
            raise DuplicatePair(
                f"inter-layer edges for ({x.from_layer},{x.to_layer}) already set")
        for a, b in x.links:
            if a not in a_nodes:
                raise EndpointNotInLayer(
                    f"link ({a},{b}): {a} not in layer {x.from_layer}")
            if b not in b_nodes:
                raise EndpointNotInLayer(
                    f"link ({a},{b}): {b} not in layer {x.to_layer}")
        if key != (x.from_layer, x.to_layer):  # stored in key order
            x = InterLayerEdges(*key, frozenset((b, a) for a, b in x.links))
        self._inter[key] = x
        return self

    def freeze(self) -> "MLN":
        self._frozen = True
        return self

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _pair_key(l1: str, l2: str) -> Tuple[str, str]:
        return (l1, l2) if l1 <= l2 else (l2, l1)

    def layer(self, lid: str) -> LayerGraph:
        try:
            return self.layers[lid]
        except KeyError:
            raise UnknownLayer(f"layer {lid} not in MLN") from None

    def stored_interlayer(self, l1: str, l2: str) -> InterLayerEdges:
        """The pair's links as stored, uncopied; raises NoInterLayerEdges if unset."""
        key = self._pair_key(l1, l2)
        if key not in self._inter:
            raise NoInterLayerEdges(f"no inter-layer edges between {l1} and {l2}")
        return self._inter[key]

    def interlayer_pairs(self):
        """All registered unordered layer pairs, sorted."""
        return sorted(self._inter)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MLN):
            return NotImplemented
        return self.layers == other.layers and self._inter == other._inter

