"""Multilayer network data model.

A multilayer network is a set of layer graphs (simple, undirected, with
globally unique node ids that are disjoint across layers) plus bipartite
inter-layer edge sets, one per unordered layer pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple

from .errors import (
    DuplicateLayer,
    DuplicatePair,
    EndpointNotInLayer,
    MalformedGraph,
    NodeIdCollision,
    UnknownLayer,
)

NodeId = int
Edge = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class LayerGraph:
    """One layer: a simple undirected graph."""

    id: str
    nodes: frozenset
    edges: frozenset

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

        def canonical() -> Iterator[Edge]:  # valid edges as (low, high), uncopied
            for e in edges:
                u, v = e
                if type(u) is not int or type(v) is not int:  # 1.0 and True equal ints
                    raise MalformedGraph(
                        f"edge ({u!r},{v!r}) of layer {layer_id} is not an int pair")
                if u == v:
                    raise MalformedGraph(f"self-loop on node {u} in layer {layer_id}")
                if u not in node_set or v not in node_set:
                    raise MalformedGraph(
                        f"edge ({u},{v}) references a node outside layer {layer_id}")
                yield (v, u) if v < u else (e if type(e) is tuple else (u, v))
        try:
            return LayerGraph(layer_id, node_set, frozenset(canonical()))
        except (TypeError, ValueError):
            raise MalformedGraph(f"an edge of layer {layer_id} is not a pair") from None


@dataclass(frozen=True)
class InterLayerEdges:
    """Bipartite links between two layers, stored oriented from -> to."""

    from_layer: str
    to_layer: str
    links: frozenset  # of (node in from_layer, node in to_layer)

    @staticmethod
    def build(from_layer: str, to_layer: str,
              links: Iterable[Edge]) -> "InterLayerEdges":
        if from_layer == to_layer:
            raise MalformedGraph("inter-layer edges require two distinct layers")
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

    def reversed(self) -> "InterLayerEdges":
        return InterLayerEdges(self.to_layer, self.from_layer,
                               frozenset((b, a) for a, b in self.links))


class MLN:
    """A multilayer network under construction or finalized.

    Construction is single-writer; call :meth:`freeze` once assembly is done.
    A frozen MLN rejects further mutation and is safe to share across threads.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerGraph] = {}
        self._inter: Dict[Tuple[str, str], InterLayerEdges] = {}
        self._node_layer: Dict[NodeId, str] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise MalformedGraph("MLN is frozen; no further mutation allowed")

    def add_layer(self, g: LayerGraph) -> "MLN":
        self._check_mutable()
        if g.id in self.layers:
            raise DuplicateLayer(f"layer {g.id} already present")
        for n in g.nodes:
            if n in self._node_layer:
                raise NodeIdCollision(
                    f"node {n} of layer {g.id} already belongs to layer "
                    f"{self._node_layer[n]}")
        self.layers[g.id] = g
        self._node_layer.update(dict.fromkeys(g.nodes, g.id))
        return self

    def add_interlayer(self, x: InterLayerEdges) -> "MLN":
        self._check_mutable()
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
        stored = x if key == (x.from_layer, x.to_layer) else x.reversed()
        self._inter[key] = stored
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

    def has_interlayer(self, l1: str, l2: str) -> bool:
        return self._pair_key(l1, l2) in self._inter

    def stored_interlayer(self, l1: str, l2: str) -> InterLayerEdges:
        """The pair's registered links in their stored orientation, uncopied."""
        return self._inter[self._pair_key(l1, l2)]

    def interlayer_pairs(self):
        """All registered unordered layer pairs, sorted."""
        return sorted(self._inter)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MLN):
            return NotImplemented
        return self.layers == other.layers and self._inter == other._inter

