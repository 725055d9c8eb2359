"""Parsing and validation of linear k-community specification strings.

Surface syntax (whitespace-separated tokens, left-to-right precedence):

    spec   := LAYER (theta LAYER)+
    theta  := '#(' LAYER ',' LAYER ')' ( ':' ('e'|'d'|'h') )?
    LAYER  := [A-Za-z][A-Za-z0-9_]*

Example: ``M #(M,A) A #(A,D) D #(D,M):e M``. The right subscript of each
'#' operator must equal the following layer token; the left subscript must
equal the preceding layer token or any layer already visited (a serial
chain may branch from an earlier layer). A step whose right layer was
already visited is a cycle step. The optional ':metric' suffix overrides
the run-level default for that composition only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    DisconnectedSpec,
    EmptySpec,
    MissingInterLayerEdges,
    NonSerialSpec,
    SpecSyntaxError,
    SubscriptMismatch,
    UnknownLayer,
)
from .model import MLN

_LAYER_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_THETA_RE = re.compile(
    r"^#\(([A-Za-z][A-Za-z0-9_]*),([A-Za-z][A-Za-z0-9_]*)\)(?::([edh]))?$")

CASE_NEW_LAYER = "i"
CASE_CYCLE = "ii"


@dataclass(frozen=True)
class Composition:
    left: str
    right: str
    metric: Optional[str] = None  # None -> run default


@dataclass(frozen=True)
class KSpec:
    first_layer: str
    steps: Tuple[Composition, ...]

    @property
    def layers(self) -> Tuple[str, ...]:
        """Distinct layers in visit order."""
        return tuple(dict.fromkeys([self.first_layer] + [s.right for s in self.steps]))

    @property
    def cases(self) -> Tuple[str, ...]:
        """Per step: CASE_CYCLE if its right layer was visited before it."""
        visits = [self.first_layer] + [s.right for s in self.steps]
        return tuple(CASE_CYCLE if s.right in visits[:i + 1] else CASE_NEW_LAYER
                     for i, s in enumerate(self.steps))


def parse_spec(text: str) -> KSpec:
    tokens = text.split()
    if not tokens:
        raise EmptySpec("specification is empty")
    for tok in tokens:
        if "(" in tok and not tok.startswith("#("):
            raise NonSerialSpec(
                "explicit precedence parentheses are not supported; "
                "only serial left-to-right specifications are accepted")

    def expect_layer(i: int) -> str:
        if i >= len(tokens):
            raise SpecSyntaxError("expected a layer name", i)
        tok = tokens[i]
        if not _LAYER_RE.match(tok):
            raise SpecSyntaxError(
                f"expected a layer name, got {tok!r}", i)
        return tok

    first = expect_layer(0)
    visited = {first}
    prev_layer = first
    steps: List[Composition] = []
    i = 1
    if i >= len(tokens):
        raise SpecSyntaxError("expected a '#(L1,L2)' composition operator", i)
    while i < len(tokens):
        tok = tokens[i]
        m = _THETA_RE.match(tok)
        if not m:
            raise SpecSyntaxError(
                f"expected a '#(L1,L2)' composition operator, got {tok!r}", i)
        left, right, metric = m.group(1), m.group(2), m.group(3)
        if left == right:
            raise SubscriptMismatch(
                f"composition {tok!r} needs two distinct layers")
        if left != prev_layer and left not in visited:
            raise SubscriptMismatch(
                f"left subscript {left} of {tok!r} is neither the preceding "
                f"layer {prev_layer} nor an already-visited layer")
        following = expect_layer(i + 1)
        if right != following:
            raise SubscriptMismatch(
                f"right subscript {right} of {tok!r} does not match the "
                f"following layer {following}")
        steps.append(Composition(left, right, metric))
        visited.add(right)
        prev_layer = following
        i += 2
    return KSpec(first, tuple(steps))


def validate_spec(spec: KSpec, mln: MLN) -> KSpec:
    """Check the spec against an MLN: layers exist, every composition has a
    registered inter-layer edge set. Returns the spec unchanged."""
    for lid in spec.layers:
        if lid not in mln.layers:
            raise UnknownLayer(f"spec references unknown layer {lid}")
    for step in spec.steps:
        if not mln.has_interlayer(step.left, step.right):
            raise MissingInterLayerEdges(
                f"no inter-layer edges between {step.left} and {step.right}")
    if not spec.steps:
        raise DisconnectedSpec("a specification needs at least one composition")
    return spec

