"""Parsing and validation of linear k-community specification strings.

Surface syntax (whitespace-separated tokens, left-to-right precedence):

    spec   := LAYER (theta LAYER)+
    theta  := '#(' LAYER ',' LAYER ')' ( ':' METRIC )?
    LAYER  := a letter, then letters, digits or '_' (``_LAYER``)
    METRIC := a name in ``cbg.METRICS``

Example: ``M #(M,A) A #(A,D) D #(D,M):e M``. ``parse_spec`` checks that the
right subscript of each '#' equals the following layer token and differs
from the left; ``validate_spec`` that the left subscript is the preceding
layer or any layer already visited (a serial chain may branch from an
earlier layer). A step whose right layer was already visited is a cycle
step. The optional ':metric' suffix overrides the run default for that step.
"""
from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from .cbg import METRICS
from .errors import (
    DisconnectedSpec,
    EmptySpec,
    NonSerialSpec,
    SpecSyntaxError,
    SubscriptMismatch,
)
from .model import MLN

_LAYER = r"[A-Za-z][A-Za-z0-9_]*"
_THETA_RE = re.compile(rf"#\(({_LAYER}),({_LAYER})\)(?::({'|'.join(METRICS)}))?")

CASE_NEW_LAYER = "i"
CASE_CYCLE = "ii"


class Composition(NamedTuple):
    left: str
    right: str
    metric: Optional[str] = None  # None -> run default


class KSpec(NamedTuple):
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
        if "(" in tok.replace("#(", ""):  # a '(' that opens no composition
            raise NonSerialSpec(
                "explicit precedence parentheses are not supported; "
                "only serial left-to-right specifications are accepted")

    def expect_layer(i: int) -> str:
        if i >= len(tokens):
            raise SpecSyntaxError("expected a layer name", i)
        tok = tokens[i]
        if not re.fullmatch(_LAYER, tok):
            raise SpecSyntaxError(
                f"expected a layer name, got {tok!r}", i)
        return tok

    first = expect_layer(0)
    steps: List[Composition] = []
    if len(tokens) < 2:
        raise SpecSyntaxError("expected a '#(L1,L2)' composition operator", 1)
    for i in range(1, len(tokens), 2):
        tok = tokens[i]
        m = _THETA_RE.fullmatch(tok)
        if not m:
            raise SpecSyntaxError(
                f"expected a '#(L1,L2)' composition operator, got {tok!r}", i)
        left, right, metric = m.group(1), m.group(2), m.group(3)
        if left == right:
            raise SubscriptMismatch(f"composition {tok!r} needs two distinct layers")
        following = expect_layer(i + 1)
        if right != following:
            raise SubscriptMismatch(
                f"right subscript {right} of {tok!r} does not match the "
                f"following layer {following}")
        steps.append(Composition(left, right, metric))
    return KSpec(first, tuple(steps))


def validate_spec(spec: KSpec, mln: MLN) -> KSpec:
    """Check the spec against an MLN: layers exist, and every composition's
    left layer was visited before it and has a registered inter-layer edge
    set with its right. Returns the spec unchanged."""
    for lid in spec.layers:
        mln.layer(lid)
    visited = {spec.first_layer}  # the preceding layer is visited too
    for step in spec.steps:
        if step.left not in visited:
            raise SubscriptMismatch(f"left subscript {step.left} of #({step.left},"
                                    f"{step.right}) is no layer visited before it")
        mln.stored_interlayer(step.left, step.right)
        visited.add(step.right)
    if not spec.steps:
        raise DisconnectedSpec("a specification needs at least one composition")
    return spec

