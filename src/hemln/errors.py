"""Exception hierarchy for the hemln package.

All library errors derive from :class:`HemlnError` so callers (and the CLI)
can distinguish data/usage problems from genuine bugs.
"""


class HemlnError(Exception):
    """Base class for all hemln errors."""


# --- model -----------------------------------------------------------------

class MalformedGraph(HemlnError):
    """Self-loop, dangling edge endpoint, or negative node id."""


class DuplicateLayer(HemlnError):
    pass


class NodeIdCollision(HemlnError):
    """A node id appears in more than one layer."""


class UnknownLayer(HemlnError):
    pass


class UnknownNode(HemlnError):
    pass


class EndpointNotInLayer(HemlnError):
    """An inter-layer link endpoint is missing from its declared layer."""


class DuplicatePair(HemlnError):
    """A second inter-layer edge set for the same layer pair."""


class NoInterLayerEdges(HemlnError):
    """A layer pair with no inter-layer edge set registered."""


# --- community -------------------------------------------------------------

class EmptyGraph(HemlnError):
    pass


class MissingNode(HemlnError):
    pass


class DuplicateNode(HemlnError):
    pass


class InvalidQuantile(HemlnError):
    pass


# --- cbg -------------------------------------------------------------------

class UnknownCommunity(HemlnError):
    pass


class EmptyCbg(HemlnError):
    """Weight normalization requested on a bipartite graph with no edges."""


# --- spec parsing ----------------------------------------------------------

class SpecSyntaxError(HemlnError):
    """Bad token; carries position and what was expected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at token {position}: {message}")
        self.position = position


class SubscriptMismatch(HemlnError):
    pass


class EmptySpec(HemlnError):
    pass


class NonSerialSpec(HemlnError):
    """Parenthesized (explicit-precedence) specifications are not supported;
    only serial left-to-right chains are accepted."""


class DisconnectedSpec(HemlnError):
    pass


# --- engine ----------------------------------------------------------------

class UnknownKey(HemlnError):
    pass


# --- io --------------------------------------------------------------------

class IoError(HemlnError):
    pass


class ParseError(HemlnError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolation(HemlnError):
    pass


class ReferentialIntegrity(HemlnError):
    pass


class EmptyInput(HemlnError):
    pass
