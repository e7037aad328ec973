"""Exception types shared across the package."""


class GelabError(Exception):
    """Base class for all library errors."""


class CapExceeded(GelabError):
    """An enumeration limit (vertex cap or set-count cap) was exceeded."""


class DomainError(GelabError):
    """An objective was evaluated outside its domain (zero coordinate on the support)."""


class VertexNotFound(GelabError):
    """A vertex label is not present in the graph."""


class VertexSetMismatch(GelabError):
    """Two graphs that must share a vertex set do not."""


class NotUniform(GelabError):
    """A fractional cover does not cover every vertex the same number of times."""


class NotRational(GelabError):
    """An exact-rational distribution was required but a float one was given."""


class ZeroWeightVertex(GelabError):
    """A construction requires strictly positive vertex weights."""


class InvalidK(GelabError):
    """Gadget parameter k must be at least 2."""


class ParseError(GelabError):
    """A graph or distribution file could not be parsed."""


class InternalError(GelabError, RuntimeError):
    """An internal consistency check failed; no answer was produced."""
