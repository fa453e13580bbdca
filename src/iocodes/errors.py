"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertex(GraphError):
    pass


class EmptyGraph(GraphError):
    pass


class Disconnected(GraphError):
    pass


class NotATree(GraphError):
    pass


class UniverseMismatch(GraphError):
    """A vertex set was built against a different vertex count."""


class NoCode(GraphError):
    """The graph admits no identifying open code.

    Carries a witness: an isolated vertex, a pair of open twins, or None
    on the empty graph.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CodeRejected(GraphError):
    """A computed code failed re-verification; carries the failing verdict."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class TooLarge(GraphError):
    pass


class TooSmall(GraphError):
    pass


class BadParam(GraphError, ValueError):
    pass


class DegreeExceeded(GraphError):
    pass


class FourCyclePresent(GraphError):
    pass


class ParseError(GraphError):
    """Malformed input text; records where parsing failed."""

    def __init__(self, message, line=None, position=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if position is not None:
            loc.append(f"position {position}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.position = position


class ConstructionError(GraphError):
    """A constructive algorithm could not complete; carries its trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
