"""Exception types shared across the package."""


class RelfdError(Exception):
    """Base class for every error this package raises on bad input."""


class CarrierMismatchError(RelfdError):
    """An operation combined relations whose carriers do not line up."""


class UnknownAttributeError(RelfdError):
    """An attribute name is not part of the scheme in use."""


class SchemeError(RelfdError):
    """A scheme, row or table is structurally invalid."""


class ResourceLimitError(RelfdError):
    """An enumeration or carrier construction would exceed its size bound."""


class ParseError(RelfdError):
    """Malformed textual input (FD file, CSV table, query JSON).

    `line` locates it in a text file, `path` in a query's JSON tree.
    """

    def __init__(self, message: str, line: int | None = None,
                 path: str = ""):
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(f"at {path}: {message}" if path else message)


class QueryTypeError(RelfdError):
    """A query expression is ill-typed or references an unbound name."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"at {path}: {message}" if path else message)


class UnknownLawError(RelfdError):
    """A law identifier is not registered."""


class InternalCheckError(RelfdError):
    """Two routes that must always agree disagreed; a bug, not bad input."""
