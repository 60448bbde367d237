"""Exception types shared across the library."""

# The most characters of an input token or message that an error repeats.
ECHO_LIMIT = 80


def shorten(text: str) -> str:
    """`text` for an error message: cut after ECHO_LIMIT characters, with
    a count of the rest, so a hostile 100 kB token gives a short message."""
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text) - ECHO_LIMIT} more characters)"


class SimplexColorError(Exception):
    """Base class for all library errors."""


class InputError(SimplexColorError):
    """Malformed or out-of-contract input (bad file, dimension mismatch, ...)."""


class ColoringError(InputError):
    """A coloring that does not fit its complex: wrong length, or a color
    the renderer has no fill for."""


class UnrealizableComplexError(SimplexColorError):
    """Raised when peeling stalls: no simplex has an exposed facet.

    This cannot happen for a complex that is geometrically realizable in
    R^d; it is reachable for abstract inputs such as the boundary of a
    (d+1)-simplex forced into R^d.
    """

    def __init__(self, residual_size: int):
        self.residual_size = residual_size
        super().__init__(
            f"no simplex with an exposed facet in residual complex of "
            f"{residual_size} simplices"
        )


class InvariantError(SimplexColorError):
    """Internal invariant violated; indicates a bug, not bad input."""
