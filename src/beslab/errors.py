"""Exception types shared across the package."""

from __future__ import annotations

from typing import Any


class BeslabError(Exception):
    """Base class for package-specific errors."""


class WrongArity(BeslabError, ValueError):
    """An edge does not have exactly the declared number of distinct vertices."""


class VertexOutOfRange(BeslabError, ValueError):
    """An edge mentions a vertex id outside ``[0, n)``."""


class DuplicateEdge(BeslabError, ValueError):
    """The same edge (as a vertex set) appears more than once."""


class NotFree(BeslabError):
    """A graph required to avoid a configuration family contains one.

    ``witness`` holds the offending edge indices, ``query`` the
    (edge_count, max_vertices) query they satisfy.
    """

    def __init__(self, message: str, witness: tuple[int, ...], query: Any):
        super().__init__(message)
        self.witness = tuple(witness)
        self.query = query


class Unknown(BeslabError, LookupError):
    """The requested value lies outside the table of known results."""


class TooLarge(BeslabError):
    """The instance exceeds the exact-search size cap.

    Raised before any search, so a refusal costs no more than reading the
    cache; pass ``allow_large`` to search anyway.
    """
