"""Relation schemas.

A tuple in this library is a plain Python ``tuple`` whose positions are
named by a :class:`RelationSchema`.  Attribute names are strings; the
query hypergraph (see :mod:`repro.query`) refers to the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class RelationSchema:
    """Positional attribute naming for one relation.

    Parameters
    ----------
    name:
        The relation (hyperedge) name, e.g. ``"e1"``.
    attributes:
        Ordered attribute names; tuple position ``i`` holds the value of
        ``attributes[i]``.
    """

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(
                f"duplicate attribute in schema {self.name}: {self.attributes}")

    def index(self, attribute: str) -> int:
        """Position of ``attribute`` in tuples of this relation."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise KeyError(
                f"attribute {attribute!r} not in schema {self.name} "
                f"{self.attributes}") from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def key(self, attribute: str) -> Callable[[tuple], Any]:
        """A sort/group key function extracting ``attribute``.

        An :func:`operator.itemgetter`, so sorts and merges call it
        without entering the interpreter.  (:meth:`multi_key` stays a
        function: ``itemgetter`` of one index returns a scalar, not
        the 1-tuple a lexicographic key must be.)
        """
        return itemgetter(self.index(attribute))

    def multi_key(self, attributes: Iterable[str]) -> Callable[[tuple], tuple]:
        """A lexicographic key over several attributes."""
        idxs = [self.index(a) for a in attributes]
        return lambda t: tuple(t[i] for i in idxs)

    def value(self, t: tuple, attribute: str) -> Any:
        """The value of ``attribute`` in tuple ``t``."""
        return t[self.index(attribute)]

    def project(self, t: tuple, attributes: Iterable[str]) -> tuple:
        """Project tuple ``t`` onto ``attributes`` (in the given order)."""
        return tuple(t[self.index(a)] for a in attributes)

    def common(self, other: "RelationSchema") -> tuple[str, ...]:
        """Attributes shared with ``other``, in this schema's order."""
        return tuple(a for a in self.attributes if a in other)
