"""Database instances: a set of named relations.

An :class:`Instance` maps hyperedge names to on-disk
:class:`~repro.data.relation.Relation` objects.  The query structure
itself lives in :mod:`repro.query`; instances deliberately do not know
about queries so that the recursion of Algorithm 2 can freely rebind
relations (restrictions, semijoin results) while the query structure
shrinks independently.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator, Mapping, TYPE_CHECKING

from repro.data.relation import Relation
from repro.data.schema import RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device


class Instance(Mapping[str, Relation]):
    """An immutable name → relation mapping with convenience builders."""

    def __init__(self, relations: Mapping[str, Relation] | Iterable[Relation]):
        if isinstance(relations, Mapping):
            self._relations = dict(relations)
        else:
            self._relations = {r.name: r for r in relations}
        for name, rel in self._relations.items():
            if name != rel.name:
                raise ValueError(
                    f"instance key {name!r} does not match relation "
                    f"name {rel.name!r}")

    # -- Mapping interface ----------------------------------------------

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    # -- builders ---------------------------------------------------------

    @classmethod
    def from_dicts(cls, device: "Device",
                   schemas: Mapping[str, tuple[str, ...]],
                   data: Mapping[str, Iterable[tuple]]) -> "Instance":
        """Build an instance from ``{name: attr tuple}`` and ``{name: rows}``.

        Input relations are materialized without charging I/O (they
        pre-exist on disk in the model).  Relations are sets: a
        duplicate row raises :class:`ValueError`, since the algorithms'
        answers on bags depend on the plan.
        """
        missing = set(schemas) - set(data)
        if missing:
            raise ValueError(f"no data supplied for relations {sorted(missing)}")
        rels = {}
        for name, attrs in schemas.items():
            # The one copy: the relation's file keeps this list.
            rows = list(map(tuple, data[name]))
            if len(set(rows)) != len(rows):
                dup = next(t for t, n in Counter(rows).items() if n > 1)
                raise ValueError(
                    f"relation {name!r} has duplicate row {dup!r}; "
                    "relations are sets")
            schema = RelationSchema(name, tuple(attrs))
            rels[name] = Relation._from_fresh(device, schema, rows)
        return cls(rels)

    def replace(self, **rebinds: Relation) -> "Instance":
        """A copy with some relations rebound (restrictions, semijoins)."""
        new = dict(self._relations)
        for name, rel in rebinds.items():
            new[name] = rel
        return Instance(new)

    def drop(self, *names: str) -> "Instance":
        """A copy without the given relations."""
        new = {k: v for k, v in self._relations.items() if k not in names}
        return Instance(new)

    # -- metadata -----------------------------------------------------------

    def sizes(self) -> dict[str, int]:
        """``{name: |R(e)|}`` for every relation."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def schemas(self) -> dict[str, tuple[str, ...]]:
        """``{name: attribute tuple}`` for every relation."""
        return {name: rel.schema.attributes
                for name, rel in self._relations.items()}

    def value_of(self, result: Mapping[str, tuple], attribute: str) -> Any:
        """Resolve ``attribute``'s value from an emitted result.

        ``result`` maps edge names to their participating tuples; the
        first relation whose schema contains ``attribute`` supplies the
        value.
        """
        for name, t in result.items():
            rel = self._relations.get(name)
            if rel is not None and attribute in rel.schema:
                return rel.schema.value(t, attribute)
        raise KeyError(f"attribute {attribute!r} not found in result over "
                       f"{sorted(result)}")
