"""The instance catalog: load data once, serve many queries.

A one-shot ``repro run`` pays the host-side cost of parsing CSVs and
materializing relations for every invocation.  The catalog keeps each
named dataset host-resident — attribute layouts plus typed rows, the
exact value :meth:`~repro.data.instance.Instance.from_dicts` consumes —
so the service materializes instances onto its devices from memory,
byte-identically to a solo run (inputs are uncharged either way).

Entries are ref-counted (:meth:`acquire` / :meth:`release`), so an
unpaired release is caught.  Replacing an entry bumps its
``generation``; the service's ``add_instance``/``load_tables`` then
drop the older generation's materialized copies and shared frames.
"""

from __future__ import annotations

from typing import Mapping

from repro.data.io import read_csv_rows


class CatalogError(KeyError):
    """Unknown instance name, or invalid catalog operation."""


class CatalogEntry:
    """One named dataset: layouts, typed rows, and bookkeeping."""

    __slots__ = ("name", "layouts", "rows", "generation", "pins")

    def __init__(self, name: str,
                 layouts: Mapping[str, tuple[str, ...]],
                 rows: Mapping[str, list[tuple]],
                 generation: int = 1) -> None:
        if set(layouts) != set(rows):
            raise ValueError(
                f"layouts and rows disagree on relations: "
                f"{sorted(set(layouts) ^ set(rows))}")
        for rel, attrs in layouts.items():
            width = len(attrs)
            for t in rows[rel]:
                if len(t) != width:
                    raise ValueError(
                        f"instance {name!r}, relation {rel!r}: row {t!r} "
                        f"has {len(t)} fields, layout has {width}")
        self.name = name
        self.layouts = {rel: tuple(attrs) for rel, attrs in layouts.items()}
        self.rows = {rel: list(rs) for rel, rs in rows.items()}
        self.generation = generation
        self.pins = 0

    @property
    def sizes(self) -> dict[str, int]:
        return {rel: len(rs) for rel, rs in self.rows.items()}

    def info(self) -> dict[str, object]:
        return {"name": self.name, "generation": self.generation,
                "pins": self.pins, "relations": self.sizes}


class Catalog:
    """Named, ref-counted instances."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self.stats = {"loads": 0, "hits": 0, "replaced": 0}

    # -- loading -------------------------------------------------------

    def add(self, name: str, layouts: Mapping[str, tuple[str, ...]],
            rows: Mapping[str, list[tuple]], *,
            replace: bool = False) -> CatalogEntry:
        """Register a dataset from in-memory rows."""
        old = self._entries.get(name)
        if old is not None and not replace:
            raise CatalogError(
                f"instance {name!r} is already loaded "
                f"(pass replace=True to supersede it)")
        generation = 1 if old is None else old.generation + 1
        entry = CatalogEntry(name, layouts, rows, generation)
        if old is not None:
            self.stats["replaced"] += 1
        self._entries[name] = entry
        self.stats["loads"] += 1
        return entry

    def load_csv(self, name: str,
                 tables: Mapping[str, str], *,
                 delimiter: str = ",", header: bool = True,
                 replace: bool = False) -> CatalogEntry:
        """Load ``{relation: csv path}`` from disk, once, as ``name``.

        Rows are normalized exactly like :func:`repro.data.io.load_csv`
        (sorted, de-duplicated), so a copy materialized from this
        entry holds the same relation a solo ``repro run`` would.
        """
        layouts: dict[str, tuple[str, ...]] = {}
        rows: dict[str, list[tuple]] = {}
        for rel, path in tables.items():
            attrs, typed = read_csv_rows(path, delimiter=delimiter,
                                         header=header)
            layouts[rel] = attrs
            rows[rel] = sorted(set(typed))
        return self.add(name, layouts, rows, replace=replace)

    # -- lookup and ref-counting --------------------------------------

    def get(self, name: str) -> CatalogEntry:
        """Look up without taking a reference (introspection only)."""
        entry = self._entries.get(name)
        if entry is None:
            raise CatalogError(
                f"no instance {name!r} in the catalog "
                f"(loaded: {sorted(self._entries)})")
        return entry

    def acquire(self, name: str) -> CatalogEntry:
        """Take a reference to an entry; pairs with :meth:`release`."""
        entry = self.get(name)
        entry.pins += 1
        self.stats["hits"] += 1
        return entry

    def release(self, entry: CatalogEntry) -> None:
        if entry.pins <= 0:
            raise CatalogError(
                f"release of instance {entry.name!r} without a "
                f"matching acquire")
        entry.pins -= 1

    def names(self) -> list[str]:
        return list(self._entries)

    def info(self) -> dict[str, object]:
        return {"entries": [e.info() for e in self._entries.values()],
                **self.stats}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries
