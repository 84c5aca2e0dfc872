"""Loading relations from delimited files.

Real adopters have CSV/TSV data, not Python lists; this module loads
such files onto a simulated device (uncharged, like all inputs) with
light type inference, and writes emit-model results back out.

Values are parsed as ``int`` when every row agrees, else ``float``,
else kept as strings — per column, so mixed files behave predictably.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping

from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.em.device import Device


def read_csv_rows(path: str | Path, *,
                  attributes: tuple[str, ...] | None = None,
                  delimiter: str = ",",
                  header: bool = True) -> tuple[tuple[str, ...], list[tuple]]:
    """The host-side half of :func:`load_csv`: read, validate, infer.

    Returns ``(attributes, typed rows)`` without touching any device —
    the form the server catalog caches so one file read can feed many
    sessions.  Rows are returned as parsed (duplicates intact); set
    semantics are applied at materialization time.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [tuple(cell.strip() for cell in row)
                for row in reader if row]
    if not rows:
        raise ValueError(f"{path} is empty")
    if header:
        head, rows = rows[0], rows[1:]
        if attributes is None:
            attributes = tuple(head)
    if attributes is None:
        raise ValueError("attributes are required when header=False")
    width = len(attributes)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {i + (2 if header else 1)} has "
                f"{len(row)} fields, expected {width}")
    return tuple(attributes), _infer_columns(rows)


def load_csv(device: Device, path: str | Path, name: str, *,
             attributes: tuple[str, ...] | None = None,
             delimiter: str = ",", header: bool = True) -> Relation:
    """Load one delimited file as a relation named ``name``.

    With ``header=True`` the first row names the attributes (unless
    ``attributes`` overrides them); otherwise ``attributes`` is
    required.  Duplicate rows are dropped (relations are sets) — the
    count removed is available via ``len`` comparison by the caller.
    """
    attributes, typed = read_csv_rows(path, attributes=attributes,
                                      delimiter=delimiter, header=header)
    schema = RelationSchema(name, tuple(attributes))
    return Relation._from_fresh(device, schema, sorted(set(typed)))


def _infer_columns(rows: list[tuple[str, ...]]) -> list[tuple]:
    """Per-column int → float → str inference."""
    if not rows:
        return []
    n_cols = len(rows[0])
    casters = []
    for c in range(n_cols):
        values = [row[c] for row in rows]
        caster = str
        if all(_is_int(v) for v in values):
            caster = int
        elif all(_is_float(v) for v in values):
            caster = float
        casters.append(caster)
    return [tuple(cast(v) for cast, v in zip(casters, row))
            for row in rows]


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def instance_from_csv(device: Device,
                      tables: Mapping[str, str | Path], *,
                      delimiter: str = ",",
                      header: bool = True) -> Instance:
    """Load ``{relation name: csv path}`` into one instance."""
    rels = {name: load_csv(device, path, name, delimiter=delimiter,
                           header=header)
            for name, path in tables.items()}
    return Instance(rels)


def dump_results_csv(results: Iterable[Mapping[str, tuple]],
                     schemas: Mapping[str, tuple[str, ...]],
                     path: str | Path, *, delimiter: str = ",") -> int:
    """Write emit-model results as one flat CSV of attribute values.

    Columns are the union of attributes in sorted order; returns the
    number of rows written.  (This is a *host-side* export — it does
    not participate in the I/O accounting, which models the join
    itself, not post-processing.)
    """
    path = Path(path)
    results = list(results)
    attrs: list[str] = sorted({a for schema in schemas.values()
                               for a in schema})
    n = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(attrs)
        for result in results:
            merged: dict[str, object] = {}
            for edge, t in result.items():
                for a, v in zip(schemas[edge], t):
                    merged[a] = v
            writer.writerow([merged.get(a, "") for a in attrs])
            n += 1
    return n
