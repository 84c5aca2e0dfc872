"""External-memory full reducer (Yannakakis phase one, with I/O charges).

Two semijoin passes over the ear-elimination order of
:func:`repro.query.reduce.elimination_order`; each semijoin sorts both
sides on the shared attribute and performs one merge pass, writing the
filtered relation back to disk.  Both sorted sides are kept: the
filtered relation is written in its sort order, and the sorted copy of
the filter replaces the filter, so a later semijoin (or the join that
follows the reducer) on the same attribute finds it already sorted
(:meth:`~repro.data.relation.Relation.sort_by` is then a no-op).
Total cost ``Õ(Σ N(e)/B)`` — the linear term the paper's bounds
absorb.

The paper's optimality statements assume fully reduced inputs
(Section 1.2); the planner runs this reducer first unless told the
input is already reduced.
"""

from __future__ import annotations

from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import write_semijoin
from repro.query.hypergraph import JoinQuery
from repro.query.reduce import elimination_order


def full_reduce_em(query: JoinQuery, instance: Instance) -> Instance:
    """Return a fully reduced copy of ``instance`` (I/O charged)."""
    rels: dict[str, Relation] = dict(instance)
    steps = elimination_order(query)
    for step in steps:  # upward: parents filtered by children
        if step.parent is None:
            continue
        rels[step.parent], rels[step.edge] = _semijoin_em(
            rels[step.parent], rels[step.edge], step.shared_attr)
    for step in reversed(steps):  # downward: children by parents
        if step.parent is None:
            continue
        rels[step.edge], rels[step.parent] = _semijoin_em(
            rels[step.edge], rels[step.parent], step.shared_attr)
    return Instance(rels)


def _semijoin_em(rel: Relation, filt: Relation,
                 attr: str) -> tuple[Relation, Relation]:
    """``rel ⋉ filt`` on ``attr`` by sort + merge, written back to disk.

    Returns the filtered relation and ``filt`` sorted on ``attr`` (the
    same tuples, so it can stand in for ``filt``).
    """
    rel_s = rel.sort_by(attr)
    filt_s = filt.sort_by(attr)
    out = write_semijoin(rel_s.data, filt_s.data, rel_s.key(attr),
                         filt_s.key(attr), f"{rel.name}.red_{filt.name}")
    return Relation(rel.schema, out.whole(), attr, rel.fixed), filt_s
