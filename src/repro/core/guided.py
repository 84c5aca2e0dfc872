"""Paper-guided peel strategies (single-run alternatives to best-branch).

Section 7.2 prescribes the lollipop peel order explicitly: "When
``N0 ≤ Nn``, we peel off the star with ``e_n`` as the core first,
otherwise we peel the star with ``e_0`` as the core."  In Algorithm 2
terms that is a leaf priority: the stick-star's petal (the tip) before
the core's petals, or the other way around.  Dumbbells generalize the
same idea (Section 7.3 peels the star at ``e_m`` first).

These choosers run Algorithm 2 *once*, versus
:func:`~repro.core.acyclic.acyclic_join_best`'s exhaustive branch
exploration; tests check they land near the best branch on the
Section 7 constructions.
"""

from __future__ import annotations

from repro.core.acyclic import Chooser
from repro.data.instance import Instance
from repro.query.classify import find_leaves
from repro.query.hypergraph import JoinQuery
from repro.query.shapes import detect_dumbbell, detect_lollipop


def priority_chooser(priority: list[str]) -> Chooser:
    """Peel the first available leaf from a fixed priority list."""

    def choose(query: JoinQuery, instance: Instance) -> str:
        leaves = find_leaves(query)
        return next((e for e in priority if e in leaves), leaves[0])

    return choose


def lollipop_paper_chooser(query: JoinQuery,
                           instance: Instance) -> Chooser:
    """The Section 7.2 rule, materialized as a leaf priority.

    ``N0 ≤ Nn`` → tip first (the stick-star's petal); otherwise the
    core's petals first.  Falls back to the default order when the
    query is not a lollipop.
    """
    info = detect_lollipop(query)
    if info is None:
        raise ValueError("query is not a lollipop")
    n0 = len(instance[info.core])
    nn = len(instance[info.stick])
    petals = sorted(info.petals)
    if n0 <= nn:
        priority = [info.tip] + petals
    else:
        priority = petals + [info.tip]
    return priority_chooser(priority)


def dumbbell_paper_chooser(query: JoinQuery,
                           instance: Instance) -> Chooser:
    """Section 7.3 / Appendix A.4: peel the star at ``e_m`` first.

    Peeling the second star first means its petals take priority; the
    bar then acts as the first star's extended petal.
    """
    info = detect_dumbbell(query)
    if info is None:
        raise ValueError("query is not a dumbbell")
    # Mirror the lollipop rule on the two cores' sizes: peel the
    # *larger*-core star's petals later.
    n1 = len(instance[info.core1])
    n2 = len(instance[info.core2])
    first, second = ((info.petals2, info.petals1) if n2 <= n1
                     else (info.petals1, info.petals2))
    return priority_chooser(sorted(first) + sorted(second))
