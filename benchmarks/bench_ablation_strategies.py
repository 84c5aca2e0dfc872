"""Experiment A-branch — strategy ablation for Algorithm 2's choice.

Compares four ways of resolving the nondeterministic leaf pick on the
same instances: first-leaf (naive), smallest-leaf (greedy), the paper's
guided rule where one exists (Section 7.2), and best-branch (every
peel plan priced, the cheapest run: the round-robin guarantee).  The
ordering best ≤ guided/greedy ≤ naive is the design-choice evidence
DESIGN.md's ablation row calls for.  Best-branch trusts its prices, so
every plan's price is also checked against a trial run of that plan
on a copy of the instance (the ``price=trial`` column).
"""

from _util import print_table
from repro import Device, Instance
from repro.core import (CountingEmitter, acyclic_join, acyclic_join_best,
                        clone_instance, enumerate_plans, first_leaf_chooser,
                        plan_chooser, smallest_leaf_chooser)
from repro.core.guided import lollipop_paper_chooser
from repro.core.price import price_plan, snapshot
from repro.query import line_query, lollipop_query
from repro.workloads import (cross_product_line_instance,
                             lollipop_worstcase_instance)


def run_with(q, schemas, data, chooser):
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    em = CountingEmitter()
    acyclic_join(q, inst, em, chooser=chooser)
    return device.stats.total, em.count


def priced_at_trial_cost(q, inst, limit=None):
    """``"k/n"``: how many of the ``n`` plans are priced at exactly the
    reads and writes a trial run of the plan is charged."""
    rows = snapshot(inst)
    plans = enumerate_plans(q, limit=limit)
    exact = 0
    for plan in plans:
        dev, trial = clone_instance(inst)
        acyclic_join(q, trial, CountingEmitter(), chooser=plan_chooser(plan))
        price = price_plan(q, rows, plan, dev.M, dev.B)
        exact += (price.reads, price.writes) == (dev.stats.reads,
                                                 dev.stats.writes)
    return f"{exact}/{len(plans)}"


def sweep():
    rows = []

    # Asymmetric L4: peel order matters a lot.
    schemas, data = cross_product_line_instance([8, 2, 1, 16, 1])
    q = line_query(4)
    io_first, n1 = run_with(q, schemas, data, first_leaf_chooser)
    io_small, n2 = run_with(q, schemas, data, smallest_leaf_chooser)
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    best = acyclic_join_best(q, inst)
    assert n1 == n2 == best.best.emitted
    rows.append({"query": "L4 asymmetric", "first-leaf": io_first,
                 "greedy": io_small, "guided": "n/a",
                 "best-branch": best.io,
                 "branches": len(best.runs),
                 "price=trial": priced_at_trial_cost(q, inst)})

    # Lollipop worst case: the paper's own rule applies.
    q = lollipop_query(3)
    schemas, data = lollipop_worstcase_instance(q, case="petals",
                                                scale=6)
    io_first, n1 = run_with(q, schemas, data, first_leaf_chooser)
    io_small, _ = run_with(q, schemas, data, smallest_leaf_chooser)
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    io_guided, _ = run_with(q, schemas, data,
                            lollipop_paper_chooser(q, inst))
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    best = acyclic_join_best(q, inst, limit=24)
    rows.append({"query": "lollipop worst-case", "first-leaf": io_first,
                 "greedy": io_small, "guided": io_guided,
                 "best-branch": best.io,
                 "branches": len(best.runs),
                 "price=trial": priced_at_trial_cost(q, inst, limit=24)})
    return rows


def test_strategy_ablation(benchmark, capsys):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: leaf-choice strategies for Algorithm 2",
                rows, capsys)
    for r in rows:
        # Every plan is priced at exactly its trial run's I/O.
        k, n = r["price=trial"].split("/")
        assert k == n, r
        # Exploration never loses.
        assert r["best-branch"] <= r["first-leaf"]
        assert r["best-branch"] <= r["greedy"]
        if r["guided"] != "n/a":
            # The paper's guided rule lands within 2x of the best
            # branch at a single run's cost.
            assert r["guided"] <= 2.0 * r["best-branch"]