#!/usr/bin/env python3
"""Explainability tour: trace the recursion, witness the bounds.

Runs Algorithm 2 on an unbalanced 5-relation line join with a span
profiler observing the device, then prints:

* the peel transcript: the span tree of the recursion (which relation,
  heavy/light split, I/O), indented by depth;
* the per-phase I/O breakdown (sort vs semijoin vs the rest);
* the witnessed Theorem 3 bound report — including the > 1 gap between
  the GenS budget and the ψ lower bound that Section 6.3 proves for
  this regime (the reason Algorithm 4 exists).

Run:  python examples/explain_join.py
"""

from repro import Device, Instance
from repro.analysis import explain_bound
from repro.core import CountingEmitter, acyclic_join
from repro.obs import SpanProfiler
from repro.query import line_query
from repro.query.lines import is_balanced
from repro.workloads import unbalanced_l5_instance

#: The spans Algorithm 2's recursion opens, one per step.
STEPS = ("scan", "peel_bud", "peel_island", "peel_leaf")


def main() -> None:
    schemas, data = unbalanced_l5_instance(1, 12, 2, 2, 12, 1)
    sizes = [len(data[f"e{i}"]) for i in range(1, 6)]
    query = line_query(5, sizes)
    print(f"sizes    : {sizes}  (balanced: {is_balanced(sizes)})")

    profiler = SpanProfiler()
    device = Device(M=4, B=2, observers=[profiler])
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    acyclic_join(query, instance, emitter)

    steps = [s for s in profiler.iter_spans() if s.name in STEPS]
    counts = {name: sum(s.name == name for s in steps) for name in STEPS}
    print(f"results  : {emitter.count}")
    print(f"io       : {device.stats.total}")
    print(f"phases   : {device.phases.report()}")
    # Depth 0 is the acyclic_join span every step nests under.
    print(f"max depth: {max(s.depth for s in steps) - 1}   "
          f"steps: {counts}")
    print("\n-- recursion transcript (first 25 steps) --")
    for s in steps[:25]:
        attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
        print(f"{'  ' * (s.depth - 1)}{s.name} {attrs}  (io={s.io})")
    if len(steps) > 25:
        print(f"... {len(steps) - 25} more steps")

    print("\n-- Theorem 3 bound report --")
    report = explain_bound(query, data, schemas, device.M, device.B)
    print(report.render())
    print("\nThe gap above 1.0 is Section 6.3's point: on unbalanced")
    print("L5 instances Algorithm 2's budget exceeds the psi lower")
    print("bound, and Algorithm 4 (line5_unbalanced_join) closes it.")


if __name__ == "__main__":
    main()
