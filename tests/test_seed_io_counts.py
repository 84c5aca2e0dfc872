"""Pool-off I/O counts must stay byte-identical to the seed accounting.

These exact (reads, writes, results) triples were recorded on fixed
instances *before* the buffer-pool subsystem existed.  With the pool
disabled (the default), the routing through ``Device.charge_read`` /
``charge_write`` must reproduce them exactly — the paper-faithful
accounting is the contract every benchmark number rests on.
"""

from repro import Device, Instance, Tracer
from repro.core import (CountingEmitter, acyclic_join_best, execute,
                        line3_join, nested_loop_join)
from repro.em import PoolConfig
from repro.obs import SpanProfiler
from repro.query import line_query, star_query
from repro.workloads import (fig3_line3_instance, schemas_for,
                             star_worstcase_instance)


def measure(query, schemas, data, M, B, runner, **device_kwargs):
    device = Device(M=M, B=B, **device_kwargs)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance, emitter)
    return device.stats.reads, device.stats.writes, emitter.count


class TestSeedCounts:
    def test_two_relation_nested_loop(self):
        schemas = schemas_for(line_query(2))
        data = {"e1": [(i, 0) for i in range(64)],
                "e2": [(0, j) for j in range(64)]}
        got = measure(line_query(2), schemas, data, 16, 4,
                      lambda q, i, e: nested_loop_join(i["e1"], i["e2"], e))
        assert got == (80, 0, 4096)

    def test_line3_algorithm1(self):
        schemas, data = fig3_line3_instance(32, 32)
        got = measure(line_query(3), schemas, data, 4, 2,
                      lambda q, i, e: line3_join(q, i, e))
        assert got == (325, 146, 1024)

    def test_star_best_branch(self):
        schemas, data = star_worstcase_instance([16, 16])
        got = measure(star_query(2), schemas, data, 4, 2,
                      lambda q, i, e: acyclic_join_best(q, i, e, limit=16))
        assert got == (210, 157, 256)

    def test_tracer_does_not_change_any_count(self):
        """A tracer is a pure observer: with one observing (and, pooled,
        a profiler beside an overflowing tracer), every seed triple
        stays byte-identical — pool off and pool on."""
        cases = [
            (line_query(2), schemas_for(line_query(2)),
             {"e1": [(i, 0) for i in range(64)],
              "e2": [(0, j) for j in range(64)]}, 16, 4,
             lambda q, i, e: nested_loop_join(i["e1"], i["e2"], e)),
            (line_query(3), *fig3_line3_instance(32, 32), 4, 2,
             lambda q, i, e: line3_join(q, i, e)),
            (star_query(2), *star_worstcase_instance([16, 16]), 4, 2,
             lambda q, i, e: acyclic_join_best(q, i, e, limit=16)),
        ]
        for query, schemas, data, M, B, runner in cases:
            plain = measure(query, schemas, data, M, B, runner)
            traced = measure(query, schemas, data, M, B, runner,
                             observers=[Tracer()])
            assert traced == plain
            pooled = measure(query, schemas, data, M, B, runner,
                             buffer_pool=PoolConfig(frames=4))
            pooled_traced = measure(query, schemas, data, M, B, runner,
                                    buffer_pool=PoolConfig(frames=4),
                                    observers=[Tracer(capacity=3),
                                               SpanProfiler()])
            assert pooled_traced == pooled

    def test_planner_execute_line3(self):
        schemas, data = fig3_line3_instance(16, 16)
        device = Device(M=8, B=2)
        instance = Instance.from_dicts(device, schemas, data)
        emitter = CountingEmitter()
        report = execute(line_query(3), instance, emitter)
        assert report.algorithm == "algorithm-1"
        assert (device.stats.reads, device.stats.writes,
                emitter.count) == (109, 62, 256)
