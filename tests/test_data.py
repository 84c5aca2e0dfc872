"""Unit tests for schemas, relations, and instances."""

import random

import pytest

from repro import Device, Instance, Relation, RelationSchema
from repro.core import CountingEmitter, acyclic_join_best
from repro.query import line_query
from repro.workloads import schemas_for

from conftest import rows_of


class TestRelationSchema:
    def test_index_and_contains(self):
        s = RelationSchema("e1", ("v1", "v2"))
        assert s.index("v2") == 1
        assert "v1" in s and "v9" not in s

    def test_unknown_attribute_raises(self):
        s = RelationSchema("e1", ("v1", "v2"))
        with pytest.raises(KeyError):
            s.index("v3")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema("e1", ("v1", "v1"))

    def test_key_and_multi_key(self):
        s = RelationSchema("e1", ("a", "b", "c"))
        assert s.key("b")((1, 2, 3)) == 2
        assert s.multi_key(("c", "a"))((1, 2, 3)) == (3, 1)

    def test_project_and_value(self):
        s = RelationSchema("e1", ("a", "b"))
        assert s.value((7, 8), "b") == 8
        assert s.project((7, 8), ("b", "a")) == (8, 7)

    def test_common(self):
        s1 = RelationSchema("e1", ("a", "b"))
        s2 = RelationSchema("e2", ("b", "c"))
        assert s1.common(s2) == ("b",)


class TestRelation:
    def test_from_tuples_free_by_default(self, small_device):
        schema = RelationSchema("e1", ("a", "b"))
        r = Relation.from_tuples(small_device, schema, [(1, 2), (3, 4)])
        assert len(r) == 2
        assert small_device.stats.total == 0

    def test_arity_mismatch_rejected(self, small_device):
        schema = RelationSchema("e1", ("a", "b"))
        with pytest.raises(ValueError):
            Relation.from_tuples(small_device, schema, [(1,)])
        with pytest.raises(ValueError, match="arity"):
            Instance.from_dicts(small_device, {"e1": ("a", "b")},
                                {"e1": [(1, 2), (3,)]})

    def test_sort_by_charges_and_is_idempotent(self, small_device):
        schema = RelationSchema("e1", ("a", "b"))
        r = Relation.from_tuples(small_device, schema,
                                 [(i % 3, i) for i in range(12)])
        s = r.sort_by("a")
        io_after = small_device.stats.total
        assert io_after > 0
        assert s.sorted_on == "a"
        assert s.sort_by("a") is s
        assert small_device.stats.total == io_after
        values = [t[0] for t in rows_of(s)]
        assert values == sorted(values)

    def test_restrict_requires_sort(self, small_device):
        schema = RelationSchema("e1", ("a", "b"))
        r = Relation.from_tuples(small_device, schema, [(0, 1)])
        with pytest.raises(ValueError):
            r.restrict(0, 1, attribute="a", value=0)

    def test_restrict_records_fixed_value(self, small_device):
        schema = RelationSchema("e1", ("a", "b"))
        r = Relation.from_tuples(small_device, schema,
                                 [(0, 1), (0, 2), (1, 3)]).sort_by("a")
        sub = r.restrict(0, 2, attribute="a", value=0)
        assert len(sub) == 2
        assert sub.fixed == {"a": 0}


class TestInstance:
    def make(self, device):
        return Instance.from_dicts(
            device,
            {"e1": ("v1", "v2"), "e2": ("v2", "v3")},
            {"e1": [(1, 2)], "e2": [(2, 3), (2, 4)]})

    def test_mapping_interface(self, small_device):
        inst = self.make(small_device)
        assert set(inst) == {"e1", "e2"}
        assert inst.sizes() == {"e1": 1, "e2": 2}
        assert inst.schemas()["e2"] == ("v2", "v3")

    def test_missing_data_rejected(self, small_device):
        with pytest.raises(ValueError):
            Instance.from_dicts(small_device, {"e1": ("a",)}, {})

    def test_drop_and_replace(self, small_device):
        inst = self.make(small_device)
        assert set(inst.drop("e1")) == {"e2"}
        inst2 = inst.replace(e2=inst["e2"].rewrite([(9, 9)], label="x"))
        assert len(inst2["e2"]) == 1
        assert len(inst["e2"]) == 2  # original untouched

    def test_key_name_mismatch_rejected(self, small_device):
        inst = self.make(small_device)
        with pytest.raises(ValueError):
            Instance({"wrong": inst["e1"]})

    def test_value_of_resolves_attribute(self, small_device):
        inst = self.make(small_device)
        result = {"e1": (1, 2), "e2": (2, 3)}
        assert inst.value_of(result, "v1") == 1
        assert inst.value_of(result, "v3") == 3
        with pytest.raises(KeyError):
            inst.value_of(result, "v9")

    def test_duplicate_rows_rejected(self, small_device):
        # Regression: bag inputs used to give plan-dependent answers —
        # acyclic_join_best's peel plans disagreed (1426 vs 1598 results
        # at M=8, B=2; the bag answer is 1806, the set answer 340).
        q = line_query(3)
        rng = random.Random(7)
        schemas = schemas_for(q)
        data = {e: [tuple(rng.randrange(6) for _ in attrs)
                    for _ in range(40)]
                for e, attrs in schemas.items()}
        with pytest.raises(ValueError,
                           match=r"relation 'e1' has duplicate row \("):
            Instance.from_dicts(Device(M=8, B=2), schemas, data)
        sets = {e: sorted(set(rows)) for e, rows in data.items()}
        inst = Instance.from_dicts(Device(M=8, B=2), schemas, sets)
        emitter = CountingEmitter()
        acyclic_join_best(q, inst, emitter)
        assert emitter.count == 340
