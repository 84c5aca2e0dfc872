"""Tests for CSV loading and result export."""

import pytest

from repro import Device
from repro.core import CollectingEmitter, execute
from repro.data.io import dump_results_csv, instance_from_csv, load_csv
from repro.query.parse import parse_query

from conftest import rows_of


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_header_and_int_inference(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "a,b\n1,2\n3,4\n")
        rel = load_csv(small_device, p, "e1")
        assert rel.schema.attributes == ("a", "b")
        assert sorted(rows_of(rel)) == [(1, 2), (3, 4)]

    def test_float_and_string_columns(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "a,b,c\n1.5,xx,7\n2.0,yy,8\n")
        rel = load_csv(small_device, p, "e1")
        assert rows_of(rel)[0] == (1.5, "xx", 7)

    def test_mixed_int_column_becomes_float_or_str(self, tmp_path,
                                                   small_device):
        p = write(tmp_path, "r.csv", "a\n1\n2.5\n")
        rel = load_csv(small_device, p, "e1")
        assert rows_of(rel)[0] == (1.0,)

    def test_headerless_requires_attributes(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "1,2\n3,4\n")
        with pytest.raises(ValueError):
            load_csv(small_device, p, "e1", header=False)
        rel = load_csv(small_device, p, "e1", header=False,
                       attributes=("x", "y"))
        assert len(rel) == 2

    def test_duplicate_rows_dropped(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "a,b\n1,2\n1,2\n3,4\n")
        rel = load_csv(small_device, p, "e1")
        assert len(rel) == 2

    def test_ragged_row_rejected(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            load_csv(small_device, p, "e1")

    def test_empty_file_rejected(self, tmp_path, small_device):
        p = write(tmp_path, "r.csv", "")
        with pytest.raises(ValueError):
            load_csv(small_device, p, "e1")

    def test_tsv(self, tmp_path, small_device):
        p = write(tmp_path, "r.tsv", "a\tb\n1\t2\n")
        rel = load_csv(small_device, p, "e1", delimiter="\t")
        assert rows_of(rel)[0] == (1, 2)

    def test_loading_is_uncharged(self, tmp_path):
        device = Device(M=8, B=2)
        p = write(tmp_path, "r.csv", "a,b\n" + "\n".join(
            f"{i},{i}" for i in range(50)))
        load_csv(device, p, "e1")
        assert device.stats.total == 0


class TestEndToEnd:
    def test_csv_to_join_to_csv(self, tmp_path):
        device = Device(M=8, B=2)
        write(tmp_path, "follows.csv",
              "src,dst\n" + "\n".join(f"{i},{(i + 1) % 5}"
                                      for i in range(5)))
        write(tmp_path, "lives.csv",
              "dst,city\n" + "\n".join(f"{i},{100 + i}"
                                       for i in range(5)))
        inst = instance_from_csv(device, {
            "follows": tmp_path / "follows.csv",
            "lives": tmp_path / "lives.csv",
        })
        query = parse_query("follows(src, dst), lives(dst, city)")
        em = CollectingEmitter()
        execute(query, inst, em)
        assert em.count == 5

        out = tmp_path / "out.csv"
        n = dump_results_csv(em.results, inst.schemas(), out)
        assert n == 5
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "city,dst,src"
        assert len(lines) == 6
