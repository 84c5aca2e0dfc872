"""Edge cases of the Section 6 dispatcher and minor uncovered paths."""

from repro import Device, Instance
from repro.core import CountingEmitter, line_join_auto
from repro.query import gens_all, gens_one, line_query
from repro.query.lines import line_cover

from conftest import make_random_data, rows_of, run_and_compare


class TestDispatcherEdges:
    def test_l9_runs_with_open_optimality_label(self):
        q = line_query(9)
        schemas, data = make_random_data(q, 6, 3, seed=9)
        device = Device(M=8, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        label = line_join_auto(q, inst, CountingEmitter(), plan_limit=2)
        assert "optimality-open" in label or "best-branch" in label

    def test_l9_results_correct(self):
        q = line_query(9)
        schemas, data = make_random_data(q, 6, 3, seed=10)
        run_and_compare(
            q, schemas, data,
            lambda qq, ii, ee: line_join_auto(qq, ii, ee, plan_limit=2),
            M=8, B=2)

    def test_cover_detection_for_cover11(self):
        # Sizes forcing (1,1,0,1,0,1,1): middle five unbalanced with
        # big N3, N5 and tiny N4... per the paper this needs
        # N1·N7 > N2·N4·N6-style breakage; verify line_cover picks the
        # expected shape on a crafted vector.
        sizes = [2, 2, 100, 2, 100, 2, 2]
        cover = line_cover(sizes)
        assert cover[0] == 1 and cover[-1] == 1
        assert sum(cover) >= 4


class TestGensOneChoosers:
    def test_custom_choosers_change_branch(self):
        q = line_query(5)
        first = gens_one(q)
        alt = gens_one(q, star_chooser=lambda stars: len(stars) - 1,
                       leaf_chooser=lambda options: len(options) - 1)
        branches = gens_all(q)
        assert first in branches
        assert alt in branches

    def test_gens_one_is_deterministic(self):
        q = line_query(4)
        assert gens_one(q) == gens_one(q)


class TestSortHelpers:
    def test_is_sorted_on_segment(self, small_device):
        f = small_device.file_from_tuples_free(
            [(5,), (1,), (2,), (3,), (9,)])
        assert rows_of(f.segment(1, 4)) == [(1,), (2,), (3,)]
        assert rows_of(f) != sorted(rows_of(f))


class TestCLINoReduce:
    def test_no_reduce_flag(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "a.csv").write_text("x,y\n1,2\n")
        (tmp_path / "b.csv").write_text("y,z\n2,3\n")
        rc = main(["run", "--query", "a(x,y), b(y,z)",
                   "--table", f"a={tmp_path}/a.csv",
                   "--table", f"b={tmp_path}/b.csv", "--no-reduce"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "io (reduce) : 0" in out
