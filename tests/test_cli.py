"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def csv_tables(tmp_path):
    (tmp_path / "follows.csv").write_text(
        "src,dst\n" + "\n".join(f"{i},{(i + 1) % 4}" for i in range(4)))
    (tmp_path / "lives.csv").write_text(
        "dst,city\n" + "\n".join(f"{i},{100 + i}" for i in range(4)))
    return tmp_path


class TestRun:
    def test_basic_join(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "-M", "64", "-B", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "results     : 4" in out
        assert "two-way-sort-merge" in out
        assert "phases" in out

    def test_out_csv(self, csv_tables, capsys):
        out_path = csv_tables / "res.csv"
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "--out", str(out_path)])
        assert rc == 0
        assert len(out_path.read_text().strip().splitlines()) == 5

    def test_certificate(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "--certificate"])
        assert rc == 0
        assert "certificate" in capsys.readouterr().out

    def test_missing_table_errors(self, csv_tables, capsys):
        rc = main(["run", "--query", "follows(src,dst), lives(dst,city)",
                   "--table", f"follows={csv_tables}/follows.csv"])
        assert rc == 2
        assert "no --table" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--table", "followspath.csv"],
        ["run", "--table", "follows={d}/follows.csv",
         "--table", "={d}/lives.csv"],
        ["run", "--table", "follows={d}/nope.csv"],
        ["run", "--table", "follows={d}/follows.csv", "-M", "0"],
        ["run", "--table", "follows={d}/follows.csv", "-B", "0"],
        ["run", "--table", "follows={d}/follows.csv", "-M", "2", "-B", "4"],
        ["explain", "--table", "follows={d}/nope.csv"],
    ], ids=" ".join)
    def test_bad_table_spec(self, argv, csv_tables, capsys):
        argv = [a.format(d=csv_tables) for a in argv]
        rc = main([*argv, "--query", "follows(src,dst)"])
        assert rc == 2
        io = capsys.readouterr()
        assert io.err.startswith("error: ") and not io.out

    def test_mismatched_columns(self, csv_tables, capsys):
        rc = main(["run", "--query", "follows(a, b)",
                   "--table", f"follows={csv_tables}/follows.csv"])
        assert rc == 2
        assert "columns" in capsys.readouterr().err

    def test_buffer_pool_reports_cache_line(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "-M", "64", "-B", "8",
                   "--pool-frames", "8", "--pool-policy", "clock"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache       : hits=" in out
        assert "hit_rate=" in out


class TestRunJson:
    def _payload(self, csv_tables, capsys, *extra):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "-M", "64", "-B", "8", "--json", *extra])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_json_is_scrapable(self, csv_tables, capsys):
        p = self._payload(csv_tables, capsys)
        assert p["results"] == 4
        assert p["algorithm"] == "two-way-sort-merge"
        assert p["io"]["total"] == p["io"]["reads"] + p["io"]["writes"]
        assert p["io"]["join"] + p["io"]["reduce"] == p["io"]["total"]
        assert "(unattributed)" in p["phases"]
        assert sum(p["phases"].values()) == p["io"]["total"]
        assert p["memory"]["peak"] >= 0
        assert p["machine"] == {"M": 64, "B": 8}
        assert p["cache"] is None     # pool off by default

    def test_json_with_pool_has_cache_section(self, csv_tables, capsys):
        p = self._payload(csv_tables, capsys, "--pool-frames", "8")
        cache = p["cache"]
        assert cache["hits"] + cache["misses"] == cache["logical_reads"]
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_json_with_certificate(self, csv_tables, capsys):
        p = self._payload(csv_tables, capsys, "--certificate")
        assert p["certificate"]["lower"] > 0

    def test_trace_exports_parseable_jsonl(self, csv_tables, capsys):
        trace_path = csv_tables / "trace.jsonl"
        p = self._payload(csv_tables, capsys, "--trace",
                          str(trace_path))
        lines = [json.loads(line) for line in
                 trace_path.read_text().splitlines()]
        assert p["trace"]["events"] == len(lines)
        assert p["trace"]["path"] == str(trace_path)
        reads = sum(1 for e in lines if e["kind"] == "read")
        writes = sum(1 for e in lines if e["kind"] == "write")
        assert reads == p["io"]["reads"]
        assert writes == p["io"]["writes"]

    def test_trace_section_reports_loss_honestly(self, csv_tables,
                                                 capsys):
        """The JSON trace section admits what the ring buffer lost."""
        trace_path = csv_tables / "trace.jsonl"
        p = self._payload(csv_tables, capsys, "--trace",
                          str(trace_path), "--trace-buffer", "4")
        t = p["trace"]
        for key in ("seen", "stored", "overwritten"):
            assert t[key] >= 0
        assert t["stored"] == t["events"] == 4
        assert t["overwritten"] > 0
        assert t["seen"] == t["stored"] + t["overwritten"]

    def test_trace_summary_sums_to_total(self, csv_tables, capsys):
        p = self._payload(csv_tables, capsys, "--trace-summary")
        s = p["trace_summary"]
        assert sum(v["total"] for v in s["per_phase"].values()) == \
            p["io"]["total"]
        assert sum(v["total"] for v in s["per_file"].values()) == \
            p["io"]["total"]
        assert s["io"]["reads"] == p["io"]["reads"]
        assert {k: v["total"] for k, v in s["per_phase"].items()} == \
            p["phases"]

    def test_trace_summary_prose(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "--trace-summary"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace       :" in out
        assert "phase sort" in out

    def test_trace_rejects_bad_knobs(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "--trace-summary", "--trace-buffer", "0"])
        assert rc == 2
        assert "--trace-buffer" in capsys.readouterr().err


class TestRunProfile:
    def _payload(self, csv_tables, capsys, *extra):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "-M", "64", "-B", "8", "--json", *extra])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_profile_writes_perfetto_json(self, csv_tables, capsys):
        prof_path = csv_tables / "prof.json"
        p = self._payload(csv_tables, capsys, "--profile",
                          str(prof_path))
        doc = json.loads(prof_path.read_text())
        assert len(doc["traceEvents"]) == p["profile"]["events"]
        assert p["profile"]["path"] == str(prof_path)
        for e in doc["traceEvents"]:
            assert e["ph"] == "X" and e["pid"] == 1 and e["tid"] == 1
        # Spans reconcile to the device total, and profiling did not
        # perturb the counters relative to a bare run.
        assert p["profile"]["attributed_io"] + \
            p["profile"]["unattributed_io"] == p["io"]["total"]
        bare = self._payload(csv_tables, capsys)
        assert bare["io"] == p["io"]

    def test_profile_counts_emitted_tuples(self, csv_tables, capsys):
        p = self._payload(csv_tables, capsys, "--profile",
                          str(csv_tables / "prof.json"))
        assert p["profile"]["tuples_produced"] == p["results"] == 4

    def test_profile_records_leaf_peels(self, tmp_path, capsys):
        """A star query's profile holds Algorithm 2's recursion: leaf
        peels with their heavy/light split under the best-branch span."""
        (tmp_path / "e0.csv").write_text(
            "a,b,c\n" + "".join(f"{i},{i},{i}\n" for i in range(6)))
        for e, v, u in (("e1", "a", "x"), ("e2", "b", "y"),
                        ("e3", "c", "z")):
            (tmp_path / f"{e}.csv").write_text(
                f"{v},{u}\n" + "".join(f"{i % 6},{i}\n"
                                        for i in range(12)))
        prof = tmp_path / "prof.json"
        rc = main(["run", "--query",
                   "e0(a,b,c), e1(a,x), e2(b,y), e3(c,z)",
                   *(f"--table={e}={tmp_path}/{e}.csv"
                     for e in ("e0", "e1", "e2", "e3")),
                   "-M", "8", "-B", "2", "--json", "--profile", str(prof)])
        assert rc == 0
        p = json.loads(capsys.readouterr().out)
        assert p["shape"] == "star"

        def walk(spans):
            for sp in spans:
                yield sp
                yield from walk(sp.get("children", ()))

        spans = list(walk(p["profile"]["spans"]))
        best = [sp for sp in spans if sp["name"] == "acyclic_join_best"]
        assert best and best[0]["attrs"]["branches"] >= 1
        leafs = [sp["attrs"] for sp in spans if sp["name"] == "peel_leaf"]
        assert leafs
        assert all({"edge", "v", "heavy", "light"} <= set(a)
                   for a in leafs)

    def test_profile_prose_line(self, csv_tables, capsys):
        rc = main(["run",
                   "--query", "follows(src, dst), lives(dst, city)",
                   "--table", f"follows={csv_tables}/follows.csv",
                   "--table", f"lives={csv_tables}/lives.csv",
                   "--profile", str(csv_tables / "p.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile     :" in out and "attributed" in out


class TestFitCommand:
    def test_fit_two_relations_json(self, capsys):
        rc = main(["fit", "two_relations", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        p = json.loads(out)
        assert p["regression"] is False
        (fit,) = p["fits"]
        assert fit["class"] == "two_relations"
        assert 0.5 <= fit["constant"] <= 2.0
        assert abs(fit["slope"] - 1.0) <= fit["eps"]
        assert len(fit["points"]) == 3

    def test_fit_prose_and_custom_sweep(self, capsys):
        rc = main(["fit", "two_relations", "--points", "32", "64",
                   "-M", "16", "-B", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "two_relations" in out and "slope=" in out
        assert "[ok]" in out

    def test_fit_writes_profile(self, tmp_path, capsys):
        prof = tmp_path / "fit.json"
        rc = main(["fit", "two_relations", "--profile", str(prof)])
        assert rc == 0
        doc = json.loads(prof.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "fit:two_relations" in names

    def test_fit_tight_eps_flags_regression(self, capsys):
        """With eps ~ 0 any real sweep's slope trips the gate."""
        rc = main(["fit", "star", "--eps", "0.0001"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out

    def test_fit_rejects_unknown_class(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "bogus"])


class TestAnalyze:
    def test_line_with_sizes(self, capsys):
        rc = main(["analyze", "--query",
                   "e1(v1,v2)[100], e2(v2,v3)[10], e3(v3,v4)[100]"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "berge-acyclic  : True" in out
        assert "shape          : line" in out
        assert "AGM bound      : 10000.0" in out
        assert "line regime" in out
        assert "GenS branches" in out

    def test_structural_only(self, capsys):
        rc = main(["analyze", "--query", "R(a,b), S(b,c), T(c,d)"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "AGM" not in out  # no sizes attached

    def test_cyclic_query_reported(self, capsys):
        rc = main(["analyze", "--query",
                   "e1(a,b)[9], e2(a,c)[9], e3(b,c)[9]"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "berge-acyclic  : False" in out
        assert "triangle" in out


class _Bound(Exception):
    """Raised by the stand-in for ``make_server``: serve got that far."""


class TestServeFlags:
    @pytest.fixture(autouse=True)
    def no_socket(self, monkeypatch):
        def bind(service, host, port):
            raise _Bound(host, port)

        monkeypatch.setattr("repro.server.make_server", bind)

    @pytest.mark.parametrize("argv", [
        ["--quota", "alice=2:0.5"],  # the old INFLIGHT:SHARE form
        ["--default-quota", "0"],
        ["--workers", "4"],
        ["--pool-frames", "-3"],
        ["--flight-records", "-1"],
        ["--slow-query-ms", "-5"],
        ["--pool-frames", "4", "--max-pin-share", "2"],
        ["-B", "0"],
        ["-M", "2", "-B", "4"],
    ], ids=" ".join)
    def test_bad_flag_exits_2_before_binding(self, argv, capsys):
        try:
            code = main(["serve", *argv])
        except SystemExit as exc:  # argparse refuses unknown flags
            code = exc.code
        assert code == 2
        assert "serve" in capsys.readouterr().err

    def test_share_quotas_reach_binding(self, capsys):
        with pytest.raises(_Bound):
            main(["serve", "--port", "0", "--quota", "alice=0.5",
                  "--default-quota", "0.25"])
