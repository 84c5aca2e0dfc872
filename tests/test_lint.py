"""Tests for emlint: rules, pragmas, reporters, CLI."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lint import RULES, check_source, lint_paths, to_json
from repro.lint.report import REPORT_SCHEMA_VERSION

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
FIXTURE_SRC = FIXTURES / "src"

#: code → the fixture file(s) that trigger it exactly once when
#: linted together.
BAD_FIXTURES = {
    "EM000": (FIXTURE_SRC / "repro/core/bad_em000.py",),
    "EM001": (FIXTURE_SRC / "repro/query/bad_em001.py",),
    "EM002": (FIXTURE_SRC / "repro/core/bad_em002.py",),
    "EM003": (FIXTURE_SRC / "repro/em/bad_em003.py",),
    "EM004": (FIXTURE_SRC / "repro/core/bad_em004.py",),
    "EM005": (FIXTURE_SRC / "repro/obs/bad_em005.py",),
    "EM006": (FIXTURE_SRC / "repro/core/bad_em006.py",),
}


# ---------------------------------------------------------------- rules


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(BAD_FIXTURES))
    def test_each_bad_fixture_triggers_its_rule_exactly_once(self, code):
        result = lint_paths(list(BAD_FIXTURES[code]), root=FIXTURES)
        codes = [v.code for v in result.violations]
        assert codes == [code]

    def test_registry_covers_every_fixture_and_vice_versa(self):
        assert set(BAD_FIXTURES) == set(RULES)

    def test_clean_fixture_has_no_findings(self):
        result = lint_paths([FIXTURE_SRC / "repro/core/clean_ok.py"],
                            root=FIXTURES)
        assert result.clean
        assert not result.suppressed_by_pragma

    def test_violation_carries_scope_and_renders(self):
        result = lint_paths(BAD_FIXTURES["EM002"], root=FIXTURES)
        (v,) = result.violations
        assert v.scope == "slurp"
        assert "EM002" in v.render()
        assert v.path.endswith("bad_em002.py")


class TestRuleSemantics:
    """check_source unit tests for the subtle accept/reject edges."""

    def test_em002_inside_hold_is_compliant(self):
        src = ("def f(rel, device):\n"
               "    with device.memory.hold(len(rel)):\n"
               "        return list(rel.data.scan())\n")
        assert check_source(src, "src/repro/core/x.py") == []

    def test_em002_comprehension_over_scan_flagged(self):
        src = "def f(rel):\n    return [t for t in rel.data.scan()]\n"
        (v,) = check_source(src, "src/repro/core/x.py")
        assert v.code == "EM002"

    def test_em002_only_polices_core(self):
        src = "def f(rel):\n    return list(rel.data.scan())\n"
        assert check_source(src, "src/repro/workloads/x.py") == []

    def test_em001_exempts_em_layer_and_data_io(self):
        src = "fh = open('x')\n"
        assert check_source(src, "src/repro/em/x.py") == []
        assert check_source(src, "src/repro/data/io.py") == []
        assert check_source(src, "src/repro/core/x.py") != []

    def test_em001_pathlib_methods_and_import(self):
        src = "import pathlib\np = pathlib.Path('x')\nq = p.read_text()\n"
        codes = [v.code for v in check_source(src, "src/repro/core/x.py")]
        assert codes == ["EM001", "EM001"]

    def test_em003_relative_import_resolved(self):
        src = "from ..core import execute\n"
        (v,) = check_source(src, "src/repro/em/bad.py")
        assert v.code == "EM003"
        # Counted layers never reach the host-side I/O modules.
        src = "from ..data.io import load_csv\n"
        (v,) = check_source(src, "src/repro/core/bad.py")
        assert v.code == "EM003"

    def test_em003_analysis_may_import_core(self):
        src = "from repro.core import execute\n"
        assert check_source(src, "src/repro/analysis/x.py") == []

    def test_em004_only_counted_layers(self):
        src = "import time\n"
        assert check_source(src, "src/repro/obs/x.py") == []
        assert [v.code for v in check_source(src, "src/repro/em/x.py")] \
            == ["EM004"]
        # Counted paths import query/ and data/, so they are policed too.
        for layer in ("query", "data"):
            assert [v.code for v in check_source(
                "from random import Random\n",
                f"src/repro/{layer}/x.py")] == ["EM004"]

    def test_em005_with_statement_is_compliant(self):
        src = ("def f(stats):\n"
               "    with stats.suspend():\n"
               "        pass\n")
        assert check_source(src, "src/repro/obs/x.py") == []

    def test_em005_assigned_call_is_compliant(self):
        # Returning/assigning the context manager is legitimate
        # (Device.span returns the span context); only a *discarded*
        # bare call leaks state.
        src = "def f(d):\n    return d.span('x')\n"
        assert check_source(src, "src/repro/em/device.py") == []

    def test_em006_declared_and_used_is_compliant(self):
        src = ("PHASES = ('sort',)\n"
               "def f(d):\n"
               "    with d.phases.phase('sort'):\n"
               "        pass\n")
        assert check_source(src, "src/repro/core/x.py") == []

    def test_em006_stale_declaration_flagged(self):
        src = "PHASES = ('sort', 'merge')\n" \
              "def f(d):\n" \
              "    with d.phases.phase('sort'):\n" \
              "        pass\n"
        (v,) = check_source(src, "src/repro/core/x.py")
        assert v.code == "EM006"
        assert "merge" in v.message

    def test_em006_non_literal_phases_flagged(self):
        src = "PHASES = make_phases()\n"
        (v,) = check_source(src, "src/repro/core/x.py")
        assert v.code == "EM006"


class TestWidenedEm002:
    @pytest.mark.parametrize("layer", ["core", "query", "analysis"])
    def test_policed_layers_flagged(self, layer):
        src = "def f(rel):\n    return list(rel.data.scan())\n"
        (v,) = check_source(src, f"src/repro/{layer}/x.py")
        assert v.code == "EM002"

    @pytest.mark.parametrize("layer", ["workloads", "obs", "internal"])
    def test_unpoliced_layers_not_flagged(self, layer):
        src = "def f(rel):\n    return list(rel.data.scan())\n"
        assert check_source(src, f"src/repro/{layer}/x.py") == []


# -------------------------------------------------------------- pragmas


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        result = lint_paths([FIXTURE_SRC / "repro/core/pragma_ok.py"],
                            root=FIXTURES)
        assert result.clean
        assert [v.code for v in result.suppressed_by_pragma] == ["EM002"]

    def test_pragma_is_code_specific(self, tmp_path):
        f = tmp_path / "src" / "repro" / "core" / "x.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time  # emlint: disable=EM001\n")
        result = lint_paths([f], root=tmp_path)
        assert [v.code for v in result.violations] == ["EM004"]

    def test_disable_all(self, tmp_path):
        f = tmp_path / "src" / "repro" / "core" / "x.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time  # emlint: disable=all\n")
        result = lint_paths([f], root=tmp_path)
        assert result.clean
        assert len(result.suppressed_by_pragma) == 1


# ------------------------------------------------------------ reporters


class TestReporters:
    def test_json_schema_key_set_is_stable(self):
        result = lint_paths(BAD_FIXTURES["EM002"], root=FIXTURES)
        doc = json.loads(to_json(result))
        assert set(doc) == {"schema_version", "files_checked", "clean",
                            "violations", "suppressed", "rules"}
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION == 2
        assert set(doc["suppressed"]) == {"pragma"}
        (v,) = doc["violations"]
        assert set(v) == {"code", "path", "line", "col", "scope",
                          "message", "rule"}
        assert set(doc["rules"]) == set(RULES)

    def test_json_reports_clean_flag(self):
        result = lint_paths([FIXTURE_SRC / "repro/core/clean_ok.py"],
                            root=FIXTURES)
        doc = json.loads(to_json(result))
        assert doc["clean"] is True and doc["violations"] == []


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_exit_1_on_known_bad_fixtures(self, capsys):
        rc = main(["lint", str(FIXTURE_SRC), "--root", str(FIXTURES)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "EM003" in out and "violation" in out

    def test_json_format(self, capsys):
        rc = main(["lint", str(FIXTURE_SRC / "repro/core/bad_em002.py"),
                   "--root", str(FIXTURES), "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        # EM007–EM021 are retired and never reused.
        assert sorted(RULES) == [f"EM{i:03d}" for i in range(7)]
        for code in RULES:
            assert code in out


# ----------------------------------------------------- hypothesis fuzz

_IDENT = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
_PHRASE = st.sampled_from([
    "import {m}\n",
    "from {m} import {n}\n",
    "from repro.core import {n}\n",
    "def {n}(x):\n    return {m}.{n}(x)\n",
    "{n} = open('{m}')\n",
    "{n} = list({m}.data.scan())\n",
    "with {m}.memory.hold(3):\n    {n} = list({m}.data.scan())\n",
    "{m}.suspend()\n",
    "with {m}.suspend():\n    pass\n",
    "PHASES = ('{n}',)\n",
    "with {m}.phases.phase('{n}'):\n    pass\n",
    "class {n}:\n    def {m}(self):\n        return 0\n",
])
_PATHS = st.sampled_from([
    "src/repro/core/fuzz.py", "src/repro/em/fuzz.py",
    "src/repro/obs/fuzz.py", "src/repro/query/fuzz.py",
    "elsewhere/fuzz.py",
])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_PHRASE, _IDENT, _IDENT), max_size=6),
       _PATHS)
def test_check_source_never_crashes(chunks, path):
    """Any syntactically valid module yields violations, never raises."""
    src = "".join(t.format(m=m, n=n) for t, m, n in chunks)
    try:
        compile(src, "<fuzz>", "exec")
    except SyntaxError:
        pass  # check_source must map this to EM000, not raise
    violations = check_source(src, path)
    for v in violations:
        assert v.code in RULES
        assert isinstance(v.render(), str)
