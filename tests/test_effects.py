"""Tests for emflow: call graph, effect fixpoint, EM007–EM011.

The interprocedural pass is whole-program, so most tests build a tiny
tree under ``tmp_path`` and lint it with :func:`lint_paths`; the
call-graph internals (SCC order, resolution, conservatism) are tested
against :func:`build_program` directly.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import (Baseline, build_program, check_source,
                        evaluate, lint_paths, signature_table,
                        write_baseline)
from repro.lint.callgraph import UNKNOWN, strongly_connected
from repro.lint.effects import EFFECTS_SCHEMA_VERSION

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
FIXTURE_SRC = FIXTURES / "src"


def tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path/src/repro and lint."""
    for rel, source in files.items():
        f = tmp_path / "src" / "repro" / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(source)
    return lint_paths([tmp_path / "src"], root=tmp_path)


def program_of(files, **kwargs):
    """Build a Program straight from in-memory sources."""
    modules = []
    for rel, source in files.items():
        path = f"src/repro/{rel}"
        pkg = tuple(Path(rel).parts)
        modules.append((path, source, ast.parse(source), pkg))
    return build_program(modules, **kwargs)


# ------------------------------------------------- the acceptance proof


class TestEm007Transitivity:
    """The ISSUE's acceptance criterion: a helper wrapping open() two
    calls deep is flagged by EM007 while the same code passes the
    intraprocedural EM001."""

    HELPER = FIXTURE_SRC / "repro/em/io_helpers.py"
    CALLER = FIXTURE_SRC / "repro/core/bad_em007.py"

    def test_intraprocedural_em001_passes_both_files(self):
        for f in (self.HELPER, self.CALLER):
            rel = f.relative_to(FIXTURES).as_posix()
            assert check_source(f.read_text(), rel) == []

    def test_whole_program_em007_flags_the_caller(self):
        result = lint_paths([self.CALLER, self.HELPER], root=FIXTURES)
        (v,) = result.violations
        assert v.code == "EM007"
        assert v.path.endswith("bad_em007.py")
        assert v.scope == "load"
        # The witness names the helper the PHYS_IO arrived through.
        assert "read_all" in v.message

    def test_helper_alone_is_clean(self):
        # Without the core/ caller there is no counted-layer reach.
        assert lint_paths([self.HELPER], root=FIXTURES).clean


# ------------------------------------------------------ the call graph


class TestCallGraph:
    def test_same_module_and_import_edges(self):
        prog = program_of({
            "em/a.py": "def f():\n    return g()\ndef g():\n    return 0\n",
            "core/b.py": ("from repro.em.a import f\n"
                          "def h():\n    return f()\n"),
        })
        assert prog.nodes["repro.em.a.f"].edges == ["repro.em.a.g"]
        assert prog.nodes["repro.core.b.h"].edges == ["repro.em.a.f"]

    def test_relative_import_resolved(self):
        prog = program_of({
            "core/a.py": "def f():\n    return 0\n",
            "core/b.py": ("from .a import f\n"
                          "def g():\n    return f()\n"),
        })
        assert prog.nodes["repro.core.b.g"].edges == ["repro.core.a.f"]

    def test_package_reexport_followed(self):
        prog = program_of({
            "core/__init__.py": "from repro.core.planner import execute\n",
            "core/planner.py": "def execute():\n    return 0\n",
            "cli.py": ("from repro.core import execute\n"
                       "def run():\n    return execute()\n"),
        })
        assert prog.nodes["repro.cli.run"].edges == [
            "repro.core.planner.execute"]

    def test_self_method_resolved_to_own_class(self):
        prog = program_of({
            "em/a.py": ("class C:\n"
                        "    def f(self):\n        return self.g()\n"
                        "    def g(self):\n        return 0\n"),
        })
        assert prog.nodes["repro.em.a.C.f"].edges == ["repro.em.a.C.g"]

    def test_attr_call_unions_over_all_methods(self):
        prog = program_of({
            "em/a.py": ("class C:\n"
                        "    def probe(self):\n        return 0\n"),
            "em/b.py": ("class D:\n"
                        "    def probe(self):\n        return 1\n"),
            "core/c.py": "def f(x):\n    return x.probe()\n",
        })
        assert sorted(prog.nodes["repro.core.c.f"].edges) == [
            "repro.em.a.C.probe", "repro.em.b.D.probe"]

    def test_constructor_edge_to_init(self):
        prog = program_of({
            "em/a.py": ("class C:\n"
                        "    def __init__(self):\n        self.x = 1\n"),
            "core/b.py": ("from repro.em.a import C\n"
                          "def f():\n    return C()\n"),
        })
        assert prog.nodes["repro.core.b.f"].edges == [
            "repro.em.a.C.__init__"]

    def test_nested_defs_fold_into_enclosing_function(self):
        prog = program_of({
            "core/a.py": ("def outer(rel):\n"
                          "    def inner():\n"
                          "        return rel.peek_tuples()\n"
                          "    return inner\n"),
        })
        assert "repro.core.a.outer" in prog.nodes
        assert "repro.core.a.outer.inner" not in prog.nodes
        assert "FREE_PEEK" in prog.nodes["repro.core.a.outer"].intrinsic

    def test_unknown_callee_is_conservative_top(self):
        prog = program_of({
            "core/a.py": ("import fancylib\n"
                          "def f(cb):\n"
                          "    return cb() + fancylib.go()\n"),
        })
        fn = prog.nodes["repro.core.a.f"]
        assert UNKNOWN in fn.intrinsic
        assert sorted(fn.unknown_calls) == ["cb", "fancylib.go"]

    def test_unknown_propagates_but_fires_no_rule(self, tmp_path):
        result = tree(tmp_path, {
            "core/a.py": ("import fancylib\n"
                          "def helper():\n    return fancylib.go()\n"
                          "def algo():\n    return helper()\n"),
        })
        assert result.clean
        sig = result.signatures["functions"]["repro.core.a.algo"]
        assert sig["inherited"] == [UNKNOWN]

    def test_pure_builtins_and_modules_are_not_unknown(self):
        prog = program_of({
            "core/a.py": ("import json, math\n"
                          "def f(xs):\n"
                          "    return json.dumps(sorted(xs)) + "
                          "str(math.log(len(xs)))\n"),
        })
        fn = prog.nodes["repro.core.a.f"]
        assert fn.unknown_calls == []
        assert fn.intrinsic == set()


# ---------------------------------------------------- SCC and fixpoint


class TestFixpoint:
    def test_scc_order_is_reverse_topological(self):
        prog = program_of({
            "em/a.py": ("def a():\n    return b()\n"
                        "def b():\n    return c()\n"
                        "def c():\n    return 0\n"),
        })
        order = [comp[0] for comp in strongly_connected(prog)]
        assert order.index("repro.em.a.c") < order.index("repro.em.a.b")
        assert order.index("repro.em.a.b") < order.index("repro.em.a.a")

    def test_chain_propagates_effects_transitively(self):
        prog = program_of({
            "obs/a.py": ("def a():\n    return b()\n"
                         "def b():\n    return c()\n"
                         "def c():\n    return open('x').read()\n"),
        })
        evaluate(prog)
        assert "PHYS_IO" in prog.nodes["repro.obs.a.a"].inherited
        assert "PHYS_IO" in prog.nodes["repro.obs.a.b"].inherited
        assert "PHYS_IO" in prog.nodes["repro.obs.a.c"].intrinsic

    def test_mutual_recursion_converges_and_shares_effects(self):
        prog = program_of({
            "obs/a.py": ("def ping(n):\n"
                         "    return pong(n - 1) if n else open('x')\n"
                         "def pong(n):\n"
                         "    return ping(n - 1) if n else 0\n"),
        })
        evaluate(prog)
        ping = prog.nodes["repro.obs.a.ping"]
        pong = prog.nodes["repro.obs.a.pong"]
        assert "PHYS_IO" in ping.intrinsic
        assert "PHYS_IO" in pong.inherited
        # The SCC members see each other exactly once — no divergence.
        comp = [set(c) for c in strongly_connected(prog)
                if len(c) == 2]
        assert comp == [{"repro.obs.a.ping", "repro.obs.a.pong"}]

    def test_self_recursion_does_not_double_report(self, tmp_path):
        result = tree(tmp_path, {
            "query/a.py": ("def walk(path):\n"
                           "    open(path)\n"
                           "    return walk(path)\n"),
        })
        # EM001 for the intrinsic open; no EM007 echo from recursion.
        assert [v.code for v in result.violations] == ["EM001"]

    def test_recursive_chain_to_io_flags_whole_cycle(self, tmp_path):
        result = tree(tmp_path, {
            "core/a.py": ("from repro.em.h import leak\n"
                          "def f(n):\n"
                          "    return g(n - 1) if n else leak()\n"
                          "def g(n):\n"
                          "    return f(n)\n"),
            "em/h.py": "def leak():\n    return open('x')\n",
        })
        assert sorted((v.code, v.scope) for v in result.violations) == [
            ("EM007", "f"), ("EM007", "g")]


# ----------------------------------------------- declarations and EM011


class TestDeclarations:
    def test_declaration_absorbs_and_stops_propagation(self, tmp_path):
        result = tree(tmp_path, {
            "core/a.py": (
                "def peek(rel):  # em-effects: FREE_PEEK -- sanctioned\n"
                "    return rel.peek_tuples()\n"
                "def algo(rel):\n"
                "    return peek(rel)\n"),
        })
        assert result.clean
        sig = result.signatures["functions"]["repro.core.a.peek"]
        assert sig["justification"] == "sanctioned"

    def test_undeclared_core_peek_flagged_everywhere(self, tmp_path):
        result = tree(tmp_path, {
            "core/a.py": ("def peek(rel):\n"
                          "    return rel.peek_tuples()\n"
                          "def algo(rel):\n"
                          "    return peek(rel)\n"),
        })
        assert sorted((v.code, v.scope) for v in result.violations) == [
            ("EM008", "algo"), ("EM008", "peek")]

    def test_drifted_declaration_fails(self, tmp_path):
        result = tree(tmp_path, {
            "query/a.py": (
                "def f():  # em-effects: PHYS_IO -- was true once\n"
                "    return 0\n"),
        })
        (v,) = result.violations
        assert v.code == "EM011" and "drifted" in v.message

    def test_unknown_effect_name_fails(self, tmp_path):
        result = tree(tmp_path, {
            "query/a.py": ("def f():  # em-effects: TURBO\n"
                           "    return 0\n"),
        })
        (v,) = result.violations
        assert v.code == "EM011" and "TURBO" in v.message

    def test_host_only_barrier_blocks_em007(self, tmp_path):
        result = tree(tmp_path, {
            "obs/w.py": (
                "def dump(p):  # em-effects: HOST_ONLY -- report\n"
                "    open(p)  # emlint: disable=EM001\n"),
            "analysis/a.py": ("from repro.obs.w import dump\n"
                              "def report(p):\n    return dump(p)\n"),
        })
        assert result.clean

    def test_counted_layer_calling_host_only_fails(self, tmp_path):
        result = tree(tmp_path, {
            "obs/w.py": (
                "def dump(p):  # em-effects: HOST_ONLY -- report\n"
                "    open(p)  # emlint: disable=EM001\n"),
            "em/a.py": ("from repro.obs.w import dump\n"
                        "def flush(p):\n    return dump(p)\n"),
        })
        (v,) = result.violations
        assert v.code == "EM011" and v.scope == "flush"


# ------------------------------------------------------------ baseline


class TestBaselineStaleness:
    def test_rename_makes_baseline_entry_stale(self, tmp_path):
        src = tmp_path / "src" / "repro" / "core" / "a.py"
        src.parent.mkdir(parents=True)
        src.write_text("def old_name(rel):\n"
                       "    return rel.peek_tuples()\n")
        found = lint_paths([src], root=tmp_path)
        assert [v.scope for v in found.violations] == ["old_name"]
        b = Baseline.from_violations(found.violations,
                                     justification="accepted")
        # Renaming the function is a *different* violation: the old
        # entry must go stale and the new finding must resurface.
        src.write_text("def new_name(rel):\n"
                       "    return rel.peek_tuples()\n")
        renamed = lint_paths([src], root=tmp_path, baseline=b)
        assert [v.scope for v in renamed.violations] == ["new_name"]
        (stale,) = renamed.stale_baseline
        assert stale["scope"] == "old_name" and stale["code"] == "EM008"

    def test_effect_findings_are_baselineable(self, tmp_path):
        paths = [FIXTURE_SRC / "repro/core/bad_em007.py",
                 FIXTURE_SRC / "repro/em/io_helpers.py"]
        found = lint_paths(paths, root=FIXTURES)
        b = Baseline.from_violations(found.violations,
                                     justification="accepted for now")
        bl = tmp_path / "b.json"
        write_baseline(b, bl)
        again = lint_paths(paths, root=FIXTURES,
                           baseline=Baseline(entries=b.entries))
        assert again.clean and not again.stale_baseline


# ----------------------------------------------------- signature table


class TestSignatureTable:
    def test_schema_key_set_is_stable(self):
        prog = program_of({
            "em/a.py": "def f():\n    return open('x')\n",
        })
        evaluate(prog)
        doc = signature_table(prog)
        assert set(doc) == {"schema_version", "functions", "summary"}
        assert doc["schema_version"] == EFFECTS_SCHEMA_VERSION
        entry = doc["functions"]["repro.em.a.f"]
        assert {"path", "line", "layer", "intrinsic", "inherited",
                "effects", "declared", "calls",
                "unknown_calls"} <= set(entry)
        assert set(doc["summary"]) == {"functions",
                                       "with_unknown_calls",
                                       "by_effect"}


# ------------------------------------------------- class hierarchy


class TestClassHierarchy:
    """Inheritance-aware resolution of self/cls/super() calls shrinks
    the UNKNOWN set (this PR's lint satellite)."""

    BASE = ("class Base:\n"
            "    def run(self):\n"
            "        return open('x')\n")

    def test_inherited_self_call_resolves_to_parent(self):
        prog = program_of({
            "em/base.py": self.BASE,
            "em/sub.py": ("from repro.em.base import Base\n"
                          "class Sub(Base):\n"
                          "    def go(self):\n"
                          "        return self.run()\n"),
        })
        fn = prog.nodes["repro.em.sub.Sub.go"]
        assert fn.edges == ["repro.em.base.Base.run"]
        assert fn.unknown_calls == []

    def test_flat_mode_falls_back_to_method_index(self):
        # The same call without hierarchy: `run` is still found through
        # the flat name index (union over all methods so named), so the
        # hierarchy's win here is precision, not reach.
        prog = program_of({
            "em/base.py": self.BASE,
            "em/sub.py": ("from repro.em.base import Base\n"
                          "class Sub(Base):\n"
                          "    def go(self):\n"
                          "        return self.run()\n"),
        }, class_hierarchy=False)
        fn = prog.nodes["repro.em.sub.Sub.go"]
        assert "repro.em.base.Base.run" in fn.edges

    def test_super_call_resolves_above(self):
        prog = program_of({
            "em/base.py": self.BASE,
            "em/sub.py": ("from repro.em.base import Base\n"
                          "class Sub(Base):\n"
                          "    def run(self):\n"
                          "        return super().run()\n"),
        })
        fn = prog.nodes["repro.em.sub.Sub.run"]
        # Not a self-loop: super() skips the override.
        assert fn.edges == ["repro.em.base.Base.run"]
        assert UNKNOWN not in fn.intrinsic

    def test_cls_constructor_idiom(self):
        prog = program_of({
            "em/c.py": ("class C:\n"
                        "    def __init__(self):\n"
                        "        self.x = open('x')\n"
                        "    @classmethod\n"
                        "    def make(cls):\n"
                        "        return cls()\n"),
        })
        fn = prog.nodes["repro.em.c.C.make"]
        assert fn.edges == ["repro.em.c.C.__init__"]
        assert UNKNOWN not in fn.intrinsic

    def test_pure_external_base_methods(self):
        prog = program_of({
            "lint/v.py": ("import ast\n"
                          "class V(ast.NodeVisitor):\n"
                          "    def visit_Call(self, node):\n"
                          "        self.generic_visit(node)\n"),
        })
        fn = prog.nodes["repro.lint.v.V.visit_Call"]
        assert fn.unknown_calls == []
        assert UNKNOWN not in fn.intrinsic

    def test_unknown_count_drops_on_this_repo(self):
        """The satellite's acceptance check, run on the real sources:
        hierarchy-aware resolution strictly shrinks the set of
        functions with UNKNOWN in their own (intrinsic) effects."""
        root = Path(__file__).resolve().parent.parent
        modules = []
        for f in sorted((root / "src").rglob("*.py")):
            if "__pycache__" in f.parts:
                continue
            rel = f.relative_to(root).as_posix()
            source = f.read_text(encoding="utf-8")
            pkg = tuple(f.relative_to(root / "src" / "repro").parts)
            modules.append((rel, source, ast.parse(source), pkg))
        flat = build_program(modules, class_hierarchy=False)
        hier = build_program(modules, class_hierarchy=True)

        def unknowns(prog):
            return sum(1 for fn in prog.nodes.values()
                       if UNKNOWN in fn.intrinsic)

        assert unknowns(hier) < unknowns(flat)


# -------------------------------------------------------- EM002 widen


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
