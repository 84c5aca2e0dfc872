"""The load-bearing test: the real tree keeps the EM model's discipline.

Every number this reproduction reports is a count of charged block
transfers, so no byte may move outside the counted paths.  One AST pass
over each ``src/repro/**/*.py``, parsed once, checks rules EM001–EM006
and finds the free scopes; each is scoped by a table below, and a
finding names its file, line and rule.  docs/model.md, "Model
discipline", gives the reason for each rule.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE_SRC = Path(__file__).resolve().parent / "lint_fixtures" / "src"

# ------------------------------------------------------------ the tables

#: EM001: no raw OS I/O (these, or builtin ``open``) outside em/, which
#: simulates the disk, and data/io.py, the CSV bridge.
RAW_IO_MODULES = {"shutil", "pathlib", "io"}
RAW_IO_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}
OS_IO = {"read", "write", "open"}
RAW_IO_OK = ("repro/em/", "repro/data/io.py")

#: The host-side report writers allowed raw I/O, by function, with the
#: number of raw calls each makes.  They write or read trace exports,
#: baselines and the fitted constants, never an algorithm's data.
RAW_IO_SITES = {
    "repro/obs/tracer.py": {"Tracer.export_jsonl": 1},
    "repro/obs/export.py": {"write_chrome_trace": 1},
    "repro/obs/baseline.py": {"write_baseline": 1, "load_baseline": 1},
    "repro/analysis/predict.py": {"save_fitted": 1, "load_fitted": 1},
}

#: EM002: no EM scan materialized outside ``with ….memory.hold(n):`` in
#: the layers that consume scans.
EM002_LAYERS = {"core", "query", "analysis"}
MATERIALIZERS = {"list", "sorted", "set", "dict", "tuple", "frozenset"}
SCAN_ATTRS = {"scan", "reader"}

#: EM003: layer -> banned import prefixes.  The machine must not depend
#: on the algorithms; internal/ holds uncharged in-memory baselines;
#: observation stays passive; the host modules read and write real
#: files, so no counted layer may reach them.
HOST_MODULES = ("repro.data.io", "repro.cli", "repro.server",
                "repro.obs.export", "repro.obs.baseline")
LAYERING = {
    "em": ("repro.core", "repro.query") + HOST_MODULES,
    "core": ("repro.internal",) + HOST_MODULES,
    "obs": ("repro.core",),
}

#: EM004: counted paths and the layers they import stay deterministic,
#: or the pinned I/O counts mean nothing.
EM004_LAYERS = {"core", "em", "query", "data"}
NONDETERMINISTIC_MODULES = {"time", "random", "datetime"}

#: EM005: never a bare call to these: each returns a context manager
#: whose ``__exit__`` reconciles counter state.
CONTEXT_ATTRS = {"suspend", "span", "phase"}

#: Every ``….stats.suspend()`` call, by enclosing function; the checker
#: reports each as ``FREE``.  Inside one, the em/ layer lets rows move
#: uncharged; outside one it raises ``UnchargedAccess``.  A new free
#: scope is a claim that some access costs nothing in the model, so it
#: has to be added here.
FREE_SCOPES = {
    "repro/core/price.py": {"snapshot": 1},
    # Reads the source device and fills the copy's: one each.
    "repro/core/acyclic.py": {"clone_instance": 2},
    "repro/em/sort.py": {"_merge_once": 1},
    # Moves the rows in bulk, then charges every page a merge would.
    "repro/em/loaders.py": {"write_semijoin": 1},
    "repro/em/device.py": {"Device.file_from_tuples_free": 1},
    "repro/cli.py": {"cmd_run": 1},
}

#: EM006: the phase names ``core/`` attributes I/O to, by module.  They
#: join the per-phase report to the pinned baseline, so a typo would
#: split a phase silently.
PHASE_NAMES = {
    "repro/core/acyclic.py": {"semijoin"},
    "repro/core/lw.py": {"partition"},
    "repro/core/triangle.py": {"partition"},
}

# ----------------------------------------------------------- the checker


class Finding(NamedTuple):
    code: str
    path: str
    line: int
    scope: str
    message: str

    def __str__(self):
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _method_call(node, names):
    """Is ``node`` a call ``….name(...)`` with ``name`` in ``names``?"""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names)


def _raw_io(func):
    """The raw OS I/O call ``func`` names, or ``None``."""
    if isinstance(func, ast.Name):
        return "open()" if func.id == "open" else None
    if isinstance(func, ast.Attribute) and (
            func.attr in RAW_IO_METHODS or func.attr in OS_IO
            and isinstance(func.value, ast.Name) and func.value.id == "os"):
        return f".{func.attr}()"
    return None


def _phase_literals(tree):
    """``(name, call)`` of every ``.phase("…")`` call with a literal."""
    return [(node.args[0].value, node) for node in ast.walk(tree)
            if _method_call(node, {"phase"}) and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)]


class _Checker(ast.NodeVisitor):
    """One walk over a module, with its scope and ``hold`` depth."""

    def __init__(self, path):
        self.path = path
        parts = path.split("/")  # "repro/<layer>/.../<file>.py"
        self.layer = parts[1] if len(parts) > 2 else ""
        self.package = parts[:-1]
        self.raw_io_ok = path.startswith(RAW_IO_OK)
        self.scope = []
        self.holds = 0
        self.findings = []

    def add(self, code, node, message):
        self.findings.append(Finding(code, self.path, node.lineno,
                                     ".".join(self.scope) or "<module>",
                                     message))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _import(self, module, node):
        top = module.split(".")[0]
        if top in RAW_IO_MODULES and not self.raw_io_ok:
            self.add("EM001", node, f"import of {top!r} is raw OS I/O")
        for banned in LAYERING.get(self.layer, ()):
            if module == banned or module.startswith(banned + "."):
                self.add("EM003", node, f"{self.layer}/ imports {module!r}")
        if self.layer in EM004_LAYERS and top in NONDETERMINISTIC_MODULES:
            self.add("EM004", node, f"import of {top!r} in counted "
                     f"path {self.layer}/")

    def visit_Import(self, node):
        for alias in node.names:
            self._import(alias.name, node)

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if node.level:  # relative: resolve against this package
            base = self.package[:len(self.package) - node.level + 1]
            module = ".".join(base + ([module] if module else []))
        self._import(module, node)

    def visit_Expr(self, node):
        if _method_call(node.value, CONTEXT_ATTRS):
            self.add("EM005", node, f"bare .{node.value.func.attr}() "
                     "discards its context manager; use a with statement")
        self.generic_visit(node)

    def visit_With(self, node):
        held = any(_method_call(i.context_expr, {"hold"}) for i in node.items)
        for item in node.items:
            self.visit(item)
        self.holds += held
        for stmt in node.body:
            self.visit(stmt)
        self.holds -= held

    def _materializes(self, node, what):
        if self.layer in EM002_LAYERS and not self.holds:
            self.add("EM002", node, f"{what} materializes an EM scan "
                     "outside `with device.memory.hold(n):`")

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in MATERIALIZERS and any(
                _method_call(arg, SCAN_ATTRS)
                or (isinstance(arg, ast.GeneratorExp) and any(
                    _method_call(g.iter, SCAN_ATTRS) for g in arg.generators))
                for arg in node.args):
            self._materializes(node, f"{func.id}()")
        if (_method_call(node, {"suspend"})
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "stats"):
            self.add("FREE", node, "stats.suspend() opens a free scope")
        raw = not self.raw_io_ok and _raw_io(func)
        if raw:
            self.add("EM001", node, f"{raw} is raw OS I/O outside em/ "
                     "and data/io.py")
        self.generic_visit(node)

    def _comprehension(self, node):
        if any(_method_call(g.iter, SCAN_ATTRS) for g in node.generators):
            self._materializes(node, type(node).__name__)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension


def check(tree, path, phase_names=PHASE_NAMES):
    """Every finding in one parsed module at ``path`` (``repro/...``)."""
    checker = _Checker(path)
    checker.visit(tree)
    if checker.layer == "core":
        for name, node in _phase_literals(tree):
            if name not in phase_names.get(path, ()):
                checker.add("EM006", node,
                            f"phase {name!r} is not pinned in PHASE_NAMES")
    return sorted(checker.findings, key=lambda f: (f.line, f.code))


def unallowed(findings, allowed):
    """The findings not covered by ``{code: {path: {scope: count}}}``."""
    budget = Counter({(code, path, scope): n
                      for code, paths in allowed.items()
                      for path, scopes in paths.items()
                      for scope, n in scopes.items()})
    out = []
    for f in findings:
        if budget[f.code, f.path, f.scope] > 0:
            budget[f.code, f.path, f.scope] -= 1
        else:
            out.append(f)
    return out


def sites(findings, code):
    """``{path: {scope: count}}`` of the findings with ``code``."""
    found = {}
    for f in findings:
        if f.code == code:
            scopes = found.setdefault(f.path, Counter())
            scopes[f.scope] += 1
    return found


@pytest.fixture(scope="module")
def src_trees():
    """``{"repro/...py": ast.Module}``: the tree, parsed once."""
    return {path.relative_to(SRC).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted((SRC / "repro").rglob("*.py"))}


@pytest.fixture(scope="module")
def src_findings(src_trees):
    """Every finding in the tree, before the allowlist."""
    return [f for path, tree in src_trees.items() for f in check(tree, path)]


# ------------------------------------------------------ the whole tree


def test_src_tree_is_clean(src_trees, src_findings):
    findings = unallowed(src_findings, {"EM001": RAW_IO_SITES,
                                        "FREE": FREE_SCOPES})
    assert not findings, "\n".join(f"src/{f}" for f in findings)
    assert len(src_trees) > 50


def test_raw_io_sites_are_exactly_the_pinned_ones(src_findings):
    assert sites(src_findings, "EM001") == RAW_IO_SITES


def test_free_scopes_are_exactly_the_declared_ones(src_findings):
    assert sites(src_findings, "FREE") == FREE_SCOPES


def test_phase_names_are_exactly_the_pinned_ones(src_trees):
    seen = {path: {name for name, _ in _phase_literals(tree)}
            for path, tree in src_trees.items()
            if path.startswith("repro/core/") and _phase_literals(tree)}
    assert seen == PHASE_NAMES


# ------------------------------------------------------- rule fixtures

#: code -> the fixture that triggers it exactly once.
BAD_FIXTURES = {
    "EM001": "repro/query/bad_em001.py",
    "EM002": "repro/core/bad_em002.py",
    "EM003": "repro/em/bad_em003.py",
    "EM004": "repro/core/bad_em004.py",
    "EM005": "repro/obs/bad_em005.py",
    "EM006": "repro/core/bad_em006.py",
}
FIXTURE_PHASE_NAMES = {"repro/core/clean_ok.py": {"load"}}


def check_fixture(path):
    tree = ast.parse((FIXTURE_SRC / path).read_text(encoding="utf-8"))
    return check(tree, path, FIXTURE_PHASE_NAMES)


@pytest.mark.parametrize("code", sorted(BAD_FIXTURES))
def test_each_bad_fixture_triggers_its_rule_exactly_once(code):
    findings = check_fixture(BAD_FIXTURES[code])
    assert [f.code for f in findings] == [code]
    assert str(findings[0]).startswith(f"{BAD_FIXTURES[code]}:")


def test_clean_fixture_has_no_findings():
    assert check_fixture("repro/core/clean_ok.py") == []


def test_allowlist_names_the_rule_and_the_scope():
    findings = check_fixture("repro/core/allowlist_ok.py")
    site = {"repro/core/allowlist_ok.py": {"slurp": 1}}
    assert [(f.code, f.scope) for f in findings] == [("EM002", "slurp")]
    assert unallowed(findings, {"EM002": site}) == []
    assert unallowed(findings, {"EM001": site}) == findings


def test_allowlist_is_rule_specific():
    findings = check(ast.parse("import time\n"), "repro/core/x.py")
    assert [f.code for f in findings] == ["EM004"]
    site = {"repro/core/x.py": {"<module>": 1}}
    assert unallowed(findings, {"EM001": site}) == findings
    assert unallowed(findings, {"EM004": site}) == []


def test_finding_carries_scope_and_renders():
    (finding,) = check_fixture(BAD_FIXTURES["EM002"])
    assert finding.scope == "slurp"
    assert str(finding).startswith("repro/core/bad_em002.py:5: EM002 ")


_SCAN = "def f(rel):\n    return list(rel.data.scan())\n"
_HELD = ("def f(rel, device):\n    with device.memory.hold(len(rel)):\n"
         "        return list(rel.data.scan())\n")
_GEN = "def f(rel):\n    return set(t for t in rel.data.reader())\n"
_COMP = "def f(rel):\n    return [t for t in rel.data.scan()]\n"
_PATHLIB = "import pathlib\np = pathlib.Path('x')\nq = p.read_text()\n"
_WITH = "def f(stats):\n    with stats.suspend():\n        pass\n"
_PHASE = "def f(d):\n    with d.phases.phase({!r}):\n        pass\n"
_CORE = "from repro.core import execute\n"

#: (case, source, path under ``repro/``, the codes it yields).
RULE_CASES = [
    ("em002-inside-hold", _HELD, "core/x.py", ""),
    ("em002-listcomp", _COMP, "core/x.py", "EM002"),
    ("em002-genexp-reader", _GEN, "core/x.py", "EM002"),
    ("em002-workloads", _SCAN, "workloads/x.py", ""),
    ("em001-em", "open('x')\n", "em/x.py", ""),
    ("em001-data-io", "open('x')\n", "data/io.py", ""),
    ("em001-core", "open('x')\n", "core/x.py", "EM001"),
    ("em001-os", "import os\nos.write(1, b'x')\n", "core/x.py", "EM001"),
    ("em001-pathlib", _PATHLIB, "core/x.py", "EM001 EM001"),
    ("em003-relative", "from ..core import execute\n", "em/x.py", "EM003"),
    ("em003-host", "from ..data.io import load_csv\n", "core/x.py", "EM003"),
    ("em003-same-package", "from . import sort\n", "em/x.py", ""),
    ("em003-analysis", _CORE, "analysis/x.py", ""),
    ("em003-obs", _CORE, "obs/x.py", "EM003"),
    ("em004-obs", "import time\n", "obs/x.py", ""),
    ("em004-em", "import time\n", "em/x.py", "EM004"),
    ("em004-query", "from random import Random\n", "query/x.py", "EM004"),
    ("em004-data", "from random import Random\n", "data/x.py", "EM004"),
    ("em005-with", _WITH, "obs/x.py", ""),
    ("em005-returned", "def f(d):\n    return d.span('x')\n", "em/x.py", ""),
    ("em005-bare", "def f(d):\n    d.suspend()\n", "em/x.py", "EM005"),
    ("free-scope", "def f(d):\n    d.stats.suspend()\n", "em/x.py",
     "EM005 FREE"),
    ("em006-pinned", _PHASE.format("semijoin"), "core/acyclic.py", ""),
    ("em006-typo", _PHASE.format("semijion"), "core/acyclic.py", "EM006"),
    ("em006-outside-core", _PHASE.format("sort"), "data/relation.py", ""),
]


@pytest.mark.parametrize("source, path, codes", [c[1:] for c in RULE_CASES],
                         ids=[c[0] for c in RULE_CASES])
def test_rule_semantics(source, path, codes):
    found = check(ast.parse(source), f"repro/{path}")
    assert [f.code for f in found] == codes.split()


#: Every layer of the tree, so a new one lands on one side of EM002.
LAYERS = sorted(p.name for p in (SRC / "repro").iterdir()
                if p.is_dir() and not p.name.startswith("_"))


@pytest.mark.parametrize("layer", LAYERS)
def test_em002_polices_only_the_scan_consuming_layers(layer):
    found = check(ast.parse(_SCAN), f"repro/{layer}/x.py")
    policed = layer in ("analysis", "core", "query")  # pins EM002_LAYERS
    assert [f.code for f in found] == (["EM002"] if policed else [])


# ------------------------------------------------------- free writes

#: Every use in the tree of the calls that write rows to disk without
#: charging the writes, by module.  They materialize inputs, which the
#: model assumes on disk; an intermediate an algorithm writes goes
#: through a charged writer (``Relation.rewrite``), so a new user
#: outside ``data/`` has to be added here.
FREE_WRITE_CALLS = ("from_tuples", "_from_fresh", "file_from_tuples_free")
FREE_WRITERS = {
    "repro/data/instance.py": {"_from_fresh": 1},
    "repro/data/io.py": {"_from_fresh": 1},
    "repro/data/relation.py": {"_from_fresh": 1, "file_from_tuples_free": 1},
}


def test_free_writes_stay_in_the_data_layer(src_trees):
    seen = {path: uses for path, tree in src_trees.items()
            if (uses := Counter(node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)
                                and node.attr in FREE_WRITE_CALLS))}
    assert seen == FREE_WRITERS
