"""The shared AST pass behind every ``emlint`` rule.

One :class:`ast.NodeVisitor` walk per file collects the facts the
rules need — imports (with relative-import resolution), call sites,
the lexical ``with``-statement stack, phase-name literals, and the
module-level ``PHASES`` declaration — and hands them to the
predicates in :mod:`repro.lint.rules`, emitting :class:`Violation`
records.  Pragma comments (``# emlint: disable=EM001`` or
``disable=all`` on the offending line) suppress individual findings;
they are the one suppression mechanism.

The checker is deliberately stdlib-only and side-effect free: it
never imports the code it inspects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint import rules
from repro.lint.registry import RULES

_PRAGMA_RE = re.compile(r"#\s*emlint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule finding, addressable by (path, code, scope)."""

    code: str
    path: str
    line: int
    col: int
    message: str
    scope: str

    def as_dict(self) -> dict[str, object]:
        return {"code": self.code, "path": self.path, "line": self.line,
                "col": self.col, "scope": self.scope,
                "message": self.message,
                "rule": RULES[self.code].name}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"[{RULES[self.code].name}] {self.message}")


@dataclass
class LintResult:
    """Everything one lint run found, pre- and post-suppression."""

    violations: list[Violation] = field(default_factory=list)
    suppressed_by_pragma: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _package_parts(path: str) -> tuple[str, ...] | None:
    """The path components under the ``repro`` package, or ``None``.

    ``src/repro/core/acyclic.py`` → ``("core", "acyclic.py")``; files
    not under a ``repro`` directory return ``None`` and are checked
    with no layer scoping.
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1:]
    return None


def _layer(pkg_parts: tuple[str, ...] | None) -> str:
    """Top-level directory under ``repro/`` ("" for repro/*.py)."""
    if pkg_parts is None or len(pkg_parts) < 2:
        return ""
    return pkg_parts[0]


def _pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map line number → codes disabled on that line."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            codes = frozenset(
                c.strip().upper() for c in m.group(1).split(",")
                if c.strip())
            out[lineno] = codes
    return out


class _Checker(ast.NodeVisitor):
    """One walk over a module, recording violations as it goes."""

    def __init__(self, path: str, module_package: str,
                 layer: str, pkg_relfile: str) -> None:
        self.path = path
        self.module_package = module_package
        self.layer = layer
        self.pkg_relfile = pkg_relfile
        self.violations: list[Violation] = []
        self._scope: list[str] = []
        #: Depth of enclosing ``with device.memory.hold(...)`` blocks.
        self._hold_depth = 0
        self._phase_literals: list[tuple[str, int, int]] = []
        self._declared_phases: tuple[str, ...] | None = None
        self._phases_decl_loc: tuple[int, int] = (0, 0)

    # -- bookkeeping --------------------------------------------------

    @property
    def scope(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            code=code, path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message, scope=self.scope))

    def _add_finding(self, finding: rules.Finding | None,
                     node: ast.AST) -> None:
        if finding is not None:
            self._add(finding[0], node, finding[1])

    # -- scopes -------------------------------------------------------

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    # -- EM001 / EM003 / EM004: imports -------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = self._absolute_module(node)
        if module is not None:
            self._check_import(module, node)
        self.generic_visit(node)

    def _absolute_module(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        base = self.module_package.split(".") if self.module_package else []
        up = node.level - 1
        if up > len(base):
            return node.module
        parts = base[:len(base) - up] if up else base
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else node.module

    def _check_import(self, module: str, node: ast.AST) -> None:
        self._add_finding(
            rules.em004_import(module, self.layer), node)
        self._add_finding(
            rules.em001_import(module, self.layer, self.pkg_relfile),
            node)
        self._add_finding(
            rules.em003_import(module, self.layer), node)

    # -- EM005: bare context-manager calls ----------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        self._add_finding(rules.em005_statement(node), node)
        self.generic_visit(node)

    # -- EM002: materialization of scans ------------------------------

    def visit_With(self, node: ast.With) -> None:
        holds = any(rules.is_hold(item.context_expr)
                    for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if holds:
            self._hold_depth += 1
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            if holds:
                self._hold_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        in_hold = bool(self._hold_depth)
        self._add_finding(
            rules.em002_call(node, self.layer, in_hold), node)
        self._add_finding(
            rules.em001_call(node, self.layer, self.pkg_relfile), node)
        # EM006: collect phase-name literals for the finish() pass.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "phase" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            self._phase_literals.append(
                (node.args[0].value, node.lineno, node.col_offset))
        self.generic_visit(node)

    def _comprehension(self, node: ast.ListComp | ast.SetComp
                       | ast.DictComp) -> None:
        self._add_finding(
            rules.em002_comprehension(node, self.layer,
                                      bool(self._hold_depth)), node)
        self.generic_visit(node)

    visit_ListComp = _comprehension
    visit_SetComp = _comprehension
    visit_DictComp = _comprehension

    # -- EM006: PHASES declaration ------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (not self._scope and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "PHASES"):
            self._record_phases(node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (not self._scope and isinstance(node.target, ast.Name)
                and node.target.id == "PHASES"
                and node.value is not None):
            self._record_phases(node.value, node)
        self.generic_visit(node)

    def _record_phases(self, value: ast.expr, node: ast.AST) -> None:
        names: list[str] = []
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if (isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)):
                    names.append(elt.value)
                else:
                    self._add("EM006", elt,
                              "PHASES entries must be string "
                              "literals so the checker can "
                              "cross-check them")
                    return
            self._declared_phases = tuple(names)
            self._phases_decl_loc = (getattr(node, "lineno", 0),
                                     getattr(node, "col_offset", 0))
        else:
            self._add("EM006", node,
                      "PHASES must be a literal tuple/list of "
                      "phase-name strings")

    def finish(self) -> None:
        """Cross-check phase literals against the PHASES declaration."""
        for code, message, line, col in rules.em006_cross_check(
                self.layer, self._declared_phases,
                self._phases_decl_loc, self._phase_literals):
            self.violations.append(Violation(
                code=code, path=self.path, line=line, col=col,
                message=message, scope="<module>"))


def _parse(source: str, path: str) -> ast.Module | Violation:
    """Parse a module, or return the EM000 violation."""
    try:
        return ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 0) or 0
        return Violation(code="EM000", path=path, line=line, col=0,
                         message=f"cannot parse: {exc.msg}"
                         if isinstance(exc, SyntaxError)
                         else f"cannot parse: {exc}",
                         scope="<module>")


def _check_tree(tree: ast.Module, path: str) -> list[Violation]:
    """The single pass over one parsed module."""
    pkg = _package_parts(path)
    layer = _layer(pkg)
    pkg_relfile = "/".join(pkg) if pkg else path
    mod_parts = ["repro"] + list(pkg[:-1]) if pkg is not None else []
    checker = _Checker(path=path, module_package=".".join(mod_parts),
                       layer=layer, pkg_relfile=pkg_relfile)
    checker.visit(tree)
    checker.finish()
    return checker.violations


def check_source(source: str, path: str) -> list[Violation]:
    """Lint one module's source; ``path`` scopes the rules by layer.

    Pragma suppression is not applied here — callers that need it use
    :func:`lint_paths` or apply :func:`_pragmas` themselves.
    """
    tree = _parse(source, path)
    if isinstance(tree, Violation):
        return [tree]
    return sorted(_check_tree(tree, path),
                  key=lambda v: (v.line, v.col, v.code))


def _iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts)
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str | Path], *,
               root: str | Path = ".") -> LintResult:
    """Lint every ``.py`` file under ``paths`` and aggregate results.

    ``root`` anchors the repo-relative paths used in reports.
    """
    rootp = Path(root)
    result = LintResult()
    per_file: dict[str, list[Violation]] = {}
    pragmas_by_file: dict[str, dict[int, frozenset[str]]] = {}
    for f in _iter_py_files([Path(p) for p in paths]):
        rel = _relpath(f, rootp)
        source = f.read_text(encoding="utf-8")
        result.files_checked += 1
        pragmas_by_file[rel] = _pragmas(source)
        tree = _parse(source, rel)
        per_file[rel] = ([tree] if isinstance(tree, Violation)
                         else _check_tree(tree, rel))
    for rel in sorted(per_file):
        pragmas = pragmas_by_file[rel]
        for v in sorted(per_file[rel],
                        key=lambda v: (v.line, v.col, v.code)):
            disabled = pragmas.get(v.line, frozenset())
            if v.code in disabled or "ALL" in disabled:
                result.suppressed_by_pragma.append(v)
            else:
                result.violations.append(v)
    return result
