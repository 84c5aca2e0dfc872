"""*emcost* — static symbolic I/O-cost certification (EM017–EM021).

The third pass.  Where emflow asks *which* effects a function has,
emcost asks *how much charged I/O* a call chain can perform, as a
symbolic bound in the paper's own vocabulary
(:mod:`repro.lint.symbolic`): every ``Device.charge_read``/
``charge_write`` site costs one block transfer, costs flow up call
chains (reverse-topologically over SCCs), and loop nests multiply
their bodies by a bound.  The result is a per-function symbolic
upper bound that is checked against ``# em-cost:`` declarations on
the algorithm entry points — the static half of the Table-1 contract
whose dynamic half is the fitted slope gate.

Annotation grammar (all comments, attached to the construct's first
line or to a comment-only line directly above it):

``# em-cost: [amortized] <expr> -- justification``
    Declares a function's per-call I/O bound.  Plain declarations are
    *checked*: the derived bound must equal the declared one up to
    ``Õ`` (EM018 if the body exceeds it, EM020 if the declaration is
    stale).  ``amortized`` declarations are *trusted* summaries for
    functions whose per-call cost is data-dependent (cursor
    primitives, recursive algorithms); the body derivation is skipped
    and the justification must carry the amortization argument.

``# em-loop-bound: <expr> [-- reason]``
    Bounds a ``for``/``while`` iteration count the analysis cannot
    see.  ``em-loop-bound: 1`` with a reason is the amortization
    idiom: the body's costs are written in whole-input units.

``# em-yields: <expr>``
    On a generator: how many items one full iteration produces.
    Loops over a call whose every resolved target declares yields use
    that as the trip count (the call's own cost is charged once).

``# em-charges: <expr> -- reason``
    Overrides every call contribution on one line — the escape hatch
    for context-dependent call costs (e.g. a merge join known to
    never hit the heavy-heavy fallback at this site).

Soundness posture: like emflow, the pass is conservative where it can
afford to be (unknown loops default to an ``N`` trip count; unknown
calls cost zero only when they cannot reach a charge site, which
EM021 enforces globally) and precise where union resolution would
drown the tree in phantom costs — calls to ambiguous container-like
method names (``append``, ``next``, …) only contribute when the
receiver's type is locally evident (``w = f.writer()``; ``with
seg.reader() as r``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, Union

from repro.lint.callgraph import (Program, _canonical, linted_mro,
                                  module_name_for, tarjan_scc)
from repro.lint.symbolic import (ONE, TOP, ZERO, Cost, CostSyntaxError,
                                 cost_of, parse_cost)

COSTS_SCHEMA_VERSION = 1

#: Layers where an unbounded data-dependent loop over costly work is
#: a finding (EM019); host layers pay no annotation tax.
POLICED_LAYERS = frozenset({"core", "em"})

#: Module prefixes whose public module-level functions are *roots*:
#: algorithm entry points that must declare a cost (EM017).
ROOT_MODULE_PREFIXES = ("repro.core.",)
ROOT_MODULES = frozenset({"repro.em.sort", "repro.em.loaders"})

#: Layers whose costed functions appear in the cost table
#: (``LintResult.costs``); host layers would only add churn.
TABLE_LAYERS = frozenset({"core", "em", "data", "server"})

#: Method names so common on builtin containers that union
#: resolution would attribute phantom I/O to every list in the tree;
#: they only resolve through a locally-typed receiver.
AMBIGUOUS_METHODS = frozenset({
    "append", "extend", "add", "close", "next", "peek", "emit",
    "update", "pop", "clear", "sort", "remove", "insert", "get",
    "items", "keys", "values", "flush", "put", "join", "split",
    "strip", "write", "read", "count", "index", "copy", "open",
    "discard", "send", "release", "acquire", "wait", "notify",
    "notify_all", "start", "run", "stop", "submit", "result",
    "setdefault", "popitem",
})

#: The two charged Device primitives; a call to either (directly or
#: through a local alias) is one block transfer.
CHARGE_METHODS = frozenset({"charge_read", "charge_write"})

#: Local type inference: the return class of well-known factory
#: methods, so ambiguous method calls on their results resolve
#: precisely regardless of the receiver expression's type.
RETURN_TYPES: Mapping[str, str] = {
    "writer": "repro.em.file.Writer",
    "reader": "repro.em.file.SequentialReader",
    "segment": "repro.em.file.FileSegment",
    "whole": "repro.em.file.FileSegment",
    "subsegment": "repro.em.file.FileSegment",
    "new_file": "repro.em.file.EMFile",
    "file_from_tuples": "repro.em.file.EMFile",
    "file_from_tuples_free": "repro.em.file.EMFile",
    "sort_by": "repro.data.relation.Relation",
    "restrict": "repro.data.relation.Relation",
    "rewrite": "repro.data.relation.Relation",
    "from_tuples": "repro.data.relation.Relation",
}

PLACEHOLDER_JUSTIFICATION = "TODO: justify"

_COST_RE = re.compile(r"#\s*em-cost:\s*(.+?)\s*$")
_LOOP_RE = re.compile(r"#\s*em-loop-bound:\s*(.+?)\s*$")
_YIELDS_RE = re.compile(r"#\s*em-yields:\s*(.+?)\s*$")
_CHARGES_RE = re.compile(r"#\s*em-charges:\s*(.+?)\s*$")


@dataclass(frozen=True)
class CostFinding:
    """One emcost finding, shaped like the other passes' findings."""

    code: str
    path: str
    line: int
    message: str
    scope: str


# --------------------------------------------------- annotations


@dataclass
class _Ann:
    kind: str  # "cost" | "loop" | "yields" | "charges"
    expr: str
    justification: str
    amortized: bool
    line: int
    consumed: bool = False


def _split_payload(payload: str) -> tuple[str, str]:
    expr, sep, just = payload.partition("--")
    return expr.strip(), just.strip() if sep else ""


def _comments(source: str) -> list[tuple[int, str, bool]]:
    """``(line, text, standalone)`` for each real comment.

    Tokenizing (rather than regex-scanning raw lines) is what keeps
    annotation syntax quoted in docstrings from being parsed as live
    annotations.  A file that fails to tokenize has no comments here;
    it already fails the lint parse elsewhere."""
    out: list[tuple[int, str, bool]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                row, col = tok.start
                standalone = not tok.line[:col].strip()
                out.append((row, tok.string, standalone))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return out


class _ModuleAnns:
    """All emcost annotations in one module, by line, with orphan
    tracking (every annotation must attach to a construct).

    Comments are extracted with :mod:`tokenize`, not a line regex,
    so grammar *mentions* inside docstrings (this module's own, the
    rule registry's rationales) never register as annotations."""

    def __init__(self, source: str) -> None:
        self.by_line: dict[int, _Ann] = {}
        self.comment_only: set[int] = set()
        for lineno, text, standalone in _comments(source):
            if standalone:
                self.comment_only.add(lineno)
            for kind, rx in (("cost", _COST_RE), ("loop", _LOOP_RE),
                             ("yields", _YIELDS_RE),
                             ("charges", _CHARGES_RE)):
                m = rx.search(text)
                if m is None:
                    continue
                payload = m.group(1)
                amortized = False
                if kind == "cost" and payload.startswith("amortized"):
                    amortized = True
                    payload = payload[len("amortized"):].strip()
                expr, just = _split_payload(payload)
                self.by_line[lineno] = _Ann(
                    kind=kind, expr=expr, justification=just,
                    amortized=amortized, line=lineno)
                break

    def _candidates(self, line: int) -> Iterable[int]:
        """The construct's own line, then the run of comment-only
        lines directly above it (wrapped justifications span lines)."""
        yield line
        cand = line - 1
        while cand in self.comment_only:
            yield cand
            cand -= 1

    def attach(self, line: int, kind: str) -> _Ann | None:
        """The annotation governing a construct at ``line``: same
        line, or within the comment block directly above."""
        for cand in self._candidates(line):
            ann = self.by_line.get(cand)
            if ann is not None and ann.kind == kind and not ann.consumed:
                ann.consumed = True
                return ann
        return None

    def peek(self, line: int, kind: str) -> _Ann | None:
        for cand in self._candidates(line):
            ann = self.by_line.get(cand)
            if ann is not None and ann.kind == kind:
                return ann
        return None

    def orphans(self) -> list[_Ann]:
        return [a for a in self.by_line.values() if not a.consumed]


# --------------------------------------------------- body structure


@dataclass
class _CallSite:
    line: int
    targets: tuple[str, ...]


@dataclass
class _ChargeSite:
    line: int


@dataclass
class _FixedCost:
    line: int
    cost: Cost


@dataclass
class _Loop:
    line: int
    bound: Cost | None  # None = unannotated and unrecognized
    body: list["_Item"] = field(default_factory=list)


_Item = Union[_CallSite, _ChargeSite, _FixedCost, _Loop]


@dataclass
class _Func:
    qualname: str
    name: str
    cls: str | None
    module: str
    path: str
    line: int
    layer: str
    scope: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    anns: _ModuleAnns
    decl: _Ann | None = None
    decl_cost: Cost | None = None
    yields: Cost | None = None
    body: list[_Item] = field(default_factory=list)
    #: A call in this function's body names a ``repro.*`` target that
    #: is not part of the linted program (partial lint), so the
    #: derived cost is an under-approximation: EM018/EM019/EM020
    #: verification findings are suppressed for this function and its
    #: (undeclared) callers.  Whole-tree lints never set this.
    incomplete: bool = False

    @property
    def declared(self) -> bool:
        return self.decl is not None and self.decl_cost is not None

    @property
    def amortized(self) -> bool:
        return self.decl is not None and self.decl.amortized


def _iter_defs(tree: ast.Module) -> Iterable[
        tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    yield stmt.name, sub


# --------------------------------------------------- collection


class _Collector:
    """Builds one function's cost structure (items + loop tree)."""

    def __init__(self, program: Program, fn: _Func,
                 yields_by_qn: Mapping[str, Cost],
                 findings: list[CostFinding]) -> None:
        self.program = program
        self.fn = fn
        self.yields_by_qn = yields_by_qn
        self.findings = findings
        self.env: dict[str, str] = {}
        self.charge_aliases: set[str] = set()
        self.overridden_lines: set[int] = set()

    # -- entry --------------------------------------------------------

    def collect(self) -> None:
        self.fn.body = self._block(self.fn.node.body)

    # -- helpers ------------------------------------------------------

    def _finding(self, code: str, line: int, message: str) -> None:
        self.findings.append(CostFinding(
            code=code, path=self.fn.path, line=line,
            message=message, scope=self.fn.scope))

    def _parse(self, ann: _Ann, what: str) -> Cost:
        try:
            return parse_cost(ann.expr)
        except CostSyntaxError as exc:
            self._finding("EM020", ann.line,
                          f"bad {what} expression: {exc}")
            return TOP

    # -- statement walk -----------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt]) -> list[_Item]:
        items: list[_Item] = []
        for stmt in stmts:
            items.extend(self._stmt(stmt))
        return items

    def _stmt(self, stmt: ast.stmt) -> list[_Item]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt)
        if isinstance(stmt, ast.While):
            return self._while(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs fold into the enclosing function (the call
            # graph does the same); counted once at the def site.
            return self._block(stmt.body)
        if isinstance(stmt, ast.ClassDef):
            return self._block(stmt.body)
        if isinstance(stmt, ast.If):
            items = self._expr(stmt.test)
            items += self._block(stmt.body)
            items += self._block(stmt.orelse)
            return items
        if isinstance(stmt, ast.With) or isinstance(stmt,
                                                    ast.AsyncWith):
            items = []
            for item in stmt.items:
                items.extend(self._expr(item.context_expr))
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(item.optional_vars.id,
                               item.context_expr)
            items += self._block(stmt.body)
            return items
        if isinstance(stmt, ast.Try):
            items = self._block(stmt.body)
            for handler in stmt.handlers:
                items += self._block(handler.body)
            items += self._block(stmt.orelse)
            items += self._block(stmt.finalbody)
            return items
        if isinstance(stmt, ast.Assign):
            items = self._expr(stmt.value)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0],
                                                     ast.Name):
                self._bind(stmt.targets[0].id, stmt.value)
            return items
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return []
            items = self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id, stmt.value)
            return items
        if isinstance(stmt, ast.AugAssign):
            return self._expr(stmt.value)
        if isinstance(stmt, (ast.Return, ast.Expr)):
            return self._expr(stmt.value) if stmt.value else []
        if isinstance(stmt, ast.Raise):
            items = self._expr(stmt.exc) if stmt.exc else []
            if stmt.cause:
                items += self._expr(stmt.cause)
            return items
        if isinstance(stmt, ast.Assert):
            items = self._expr(stmt.test)
            if stmt.msg:
                items += self._expr(stmt.msg)
            return items
        if isinstance(stmt, ast.Match):
            items = self._expr(stmt.subject)
            for case in stmt.cases:
                items += self._block(case.body)
            return items
        return []

    # -- loops --------------------------------------------------------

    def _for(self, stmt: ast.For | ast.AsyncFor) -> list[_Item]:
        items = self._expr(stmt.iter)
        ann = self.fn.anns.attach(stmt.lineno, "loop")
        if ann is not None:
            bound: Cost | None = self._parse(ann, "em-loop-bound")
        else:
            bound = self._iter_bound(stmt.iter)
        loop = _Loop(line=stmt.lineno, bound=bound)
        loop.body = self._block(stmt.body)
        items.append(loop)
        items += self._block(stmt.orelse)
        return items

    def _while(self, stmt: ast.While) -> list[_Item]:
        items = self._expr(stmt.test)
        ann = self.fn.anns.attach(stmt.lineno, "loop")
        bound = (self._parse(ann, "em-loop-bound")
                 if ann is not None else None)
        loop = _Loop(line=stmt.lineno, bound=bound)
        loop.body = self._block(stmt.body)
        # The test runs once per iteration: fold it into the body.
        loop.body += self._expr(stmt.test)
        items.append(loop)
        items += self._block(stmt.orelse)
        return items

    def _iter_bound(self, it: ast.expr) -> Cost | None:
        """Recognize trip counts the analysis can see on its own."""
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("enumerate", "sorted", "reversed",
                                   "list", "tuple", "set")
                and it.args):
            return self._iter_bound(it.args[0])
        if isinstance(it, (ast.Constant, ast.Tuple, ast.List, ast.Set,
                           ast.Dict)):
            return ONE
        if isinstance(it, ast.Call):
            targets = self._call_targets(it)
            if targets:
                bounds = [self.yields_by_qn.get(t) for t in targets]
                if all(b is not None for b in bounds):
                    out = ZERO
                    for b in bounds:
                        assert b is not None
                        out = out.add(b)
                    return out
        return None

    # -- expressions --------------------------------------------------

    def _expr(self, e: ast.expr) -> list[_Item]:
        items: list[_Item] = []
        self._walk_expr(e, items)
        return items

    def _walk_expr(self, e: ast.expr, items: list[_Item]) -> None:
        if isinstance(e, ast.Call):
            self._call(e, items)
            return
        if isinstance(e, (ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
            self._comprehension(e, items)
            return
        if isinstance(e, ast.Lambda):
            self._walk_expr(e.body, items)
            return
        if isinstance(e, ast.NamedExpr):
            self._walk_expr(e.value, items)
            if isinstance(e.target, ast.Name):
                self._bind(e.target.id, e.value)
            return
        for child in ast.iter_child_nodes(e):
            if isinstance(child, ast.expr):
                self._walk_expr(child, items)

    def _comprehension(self, e: ast.ListComp | ast.SetComp
                       | ast.DictComp | ast.GeneratorExp,
                       items: list[_Item]) -> None:
        inner: list[_Item] = []
        if isinstance(e, ast.DictComp):
            self._walk_expr(e.key, inner)
            self._walk_expr(e.value, inner)
        else:
            self._walk_expr(e.elt, inner)
        ann = self.fn.anns.attach(e.lineno, "loop")
        for i, gen in enumerate(reversed(e.generators)):
            outermost = i == len(e.generators) - 1
            items_gen = self._expr(gen.iter)
            if outermost and ann is not None:
                bound: Cost | None = self._parse(ann, "em-loop-bound")
            else:
                bound = self._iter_bound(gen.iter)
            loop = _Loop(line=e.lineno, bound=bound, body=inner)
            for cond in gen.ifs:
                loop.body += self._expr(cond)
            inner = items_gen + [loop]
        items.extend(inner)

    # -- calls --------------------------------------------------------

    def _call(self, call: ast.Call, items: list[_Item]) -> None:
        override = self.fn.anns.peek(call.lineno, "charges")
        if override is not None:
            override.consumed = True
            if call.lineno not in self.overridden_lines:
                self.overridden_lines.add(call.lineno)
                items.append(_FixedCost(
                    line=call.lineno,
                    cost=self._parse(override, "em-charges")))
            self._visit_args(call, items)
            return
        func = call.func
        if isinstance(func, ast.Attribute) and \
                func.attr in CHARGE_METHODS:
            items.append(_ChargeSite(line=call.lineno))
            self._visit_args(call, items)
            return
        if isinstance(func, ast.Name) and \
                func.id in self.charge_aliases:
            items.append(_ChargeSite(line=call.lineno))
            self._visit_args(call, items)
            return
        targets = self._call_targets(call)
        if targets:
            items.append(_CallSite(line=call.lineno, targets=targets))
        if isinstance(func, ast.Attribute):
            self._walk_expr(func.value, items)
        self._visit_args(call, items)

    def _visit_args(self, call: ast.Call, items: list[_Item]) -> None:
        for arg in call.args:
            self._walk_expr(arg, items)
        for kw in call.keywords:
            self._walk_expr(kw.value, items)

    def _call_targets(self, call: ast.Call) -> tuple[str, ...]:
        prog = self.program
        func = call.func
        if isinstance(func, ast.Name):
            qn = prog.module_funcs.get((self.fn.module, func.id))
            if qn is not None:
                return (qn,)
            target = prog.imports.get(self.fn.module, {}).get(func.id)
            if target is not None:
                return self._from_dotted(target)
            return ()
        if isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            # self.m() / cls.m(): the enclosing class's MRO.
            if isinstance(value, ast.Name) and value.id in ("self",
                                                           "cls"):
                if self.fn.cls is not None:
                    qn = self._method_on(
                        f"{self.fn.module}.{self.fn.cls}", attr)
                    return (qn,) if qn else ()
                return ()
            rtype = self._type_of(value)
            if rtype is not None:
                qn = self._method_on(rtype, attr)
                return (qn,) if qn else ()
            # module-alias attribute: ``sortmod.external_sort(...)``
            if isinstance(value, ast.Name):
                target = prog.imports.get(self.fn.module,
                                          {}).get(value.id)
                if target is not None and target in prog.modules:
                    return self._from_dotted(f"{target}.{attr}")
                if (target is not None
                        and target.startswith("repro.")):
                    # Aliased repro module not in the linted set.
                    self.fn.incomplete = True
                    return ()
            if attr in AMBIGUOUS_METHODS:
                return ()
            return tuple(prog.methods.get(attr, ()))
        return ()

    def _from_dotted(self, target: str) -> tuple[str, ...]:
        prog = self.program
        resolved = _canonical(prog, target)
        if resolved in prog.nodes:
            return (resolved,)
        if resolved in prog.classes:
            if "__init__" in prog.classes[resolved]:
                return (f"{resolved}.__init__",)
            return ()
        if resolved.startswith("repro."):
            # A repro-internal target outside the linted program:
            # partial lint.  The derived cost would silently drop this
            # call, so verification findings must not fire here.
            self.fn.incomplete = True
        return ()

    def _method_on(self, clskey: str, attr: str) -> str | None:
        prog = self.program
        if attr in prog.classes.get(clskey, ()):
            return f"{clskey}.{attr}"
        for base in linted_mro(prog, clskey):
            if attr in prog.classes.get(base, ()):
                return f"{base}.{attr}"
        return None

    # -- local type inference -----------------------------------------

    def _bind(self, name: str, value: ast.expr) -> None:
        if self._is_charge_ref(value):
            self.charge_aliases.add(name)
            self.env.pop(name, None)
            return
        t = self._type_of(value)
        if t is not None:
            self.env[name] = t
        else:
            self.env.pop(name, None)
        self.charge_aliases.discard(name)

    def _is_charge_ref(self, e: ast.expr) -> bool:
        return (isinstance(e, ast.Attribute)
                and e.attr in CHARGE_METHODS)

    def _type_of(self, e: ast.expr) -> str | None:
        if isinstance(e, ast.Name):
            return self.env.get(e.id)
        if isinstance(e, ast.Call):
            f = e.func
            if isinstance(f, ast.Attribute) and f.attr in RETURN_TYPES:
                key = RETURN_TYPES[f.attr]
                if key in self.program.classes:
                    return key
                # The factory's class is outside the linted program:
                # method calls on the value cannot be costed.
                self.fn.incomplete = True
                return None
            if isinstance(f, ast.Name):
                qn = self.program.imports.get(self.fn.module,
                                              {}).get(f.id)
                if qn is not None:
                    resolved = _canonical(self.program, qn)
                    if resolved in self.program.classes:
                        return resolved
                local = f"{self.fn.module}.{f.id}"
                if local in self.program.classes:
                    return local
        return None


# --------------------------------------------------- propagation


class _Evaluator:
    """Reverse-topological cost propagation + rule evaluation."""

    def __init__(self, program: Program,
                 funcs: dict[str, _Func]) -> None:
        self.program = program
        self.funcs = funcs
        self.summaries: dict[str, Cost] = {}
        self.findings: list[CostFinding] = []

    def run(self) -> None:
        undeclared_edges = {
            qn: sorted({t for t in _call_targets_of(f.body)
                        if t in self.funcs
                        and not self.funcs[t].declared})
            for qn, f in self.funcs.items()}
        for scc in tarjan_scc(sorted(self.funcs), undeclared_edges):
            cyclic = len(scc) > 1 or any(
                qn in undeclared_edges.get(qn, ()) for qn in scc)
            # Incompleteness flows caller-ward along undeclared edges
            # (declared callees contribute their trusted declaration,
            # so their gaps stay their own).  Callee SCCs are already
            # settled when their callers' SCC is reached.
            for qn in scc:
                f = self.funcs[qn]
                if not f.incomplete and any(
                        self.funcs[t].incomplete
                        for t in undeclared_edges.get(qn, ())
                        if t in self.funcs):
                    f.incomplete = True
            if cyclic and any(self.funcs[qn].incomplete for qn in scc):
                for qn in scc:
                    self.funcs[qn].incomplete = True
            for qn in sorted(scc):
                self._evaluate(qn, flag_loops=not cyclic)
            if cyclic:
                members = sorted(
                    (qn for qn in scc
                     if not self.funcs[qn].declared
                     and not self.funcs[qn].incomplete
                     and not self.summaries[qn].is_zero),
                    key=lambda qn: (self.funcs[qn].path,
                                    self.funcs[qn].line))
                policed = [qn for qn in members
                           if self.funcs[qn].layer in POLICED_LAYERS]
                if policed:
                    f = self.funcs[policed[0]]
                    self._finding(
                        "EM019", f,
                        f"recursive cycle through {f.scope} performs "
                        f"charged I/O with no '# em-cost: amortized' "
                        f"declaration on any member; the derived "
                        f"bound ignores the recursion")

    def summary(self, qn: str) -> Cost:
        f = self.funcs.get(qn)
        if f is not None and f.declared:
            assert f.decl_cost is not None
            return f.decl_cost
        return self.summaries.get(qn, ZERO)

    def _finding(self, code: str, f: _Func, message: str,
                 line: int | None = None) -> None:
        self.findings.append(CostFinding(
            code=code, path=f.path, line=line or f.line,
            message=message, scope=f.scope))

    def _evaluate(self, qn: str, *, flag_loops: bool) -> None:
        f = self.funcs[qn]
        if f.amortized and f.decl_cost is not None:
            # Trusted summary: the declaration *is* the bound.
            self.summaries[qn] = f.decl_cost
            return
        derived = self._items_cost(f, f.body, flag_loops=flag_loops)
        self.summaries[qn] = derived
        if f.incomplete:
            # Partial lint: the derivation under-approximates, so
            # neither EM018 nor the stale-declaration check is sound.
            return
        if f.declared and not f.amortized:
            assert f.decl_cost is not None
            excess = derived.excess_over(f.decl_cost)
            if excess:
                terms = " + ".join(t.render() for t in excess)
                self._finding(
                    "EM018", f,
                    f"derived I/O cost {derived.render()} exceeds "
                    f"the declared bound {f.decl_cost.render()} "
                    f"(excess: {terms}); fix the rescan or justify "
                    f"a larger bound")
            elif not f.decl_cost.le(derived):
                self._finding(
                    "EM020", f,
                    f"declared bound {f.decl_cost.render()} is "
                    f"asymptotically larger than the derived cost "
                    f"{derived.render()}; tighten the declaration "
                    f"(or mark it amortized with a justification)")

    def _items_cost(self, f: _Func, items: Sequence[_Item], *,
                    flag_loops: bool) -> Cost:
        total = ZERO
        for it in items:
            if isinstance(it, _ChargeSite):
                total = total.add(ONE)
            elif isinstance(it, _FixedCost):
                total = total.add(it.cost)
            elif isinstance(it, _CallSite):
                for t in it.targets:
                    total = total.add(self.summary(t))
            else:
                inner = self._items_cost(f, it.body,
                                         flag_loops=flag_loops)
                if inner.is_zero:
                    continue
                bound = it.bound
                if bound is None:
                    if (flag_loops and not f.incomplete
                            and f.layer in POLICED_LAYERS):
                        self._finding(
                            "EM019", f,
                            f"data-dependent loop performs charged "
                            f"I/O ({inner.render()} per iteration) "
                            f"with no visible trip count; add an "
                            f"'# em-loop-bound: <expr>' annotation",
                            line=it.line)
                    bound = cost_of("N")
                total = total.add(bound.mul(inner))
        return total


def _call_targets_of(items: Sequence[_Item]) -> set[str]:
    out: set[str] = set()
    for it in items:
        if isinstance(it, _CallSite):
            out.update(it.targets)
        elif isinstance(it, _Loop):
            out |= _call_targets_of(it.body)
    return out


def _has_charge(items: Sequence[_Item]) -> bool:
    return any(isinstance(it, _ChargeSite)
               or (isinstance(it, _Loop) and _has_charge(it.body))
               for it in items)


def _is_root(f: _Func) -> bool:
    return (f.cls is None and not f.name.startswith("_")
            and (f.module.startswith(ROOT_MODULE_PREFIXES)
                 or f.module in ROOT_MODULES))


# --------------------------------------------------- driver


def evaluate_costs(
        program: Program,
        modules: Sequence[tuple[str, str, ast.AST,
                                tuple[str, ...] | None]],
) -> tuple[list[CostFinding], dict[str, Any]]:
    """Run the emcost pass: findings (EM017–EM021) + cost table."""
    findings: list[CostFinding] = []
    funcs: dict[str, _Func] = {}
    anns_by_module: list[tuple[str, _ModuleAnns]] = []

    # Pass A: discover functions, attach declarations and yields.
    for path, source, tree, pkg_parts in modules:
        if not isinstance(tree, ast.Module):
            continue
        anns = _ModuleAnns(source)
        anns_by_module.append((path, anns))
        module = module_name_for(path, pkg_parts)
        layer = (pkg_parts[0] if pkg_parts is not None
                 and len(pkg_parts) >= 2 else "")
        for clsname, node in _iter_defs(tree):
            scope = (f"{clsname}.{node.name}" if clsname
                     else node.name)
            qualname = f"{module}.{scope}"
            f = _Func(
                qualname=qualname, name=node.name, cls=clsname,
                module=module, path=path, line=node.lineno,
                layer=layer, scope=scope, node=node, anns=anns)
            decl = anns.attach(node.lineno, "cost")
            if decl is not None:
                f.decl = decl
                try:
                    f.decl_cost = parse_cost(decl.expr)
                except CostSyntaxError as exc:
                    findings.append(CostFinding(
                        code="EM020", path=path, line=decl.line,
                        message=f"bad em-cost expression: {exc}",
                        scope=scope))
                if decl.amortized and (
                        not decl.justification
                        or decl.justification.startswith(
                            PLACEHOLDER_JUSTIFICATION)):
                    findings.append(CostFinding(
                        code="EM020", path=path, line=decl.line,
                        message="amortized em-cost declarations are "
                                "trusted, not derived; carry the "
                                "amortization argument after '--'",
                        scope=scope))
                elif decl.justification.startswith(
                        PLACEHOLDER_JUSTIFICATION):
                    findings.append(CostFinding(
                        code="EM020", path=path, line=decl.line,
                        message="placeholder justification on an "
                                "em-cost declaration; say why the "
                                "bound holds",
                        scope=scope))
            y = anns.attach(node.lineno, "yields")
            if y is not None:
                try:
                    f.yields = parse_cost(y.expr)
                except CostSyntaxError as exc:
                    findings.append(CostFinding(
                        code="EM020", path=path, line=y.line,
                        message=f"bad em-yields expression: {exc}",
                        scope=scope))
            funcs[qualname] = f

    yields_by_qn = {qn: f.yields for qn, f in funcs.items()
                    if f.yields is not None}

    # Pass B: collect bodies (loop trees, call sites, charge sites).
    for qn, f in funcs.items():
        _Collector(program, f, yields_by_qn, findings).collect()

    # Orphaned annotations: documentation rot.
    for path, anns in anns_by_module:
        for ann in anns.orphans():
            kind = "loop-bound" if ann.kind == "loop" else ann.kind
            findings.append(CostFinding(
                code="EM020", path=path, line=ann.line,
                message=f"orphaned 'em-{kind}' annotation: no "
                        f"matching construct on this or the next "
                        f"line",
                scope="<module>"))

    # Pass C: propagate costs reverse-topologically; EM018–EM020.
    ev = _Evaluator(program, funcs)
    ev.findings = findings
    ev.run()

    # EM017: costly roots must declare.
    undeclared_roots: set[str] = set()
    for qn, f in sorted(funcs.items()):
        if (_is_root(f) and not f.declared
                and not ev.summaries.get(qn, ZERO).is_zero):
            undeclared_roots.add(qn)
            findings.append(CostFinding(
                code="EM017", path=f.path, line=f.line,
                message=f"algorithm entry point with derived I/O "
                        f"cost {ev.summaries[qn].render()} has no "
                        f"'# em-cost:' declaration",
                scope=f.scope))

    # EM021: every charge site must be reachable from a declared
    # root, or the I/O it performs is unattributed in the cost table.
    covered: set[str] = set()
    frontier = [qn for qn, f in funcs.items() if f.declared]
    covered.update(frontier)
    while frontier:
        nxt: list[str] = []
        for qn in frontier:
            for t in _call_targets_of(funcs[qn].body):
                if t in funcs and t not in covered:
                    covered.add(t)
                    nxt.append(t)
        frontier = nxt
    for qn, f in sorted(funcs.items()):
        if (qn not in covered and qn not in undeclared_roots
                and _has_charge(f.body)):
            findings.append(CostFinding(
                code="EM021", path=f.path, line=f.line,
                message="charge site not reachable from any "
                        "cost-declared function; this I/O is "
                        "invisible to the symbolic cost table "
                        "(declare a cost on it or on a caller)",
                scope=f.scope))

    table = _cost_table(funcs, ev)
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings, table


def _cost_table(funcs: dict[str, _Func],
                ev: _Evaluator) -> dict[str, Any]:
    functions: dict[str, Any] = {}
    costed = 0
    declared = 0
    for qn in sorted(funcs):
        f = funcs[qn]
        cost = ev.summary(qn)
        if f.layer not in TABLE_LAYERS:
            continue
        if cost.is_zero and not f.declared:
            continue
        costed += 1
        entry: dict[str, Any] = {
            "path": f.path,
            "line": f.line,
            "layer": f.layer,
            "cost": cost.render(),
            "declared": (f.decl_cost.render()
                         if f.declared and f.decl_cost is not None
                         else None),
            "amortized": f.amortized,
        }
        if f.decl is not None and f.decl.justification:
            entry["justification"] = f.decl.justification
        if f.yields is not None:
            entry["yields"] = f.yields.render()
        if f.declared:
            declared += 1
        functions[qn] = entry
    return {
        "schema_version": COSTS_SCHEMA_VERSION,
        "functions": functions,
        "summary": {
            "functions": len(funcs),
            "costed": costed,
            "declared": declared,
        },
    }
