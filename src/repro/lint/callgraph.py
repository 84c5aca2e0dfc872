"""Project-wide call graph over the per-module emlint ASTs.

The intraprocedural pass in :mod:`repro.lint.visitor` sees one module
at a time; this module builds the *whole-program* structure the effect
rules (EM007–EM011, :mod:`repro.lint.effects`) need: every function
and method in the linted tree as a :class:`FunctionNode`, the resolved
call edges between them, and the strongly connected components in
reverse topological order so a fixpoint over recursion cycles is one
linear sweep.

Resolution is deliberately conservative.  A call is resolved when the
target is provable from lexical facts alone — a module-level name
defined or imported in the same module (relative imports resolved with
the same package arithmetic as the visitor), ``self.method`` inside a
class body, or an attribute name that matches methods in the linted
tree (union over *all* classes declaring it, since emlint never
infers receiver types).  Everything else lands in one of two buckets:

* a **whitelist** of stdlib/builtin callables known not to touch the
  effect lattice (``len``, ``json.dumps``, ``dict.items``, …), or
* the **unknown-callee lattice top**: the call is recorded in
  :attr:`FunctionNode.unknown_calls` and the function's signature is
  marked ``UNKNOWN``.  Unknown propagates to callers like any other
  effect but never fires a rule — the analysis reports what it cannot
  prove instead of guessing.

Like the visitor, this is stdlib-only and never imports the code it
inspects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint import rules

#: Effect-declaration pragma: ``# em-effects: HOST_ONLY -- reason``.
EFFECTS_PRAGMA_RE = re.compile(
    r"#\s*em-effects:\s*([A-Za-z0-9_,\s]+?)\s*(?:--\s*(.*?))?\s*$")

#: ``os.*`` entry points that are raw I/O (mirrors EM001's call rule).
RAW_IO_DOTTED = frozenset({"os.read", "os.write", "os.open"})

#: Top-level modules whose calls never touch the effect lattice.
#: ``os`` is here because only ``os.read/write/open`` (matched above)
#: move bytes; ``os.path.join`` and friends are pure string work.
PURE_MODULES = frozenset({
    "abc", "argparse", "ast", "bisect", "collections", "contextlib",
    "copy", "csv", "dataclasses", "enum", "functools", "heapq",
    "inspect", "itertools", "json", "math",
    "operator", "os", "re", "statistics", "string", "sys", "textwrap",
    "threading", "types", "typing",
    # Constructing paths is pure string work; the methods that move
    # bytes (read_text & friends) are caught as RAW_IO_METHODS at the
    # call site regardless of how the receiver was built.
    "pathlib",
})

#: Builtin callables (called by bare name) with no lattice effect.
#: ``open`` is intentionally absent — it is a PHYS_IO intrinsic.
PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "bytes", "callable", "chr", "dict",
    "divmod", "enumerate", "filter", "float", "format", "frozenset",
    "getattr", "hasattr", "hash", "hex", "id", "int", "isinstance",
    "issubclass", "iter", "len", "list", "map", "max", "min", "next",
    "object", "ord", "pow", "print", "range", "repr", "reversed",
    "round", "set", "setattr", "sorted", "str", "sum", "super",
    "tuple", "type", "vars", "zip",
    # typing/dataclass helpers that appear in call position
    "cast", "field", "dataclass", "ValueError", "TypeError",
    "KeyError", "RuntimeError", "NotImplementedError", "StopIteration",
    "Exception", "AssertionError", "IndexError",
})

#: Attribute names (on unresolvable receivers) that are container /
#: string / stdlib-object methods with no lattice effect.  Anything
#: not listed here resolves through the project method index or falls
#: to UNKNOWN.
PURE_METHODS = frozenset({
    "add", "append", "as_posix", "capitalize", "clear", "copy",
    "count", "discard", "endswith", "extend", "format", "get",
    "group", "groups", "index", "insert", "intersection", "isdigit",
    "isidentifier", "items", "join", "keys", "lower", "lstrip",
    "match", "mkdir", "most_common", "partition", "pop", "popleft",
    "popitem", "remove", "replace", "rstrip", "search", "setdefault",
    "sort", "split", "splitlines", "startswith", "strip", "sub",
    "title", "union", "update", "upper", "values", "with_suffix",
})

#: Methods provided by *external* base classes that never touch the
#: effect lattice.  Keyed by resolved dotted base name: a linted class
#: whose (transitive) bases include one of these resolves the listed
#: ``self.<method>`` calls as pure instead of UNKNOWN.
#: ``ast.NodeVisitor.visit`` dispatches back into the subclass's
#: ``visit_*`` methods, but every linted visitor lives in the
#: host-side ``lint`` layer — already a propagation barrier — so
#: treating the dispatcher itself as inert loses nothing.
PURE_BASE_METHODS: dict[str, frozenset[str]] = {
    "ast.NodeVisitor": frozenset({"visit", "generic_visit"}),
}

#: A raw, unresolved call site: (kind, data, line).  ``kind`` is
#: "name" (bare-name call), "dotted" (full Name-rooted attribute
#: chain, e.g. ``self.device.charge_read``), "super" (a
#: ``super().method(...)`` call, data is the method name) or "attr"
#: (attribute on a non-name expression; only the attribute name
#: survives).
RawCall = tuple[str, str, int]


@dataclass
class FunctionNode:
    """One function or method in the linted tree."""

    qualname: str  #: e.g. ``repro.core.acyclic.clone_instance``
    module: str  #: dotted module, e.g. ``repro.core.acyclic``
    local_name: str  #: ``func`` or ``Class.method``
    path: str  #: repo-relative file path
    line: int
    layer: str  #: top-level dir under ``repro/`` ("" otherwise)
    pkg_relfile: str  #: path relative to the ``repro`` package
    cls: str | None = None  #: enclosing class local name, if a method
    #: Effects declared via ``# em-effects:`` on the ``def`` line.
    declared: frozenset[str] = frozenset()
    justification: str = ""
    #: Declaration tokens that are not valid effect names (EM011).
    bad_declared: tuple[str, ...] = ()
    raw_calls: list[RawCall] = field(default_factory=list)
    #: Effects evident in this function's own body.
    intrinsic: set[str] = field(default_factory=set)
    # Filled in by link():
    edges: list[str] = field(default_factory=list)  #: callee qualnames
    unknown_calls: list[str] = field(default_factory=list)
    # Filled in by the effects fixpoint:
    inherited: set[str] = field(default_factory=set)

    @property
    def total(self) -> set[str]:
        """The inferred signature: own effects plus inherited ones."""
        return self.intrinsic | self.inherited


@dataclass
class Program:
    """The linked whole-program view handed to the effect rules."""

    #: qualname → node, every function/method in the linted tree.
    nodes: dict[str, FunctionNode] = field(default_factory=dict)
    #: bare method name → qualnames of every method so named.
    methods: dict[str, list[str]] = field(default_factory=dict)
    #: (module, top-level def name) → qualname.
    module_funcs: dict[tuple[str, str], str] = field(default_factory=dict)
    #: ``module.Class`` → method names declared on it.
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: ``module.Class`` → resolved base-class keys, in declaration
    #: order.  Linted bases are canonical class keys; external bases
    #: keep their resolved dotted name (``ast.NodeVisitor``) so the
    #: :data:`PURE_BASE_METHODS` whitelist can match them.
    bases: dict[str, list[str]] = field(default_factory=dict)
    #: Whether class-hierarchy-aware resolution is active.
    hierarchy: bool = True
    #: module → local import alias → absolute dotted target.
    imports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: dotted names of every linted module.
    modules: set[str] = field(default_factory=set)


def parse_effect_declarations(
        source: str) -> dict[int, tuple[frozenset[str], str, tuple[str, ...]]]:
    """Map line → (declared effects, justification, invalid tokens)."""
    out: dict[int, tuple[frozenset[str], str, tuple[str, ...]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = EFFECTS_PRAGMA_RE.search(line)
        if m is None:
            continue
        tokens = [t.strip().upper() for t in m.group(1).split(",")
                  if t.strip()]
        good = frozenset(t for t in tokens if t in EFFECT_NAMES)
        bad = tuple(t for t in tokens if t not in EFFECT_NAMES)
        out[lineno] = (good, (m.group(2) or "").strip(), bad)
    return out


#: The declarable effect lattice (UNKNOWN is inferred, never declared).
EFFECT_NAMES = frozenset(
    {"PHYS_IO", "MATERIALIZES", "NONDET", "FREE_PEEK", "HOST_ONLY"})

#: The lattice top: a call the resolver cannot prove anything about.
UNKNOWN = "UNKNOWN"


class _Collector(ast.NodeVisitor):
    """One walk over a module, recording functions and raw call sites."""

    def __init__(self, module: str, path: str, layer: str,
                 pkg_relfile: str,
                 decls: dict[int, tuple[frozenset[str], str,
                                        tuple[str, ...]]]) -> None:
        self.module = module
        self.path = path
        self.layer = layer
        self.pkg_relfile = pkg_relfile
        self.decls = decls
        self.imports: dict[str, str] = {}
        self.functions: list[FunctionNode] = []
        self.classes: dict[str, set[str]] = {}
        self.base_refs: dict[str, list[str]] = {}  #: cls → raw base refs
        self._cls: str | None = None
        self._node: FunctionNode | None = None
        self._hold_depth = 0

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.imports[alias.asname] = alias.name
            else:
                top = alias.name.split(".")[0]
                self.imports[top] = top
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._absolute_module(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            self.imports[alias.asname or alias.name] = target
        self.generic_visit(node)

    def _absolute_module(self, node: ast.ImportFrom) -> str | None:
        """Same package arithmetic as the visitor's relative resolver."""
        if node.level == 0:
            return node.module
        pkg = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        base = pkg.split(".") if pkg else []
        up = node.level - 1
        if up > len(base):
            return node.module
        parts = base[:len(base) - up] if up else base
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else node.module

    # -- definitions --------------------------------------------------

    def _def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._node is not None:
            # Nested def/closure: fold its body into the enclosing
            # function's signature.
            self.generic_visit(node)
            return
        local = f"{self._cls}.{node.name}" if self._cls else node.name
        declared, justification, bad = self.decls.get(
            node.lineno, (frozenset(), "", ()))
        fn = FunctionNode(
            qualname=f"{self.module}.{local}", module=self.module,
            local_name=local, path=self.path, line=node.lineno,
            layer=self.layer, pkg_relfile=self.pkg_relfile,
            cls=self._cls, declared=declared,
            justification=justification, bad_declared=bad)
        self.functions.append(fn)
        if self._cls is not None:
            self.classes.setdefault(self._cls, set()).add(node.name)
        self._node = fn
        hold, self._hold_depth = self._hold_depth, 0
        try:
            self.generic_visit(node)
        finally:
            self._node = None
            self._hold_depth = hold

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._node is not None or self._cls is not None:
            self.generic_visit(node)  # nested class: fold / flatten
            return
        self._cls = node.name
        self.classes.setdefault(node.name, set())
        refs = self.base_refs.setdefault(node.name, [])
        for base in node.bases:
            if isinstance(base, ast.Name):
                refs.append(base.id)
            elif isinstance(base, ast.Attribute):
                dotted = rules.dotted_name(base)
                if dotted is not None:
                    refs.append(dotted)
            # else: a subscripted generic or computed base — opaque.
        try:
            self.generic_visit(node)
        finally:
            self._cls = None

    # -- call sites and intrinsic effects -----------------------------

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

    def _materializes(self, node: ast.Call) -> bool:
        for arg in node.args:
            if rules.is_scan_call(arg):
                return True
            if isinstance(arg, ast.GeneratorExp) and any(
                    rules.is_scan_call(g.iter) for g in arg.generators):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._node
        if fn is None:
            self.generic_visit(node)
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                fn.intrinsic.add("PHYS_IO")
            else:
                if (func.id in rules.MATERIALIZERS
                        and not self._hold_depth
                        and self._materializes(node)):
                    fn.intrinsic.add("MATERIALIZES")
                fn.raw_calls.append(("name", func.id, node.lineno))
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in rules.RAW_IO_METHODS:
                fn.intrinsic.add("PHYS_IO")
            elif attr == "peek_tuples":
                fn.intrinsic.add("FREE_PEEK")
            elif (isinstance(func.value, ast.Call)
                  and isinstance(func.value.func, ast.Name)
                  and func.value.func.id == "super"):
                fn.raw_calls.append(("super", attr, node.lineno))
            else:
                dotted = rules.dotted_name(func)
                if dotted is not None:
                    fn.raw_calls.append(("dotted", dotted, node.lineno))
                else:
                    fn.raw_calls.append(("attr", attr, node.lineno))
        # else: calling the result of an expression — opaque, but the
        # inner expression is itself visited below.
        self.generic_visit(node)

    def _comprehension(self, node: ast.ListComp | ast.SetComp
                       | ast.DictComp) -> None:
        if self._node is not None and not self._hold_depth and any(
                rules.is_scan_call(g.iter) for g in node.generators):
            self._node.intrinsic.add("MATERIALIZES")
        self.generic_visit(node)

    visit_ListComp = _comprehension
    visit_SetComp = _comprehension
    visit_DictComp = _comprehension


def module_name_for(path: str, pkg_parts: tuple[str, ...] | None) -> str:
    """Dotted module name for a linted file (unique fallback outside
    the ``repro`` package)."""
    if pkg_parts is None:
        return path.replace("/", ".").removesuffix(".py")
    parts = ["repro"] + list(pkg_parts)
    last = parts.pop()
    stem = last.removesuffix(".py")
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts)


def build_program(
        modules: Iterable[tuple[str, str, ast.AST,
                                tuple[str, ...] | None]],
        *, class_hierarchy: bool = True) -> Program:
    """Collect and link a whole program.

    ``modules`` yields ``(rel_path, source, tree, pkg_parts)`` for
    every successfully parsed file (``pkg_parts`` as produced by the
    visitor's path scoping).  ``class_hierarchy=False`` disables the
    inheritance-aware resolution of ``self.m`` / ``cls`` / ``super()``
    calls (the pre-hierarchy behavior, kept for measuring how much of
    the UNKNOWN set the hierarchy pass removes).
    """
    program = Program(hierarchy=class_hierarchy)
    collectors: list[_Collector] = []
    raw_bases: list[tuple[str, str, list[str]]] = []  # (module, cls, refs)
    for path, source, tree, pkg_parts in modules:
        module = module_name_for(path, pkg_parts)
        layer = (pkg_parts[0]
                 if pkg_parts is not None and len(pkg_parts) >= 2 else "")
        pkg_relfile = "/".join(pkg_parts) if pkg_parts else path
        coll = _Collector(module, path, layer, pkg_relfile,
                          parse_effect_declarations(source))
        coll.visit(tree)
        collectors.append(coll)
        program.modules.add(module)
        program.imports[module] = coll.imports
        for cls, meths in coll.classes.items():
            program.classes[f"{module}.{cls}"] = meths
        for cls, refs in coll.base_refs.items():
            raw_bases.append((module, cls, refs))
        for fn in coll.functions:
            program.nodes[fn.qualname] = fn
            if fn.cls is None:
                program.module_funcs[(module, fn.local_name)] = fn.qualname
            else:
                meth = fn.local_name.split(".", 1)[1]
                program.methods.setdefault(meth, []).append(fn.qualname)
    # Bases resolve after every module is collected: a base class may
    # live in a module that has not been visited yet.
    for module, cls, refs in raw_bases:
        program.bases[f"{module}.{cls}"] = [
            _resolve_base(program, module, ref) for ref in refs]
    _link(program)
    return program


def _resolve_base(program: Program, module: str, ref: str) -> str:
    """A class-statement base ref → canonical class key or external
    dotted name."""
    if f"{module}.{ref}" in program.classes:
        return f"{module}.{ref}"
    parts = ref.split(".")
    target = program.imports.get(module, {}).get(parts[0])
    if target is not None:
        return _canonical(program, ".".join([target] + parts[1:]))
    return ref  # a builtin (Exception) or something opaque


def linted_mro(program: Program, clskey: str) -> list[str]:
    """Base classes of ``clskey`` reachable through the linted tree,
    breadth-first (approximates Python's MRO well enough for method
    lookup), including external dotted names at the fringe."""
    order: list[str] = []
    seen: set[str] = {clskey}
    frontier = [clskey]
    while frontier:
        nxt: list[str] = []
        for cls in frontier:
            for base in program.bases.get(cls, []):
                if base not in seen:
                    seen.add(base)
                    order.append(base)
                    nxt.append(base)
        frontier = nxt
    return order


def _link(program: Program) -> None:
    """Resolve every raw call site into edges, intrinsics, or UNKNOWN."""
    for fn in program.nodes.values():
        for kind, data, _line in fn.raw_calls:
            if kind == "name":
                _resolve_name(program, fn, data)
            elif kind == "dotted":
                _resolve_dotted(program, fn, data)
            elif kind == "super":
                _resolve_super(program, fn, data)
            else:
                _resolve_attr(program, fn, data)


def _class_edge(program: Program, fn: FunctionNode, clskey: str) -> None:
    """Calling a class constructs it: edge to ``__init__`` if linted."""
    init = f"{clskey}.__init__"
    if init in program.nodes:
        fn.edges.append(init)


def _canonical(program: Program, target: str) -> str:
    """Follow package re-export chains to the defining module.

    ``from repro.core import execute`` binds ``repro.core.execute``,
    but the function lives at ``repro.core.planner.execute`` — the
    package ``__init__``'s own import map (already collected) gives
    the next hop.  Bounded by a seen-set so aliasing cycles stop.
    """
    seen: set[str] = set()
    while target not in seen:
        seen.add(target)
        if target in program.nodes or target in program.classes:
            return target
        mod, _, name = target.rpartition(".")
        nxt = program.imports.get(mod, {}).get(name) if mod else None
        if nxt is None:
            return target
        target = nxt
    return target


def _resolve_imported(program: Program, fn: FunctionNode,
                      target: str, display: str) -> None:
    """Resolve a call whose base name came from an import."""
    target = _canonical(program, target)
    top = target.split(".")[0]
    if top in rules.NONDETERMINISTIC_MODULES:
        fn.intrinsic.add("NONDET")
    elif target in RAW_IO_DOTTED or top == "shutil":
        fn.intrinsic.add("PHYS_IO")
    elif target in program.nodes:
        fn.edges.append(target)
    elif target in program.classes:
        _class_edge(program, fn, target)
    elif top in PURE_MODULES:
        pass
    elif target in program.modules:
        pass  # calling a module object: not a thing; treat as inert
    else:
        # An import the program does not contain (third-party, or a
        # repro module outside the linted set): the lattice top.
        fn.unknown_calls.append(display)
        fn.intrinsic.add(UNKNOWN)


def _resolve_name(program: Program, fn: FunctionNode, name: str) -> None:
    qn = program.module_funcs.get((fn.module, name))
    if qn is not None:
        fn.edges.append(qn)
        return
    clskey = f"{fn.module}.{name}"
    if clskey in program.classes:
        _class_edge(program, fn, clskey)
        return
    if name == "cls" and fn.cls is not None and program.hierarchy:
        # A classmethod constructing its own class (alternate
        # constructor idiom): edge to __init__, own class first, then
        # up the hierarchy.
        own = f"{fn.module}.{fn.cls}.__init__"
        if own in program.nodes:
            fn.edges.append(own)
            return
        _hierarchy_method(program, fn, "__init__")
        return  # no linted __init__ anywhere in the MRO: inert
    target = program.imports.get(fn.module, {}).get(name)
    if target is not None:
        _resolve_imported(program, fn, target, name)
        return
    if name in PURE_BUILTINS:
        return
    # A local variable, parameter, or anything else in call position.
    fn.unknown_calls.append(name)
    fn.intrinsic.add(UNKNOWN)


def _resolve_dotted(program: Program, fn: FunctionNode,
                    dotted: str) -> None:
    parts = dotted.split(".")
    if parts[0] in ("self", "cls") and fn.cls is not None:
        if len(parts) == 2:
            meths = program.classes.get(f"{fn.module}.{fn.cls}", set())
            if parts[1] in meths:
                fn.edges.append(f"{fn.module}.{fn.cls}.{parts[1]}")
                return
            if (program.hierarchy
                    and _hierarchy_method(program, fn, parts[1])):
                return
        _resolve_attr(program, fn, parts[-1], display=dotted)
        return
    target = program.imports.get(fn.module, {}).get(parts[0])
    if target is not None:
        full = ".".join([target] + parts[1:])
        _resolve_imported(program, fn, full, dotted)
        return
    _resolve_attr(program, fn, parts[-1], display=dotted)


def _hierarchy_method(program: Program, fn: FunctionNode,
                      meth: str) -> bool:
    """Look ``meth`` up along the linted MRO of ``fn``'s class.

    Returns True when the call is accounted for: an edge to the first
    linted ancestor declaring the method, or a hit in the
    :data:`PURE_BASE_METHODS` whitelist for an external base.  False
    means the hierarchy knows nothing and the caller should fall back
    to the flat method-index resolution.
    """
    for anc in linted_mro(program, f"{fn.module}.{fn.cls}"):
        if meth in program.classes.get(anc, ()):  # linted ancestor
            qn = f"{anc}.{meth}"
            if qn in program.nodes:
                fn.edges.append(qn)
                return True
        if meth in PURE_BASE_METHODS.get(anc, ()):
            return True
    return False


def _resolve_super(program: Program, fn: FunctionNode,
                   meth: str) -> None:
    """``super().meth(...)``: the target is *strictly above* the
    defining class, so own-class methods never shadow it."""
    if (fn.cls is not None and program.hierarchy
            and _hierarchy_method(program, fn, meth)):
        return
    _resolve_attr(program, fn, meth, display=f"super().{meth}")


def _resolve_attr(program: Program, fn: FunctionNode, attr: str,
                  display: str | None = None) -> None:
    """An attribute call on an unresolvable receiver: union over every
    linted method of that name, else whitelist, else UNKNOWN."""
    targets = program.methods.get(attr)
    if targets:
        fn.edges.extend(targets)
        return
    if attr in PURE_METHODS:
        return
    fn.unknown_calls.append(display or f".{attr}")
    fn.intrinsic.add(UNKNOWN)


def strongly_connected(program: Program) -> list[list[str]]:
    """Tarjan's SCC over the program call graph, emitting components
    in reverse topological order (callees before callers)."""
    return tarjan_scc(
        program.nodes,
        {qn: program.nodes[qn].edges for qn in program.nodes})


def tarjan_scc(nodes: Iterable[str],
               edge_map: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative, over an arbitrary string graph.

    Emits components in reverse topological order (successors before
    predecessors), which makes a fixpoint over the condensation one
    linear sweep.  Edges to nodes outside ``nodes`` are ignored.
    """
    node_list = list(nodes)
    node_set = set(node_list)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in node_list:
        if root in index:
            continue
        # Each frame: (node, iterator position over its edges).
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            edges = edge_map.get(node, [])
            advanced = False
            while ei < len(edges):
                tgt = edges[ei]
                ei += 1
                if tgt not in node_set:
                    continue
                if tgt not in index:
                    work.append((node, ei))
                    work.append((tgt, 0))
                    advanced = True
                    break
                if tgt in on_stack:
                    low[node] = min(low[node], index[tgt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs
