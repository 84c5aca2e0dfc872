"""Per-rule detection logic, shared by the single AST pass.

Each ``em0xx_*`` function inspects one node (or one module-level fact
set) and returns ``(code, message)`` findings; the visitor supplies
lexical context (layer, enclosing ``with`` stack, scope).  Keeping
the logic here — separate from the tree walk — means a rule can be
unit-tested against a single node and the registry, rules, and docs
stay in one-to-one correspondence.
"""

from __future__ import annotations

import ast

Finding = tuple[str, str]

#: Names whose call materializes its iterable argument in memory.
MATERIALIZERS = frozenset(
    {"list", "sorted", "set", "dict", "tuple", "frozenset"})

#: Attribute names that yield a charged EM iterator when called.
SCAN_ATTRS = frozenset({"scan", "reader"})

#: Attribute names returning context managers that reconcile counter
#: state on exit (EM005).
CONTEXT_ATTRS = frozenset({"suspend", "span", "phase"})

#: Modules whose import into a counted path breaks determinism (EM004).
NONDETERMINISTIC_MODULES = frozenset({"time", "random", "datetime"})

#: Modules granting raw OS I/O (EM001); builtin ``open`` and
#: ``os.read``/``os.write``/``os.open`` are matched separately.
RAW_IO_MODULES = frozenset({"shutil", "pathlib", "io"})

#: pathlib-style methods that read or write the real filesystem.
RAW_IO_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"})

#: Layers/files (relative to the ``repro`` package) allowed raw OS
#: I/O: em/ simulates the disk, data/io.py is the CSV bridge, and
#: lint/ itself is host-side tooling that reads the sources it checks.
RAW_IO_EXEMPT_LAYERS = frozenset({"em", "lint"})
RAW_IO_EXEMPT_FILES = frozenset({"data/io.py"})

#: Layers the EM002 materialization rule polices: anywhere EM scans
#: are consumed by algorithm or analysis code.
EM002_LAYERS = frozenset({"core", "query", "analysis"})

#: Layers counted paths live in or import (EM004).
EM004_LAYERS = frozenset({"core", "em", "query", "data"})

#: Layers the EM006 phase-declaration rule polices.
EM006_LAYERS = frozenset({"core"})

#: Modules that do raw host I/O or write host-side reports; nothing
#: in a counted layer (core/, em/) may import them.
HOST_MODULES = ("repro.data.io", "repro.cli", "repro.server",
                "repro.lint", "repro.obs.export", "repro.obs.baseline")

#: The EM003 layering matrix: layer -> banned import prefixes.
LAYERING: dict[str, tuple[str, ...]] = {
    "em": ("repro.core", "repro.query") + HOST_MODULES,
    "core": ("repro.internal",) + HOST_MODULES,
    "obs": ("repro.core",),
}

_LAYERING_WHY = {
    "em": "the machine must not depend on the algorithms that run "
          "on it, nor on host-side I/O and report writers",
    "core": "internal/ holds uncharged in-memory baselines, and the "
            "host modules move bytes uncharged; either would bypass "
            "the I/O accounting",
    "obs": "observability must stay passive and never drive the "
           "algorithms it watches",
}


def dotted_name(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c``, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def raw_io_exempt(layer: str, pkg_relfile: str) -> bool:
    """EM001 scope test: is this file allowed raw OS I/O?"""
    return (layer in RAW_IO_EXEMPT_LAYERS
            or pkg_relfile in RAW_IO_EXEMPT_FILES)


def em001_import(module: str, layer: str,
                 pkg_relfile: str) -> Finding | None:
    """EM001: imports of raw-I/O-granting modules outside exempt files."""
    top = module.split(".")[0]
    if top in RAW_IO_MODULES and not raw_io_exempt(layer, pkg_relfile):
        return ("EM001",
                f"import of {top!r} grants raw OS I/O outside em/ "
                "and data/io.py; route bytes through the charged "
                "Device/EMFile API")
    return None


def em001_call(node: ast.Call, layer: str,
               pkg_relfile: str) -> Finding | None:
    """EM001: direct raw-I/O call forms (open, os.read/write/open, …)."""
    if raw_io_exempt(layer, pkg_relfile):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return ("EM001",
                "builtin open() performs raw OS I/O; route bytes "
                "through the charged Device/EMFile API (host-side "
                "report writers carry a pragma)")
    if isinstance(func, ast.Attribute):
        dotted = dotted_name(func)
        if dotted in ("os.read", "os.write", "os.open"):
            return ("EM001",
                    f"{dotted}() performs raw OS I/O; route bytes "
                    "through the charged Device/EMFile API")
        if func.attr in RAW_IO_METHODS:
            return ("EM001",
                    f".{func.attr}() performs raw OS I/O; route "
                    "bytes through the charged Device/EMFile API")
    return None


def em003_import(module: str, layer: str) -> Finding | None:
    """EM003: the layering matrix."""
    for prefix in LAYERING.get(layer, ()):
        if module == prefix or module.startswith(prefix + "."):
            return ("EM003",
                    f"{layer}/ imports {module!r}: "
                    f"{_LAYERING_WHY[layer]}")
    return None


def em004_import(module: str, layer: str) -> Finding | None:
    """EM004: nondeterminism sources in counted paths."""
    top = module.split(".")[0]
    if layer in EM004_LAYERS and top in NONDETERMINISTIC_MODULES:
        return ("EM004",
                f"import of {top!r} in counted path {layer}/ — "
                "wall-clock and randomness break the byte-identical "
                "baseline gate")
    return None


def em005_statement(node: ast.Expr) -> Finding | None:
    """EM005: a context-manager factory called and discarded."""
    call = node.value
    if (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in CONTEXT_ATTRS):
        return ("EM005",
                f"bare call to .{call.func.attr}() discards its "
                "context manager; use it in a with statement so "
                "__exit__ reconciles the counter state")
    return None


def is_hold(expr: ast.expr) -> bool:
    """Is this ``with`` item a ``…memory.hold(n)`` charge?"""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "hold")


def is_scan_call(expr: ast.expr) -> bool:
    """Is this expression a charged EM iterator (``.scan()``/``.reader()``)?"""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in SCAN_ATTRS)


def em002_call(node: ast.Call, layer: str, in_hold: bool
               ) -> Finding | None:
    """EM002: ``list(f.scan())``-style materialization outside a hold."""
    if layer not in EM002_LAYERS or in_hold:
        return None
    if not (isinstance(node.func, ast.Name)
            and node.func.id in MATERIALIZERS):
        return None
    for arg in node.args:
        if is_scan_call(arg):
            break
        if isinstance(arg, ast.GeneratorExp) and any(
                is_scan_call(g.iter) for g in arg.generators):
            break
    else:
        return None
    return ("EM002",
            f"{node.func.id}() materializes an EM scan outside a "
            "MemoryGauge-charged region; wrap it in `with "
            "device.memory.hold(n):` so the memory budget sees it")


def em002_comprehension(node: ast.ListComp | ast.SetComp | ast.DictComp,
                        layer: str, in_hold: bool) -> Finding | None:
    """EM002: a comprehension drawing directly from an EM scan."""
    if layer not in EM002_LAYERS or in_hold:
        return None
    if any(is_scan_call(g.iter) for g in node.generators):
        return (
            "EM002",
            f"{type(node).__name__} over an EM scan outside a "
            "MemoryGauge-charged region; wrap it in `with "
            "device.memory.hold(n):` so the memory budget sees it")
    return None


def em006_cross_check(
        layer: str,
        declared: tuple[str, ...] | None,
        decl_loc: tuple[int, int],
        literals: list[tuple[str, int, int]],
) -> list[tuple[str, str, int, int]]:
    """EM006: literals passed to ``.phase()`` vs the PHASES declaration.

    Returns ``(code, message, line, col)`` tuples; both directions are
    checked — undeclared literals and stale declared-but-unused names.
    """
    if layer not in EM006_LAYERS:
        return []
    out: list[tuple[str, str, int, int]] = []
    if literals and declared is None:
        name, line, col = literals[0]
        out.append(("EM006",
                    f"module passes phase name {name!r} but declares "
                    "no module-level PHASES tuple", line, col))
        return out
    declared_set = set(declared or ())
    used = {name for name, _, _ in literals}
    for name, line, col in literals:
        if name not in declared_set:
            out.append(("EM006",
                        f"phase name {name!r} is not declared in "
                        "this module's PHASES tuple", line, col))
    if declared is not None:
        line, col = decl_loc
        for name in declared:
            if name not in used:
                out.append(("EM006",
                            f"PHASES declares {name!r} but no "
                            ".phase() call in this module uses it "
                            "(stale declaration)", line, col))
    return out
