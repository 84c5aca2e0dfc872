"""Pinned benchmark baselines and the drift comparator.

The repository's reason to exist is a set of exact I/O counts; a silent
change to any of them is a regression in the reproduction itself.  A
*baseline file* (``benchmarks/BENCH_table1.json``) pins, per query
class, the counters a fixed deterministic instance must produce:
physical reads and writes (pool off and pool on), result count, cache
counters, the per-phase breakdown, and the memory peak.  CI re-measures
and calls :func:`compare_baselines`; any integer drift fails the build.

Regenerate intentionally with::

    PYTHONPATH=src python benchmarks/generate_report.py --write-baseline
"""

from __future__ import annotations

import json

#: Bumped when the baseline layout changes incompatibly.
SCHEMA_VERSION = 1

#: Tolerance for float fields (e.g. ``hit_rate``); integers must match
#: exactly.
FLOAT_TOLERANCE = 1e-9


def write_baseline(path, classes: dict, *, meta: dict | None = None) -> dict:
    """Write ``classes`` (query class -> measured counters) to ``path``.

    Returns the full document, including the schema envelope.
    """
    doc = {"schema_version": SCHEMA_VERSION,
           "meta": dict(meta or {}),
           "classes": classes}
    # host-side baseline file, not simulated-device I/O
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_baseline(path) -> dict:
    """Load a baseline document, validating the schema envelope."""
    # host-side baseline file, not simulated-device I/O
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has schema_version={version!r}, "
            f"expected {SCHEMA_VERSION} — regenerate it")
    if "classes" not in doc:
        raise ValueError(f"baseline {path} has no 'classes' section")
    return doc


def compare_baselines(committed: dict, fresh: dict) -> list[str]:
    """Diff two baseline documents; return human-readable drift lines.

    An empty list means no drift.  Classes present on only one side,
    differing integers anywhere in a class's counter tree, and floats
    beyond :data:`FLOAT_TOLERANCE` all count as drift.
    """
    drift: list[str] = []
    old = committed.get("classes", {})
    new = fresh.get("classes", {})
    for name in sorted(set(old) - set(new)):
        drift.append(f"{name}: in committed baseline but not re-measured")
    for name in sorted(set(new) - set(old)):
        drift.append(f"{name}: measured but missing from the committed "
                     f"baseline (add it with --write-baseline)")
    for name in sorted(set(old) & set(new)):
        _diff_tree(name, old[name], new[name], drift)
    return drift


def _diff_tree(prefix: str, old, new, drift: list[str]) -> None:
    """Recursively compare counter trees, appending drift lines."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) - set(new)):
            drift.append(f"{prefix}.{key}: missing from fresh run")
        for key in sorted(set(new) - set(old)):
            drift.append(f"{prefix}.{key}: not in committed baseline")
        for key in sorted(set(old) & set(new)):
            _diff_tree(f"{prefix}.{key}", old[key], new[key], drift)
        return
    if isinstance(old, float) or isinstance(new, float):
        if abs(float(old) - float(new)) > FLOAT_TOLERANCE:
            drift.append(f"{prefix}: {old} -> {new}")
        return
    if old != new:
        drift.append(f"{prefix}: {old} -> {new}")
