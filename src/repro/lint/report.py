"""Reporters: human-readable text and a stable JSON document.

The JSON schema is versioned (:data:`REPORT_SCHEMA_VERSION`) and
covered by a test that pins the exact key set — CI scrapes the
report, so the shape is an interface, not an implementation detail.
"""

from __future__ import annotations

import json

from repro.lint.registry import RULES
from repro.lint.visitor import LintResult

REPORT_SCHEMA_VERSION = 2


def to_json(result: LintResult) -> str:
    """Serialize a lint run as one stable JSON document."""
    payload: dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "clean": result.clean,
        "violations": [v.as_dict() for v in result.violations],
        "suppressed": {"pragma": len(result.suppressed_by_pragma)},
        "rules": {code: {"name": r.name, "summary": r.summary}
                  for code, r in sorted(RULES.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def to_human(result: LintResult) -> str:
    """Render a lint run the way a compiler would: one line per finding."""
    lines: list[str] = []
    for v in result.violations:
        lines.append(v.render())
    lines.append("")
    n = len(result.violations)
    verdict = "clean" if result.clean else f"{n} violation(s)"
    lines.append(f"emlint: {result.files_checked} file(s) checked, "
                 f"{verdict}, {len(result.suppressed_by_pragma)} "
                 f"suppressed by pragma")
    return "\n".join(lines)
