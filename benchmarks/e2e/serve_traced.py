#!/usr/bin/env python3
"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``serve_traced.py SPANS_OUT [serve arguments ...]``.  Installs
:class:`tracing.Tracer` (each HTTP request is one query), runs
``repro.cli.main(["serve", ...])``, and on SIGTERM shuts the server
down cleanly and writes the tracer's summary to ``SPANS_OUT``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def _stop(signum, frame):
    raise KeyboardInterrupt  # cmd_serve's clean shutdown path


def main(argv: list[str]) -> int:
    out, serve_args = Path(argv[0]), argv[1:]
    import repro.server  # noqa: F401 - load every layer before wrapping
    from repro.cli import main as cli_main

    tracer = Tracer(number_roots=True)
    tracer.install()
    signal.signal(signal.SIGTERM, _stop)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
