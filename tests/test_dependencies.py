"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_import_no_third_party_numerics():
    code = ("import repro.server, repro.cli, sys; "
            "loaded = {m.split('.')[0] for m in sys.modules}; "
            "print(sorted(loaded & {'scipy', 'numpy', 'networkx'}))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

