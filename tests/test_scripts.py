"""Smoke tests of the scripts under ``scripts/``."""

import os
import subprocess
import sys

from chaowork import native

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(native.PACKAGE_DIR)


def test_pilot_classical_limit_runs():
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = os.path.join(REPO, "scripts", "pilot_classical_limit.py")
    proc = subprocess.run(
        [sys.executable, script, "--u-points", "8"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("hbar=")]
    assert len(rows) == 4, proc.stdout
