"""The benchmark's smoke run: every workload, untraced and traced, checked.

The traced run wraps mfcir functions by name (perfbench/spans.py), so this
also guards the names the layer trace relies on.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_run_traced_passes_every_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "all", "--smoke", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout
    assert summary["failed"] == 0, proc.stdout
    assert summary["attempted"] > 0
