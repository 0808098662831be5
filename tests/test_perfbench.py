"""The benchmark's binding contract: every workload, tiny and traced, is correct.

A traced run is correct only if every wrapper its workload expects fires,
so a change that moves work off a traced binding shows up here.  The runs
write their records to the gitignored perfbench/out/, as the self-test's do.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytest.importorskip("scipy", reason="perfbench/run.py imports scipy to record its version")


@pytest.mark.parametrize("workload", ["verify", "fields", "files"])
def test_tiny_traced_workload_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
