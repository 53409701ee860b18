"""The benchmark's counts repeat exactly: across two runs of one seed and
across two hash seeds.

    python3 -m pytest benchmarks/test_determinism.py

Each run is a traced run of one untraced and one traced round.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("learner.smq_count", "learner.seq_count", "table.basis", "table.rows",
          "table.columns", "teacher.seq.candidates_scanned", "geneclusters.score.calls")


def traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", ["learn-grammar", "learn-corpus", "batch-tools"])
def test_counts_repeat(workload):
    first = traced_counts(workload, 0)
    assert any(first.values())
    assert traced_counts(workload, 0) == first
    assert traced_counts(workload, 1) == first
