"""Each demo runs to completion and prints what it printed when pinned.

The demos are run as scripts, in subprocesses, against this checkout's
`src/`.  Demo 01 prints `MTA.eval_vector`, so its pin also guards the dense
vectors the evaluator hands out.
"""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout with the timing figures masked, as printed
# while the evaluator still stored dense subtree vectors; demo 04's was
# re-pinned when exact targets stopped being scanned (4 equivalence queries
# instead of 5), and again when a counterexample came to add one separating
# column instead of its subtrees (5 equivalence and 1916 membership
# queries, was 4 and 3240).
DEMO_STDOUT_SHA256 = {
    "01_weighted_tree_automata.py":
        "02d3016e706ec154f44e14c0bf1e76d6b0b2304a823a0f1a2a9c4509f1ee2d5a",
    "02_learning_a_duplication_grammar.py":
        "760eba65b67c5d94c47bff6da8b607bfa10bfd6838853b8b0fdd4ca50f1ee21d",
    "03_gene_cluster_pipeline.py":
        "8105dadf1de7dc76ea6a426fdd0eda7984253ed28cff240e18439a6c82ec5662",
    "04_efflux_pump_recovery.py":
        "a3edbcbb0303f9adc7bb2f8113b2369103c1d74e7de5d14eaae5c015d9695912",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_runs_and_prints_pinned_output(demo):
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stdout = re.sub(r"in \d+\.\d+s\b", "in <T>s", done.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo]
