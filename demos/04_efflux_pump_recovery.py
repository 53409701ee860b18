"""Recovering the multi-drug efflux pump grammar end to end.

A simulated teacher holds the four-gene AcrAB-TolC cluster grammar; the
learner sees only query answers.  The resulting hypothesis matches the
hidden grammar on every small tree, and its most probable bracketing of the
cluster is (AcrR ((AcrA AcrB) TolC)) with probability 0.456.
"""
import time
from pathlib import Path

from skelgram import (SimulatedTeacher, enumerate_full_trees, learn, load_wcfg,
                      pmta_to_wcfg, wcfg_to_pcfg)

fixture = Path(__file__).resolve().parent.parent / "fixtures" / "acrab.wcfg"
target = load_wcfg(fixture)
alphabet = target.alphabet(2)

teacher = SimulatedTeacher(target)
started = time.monotonic()
report = learn(teacher, alphabet)
print(f"rank {report.basis_size} recovered in {time.monotonic() - started:.1f}s "
      f"({report.seq_count} equivalence, {report.smq_count} membership queries)")

pcfg = wcfg_to_pcfg(pmta_to_wcfg(report.hypothesis))
ranked = sorted(((pcfg.skeletal_weight(t), t.text)
                 for t in enumerate_full_trees(alphabet.leaf_symbols, 4)),
                reverse=True)
print("\nmost probable 4-gene bracketings:")
for value, text in ranked[:5]:
    print(f"  {float(value):0.3f}  {text}")

mismatches = sum(1 for t in enumerate_full_trees(alphabet.leaf_symbols, 5)
                 if pcfg.skeletal_weight(t) != target.skeletal_weight(t))
print(f"\ndisagreements with the hidden grammar on trees of <= 5 leaves: {mismatches}")
