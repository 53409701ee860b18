"""The benchmark tracer (benchmarks/spans.py) wraps library functions by
name and reads table sizes by attribute; a rename in skelgram must fail
here, in the tier-1 suite, not only in the slow benchmark runs."""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from skelgram.grammar import load_wcfg
from skelgram.learner import learn
from skelgram.table import Budget, ObservationTable
from skelgram.teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                              SimulatedTeacher)
from skelgram.trees import IDENTITY_CONTEXT, RankedAlphabet

from conftest import FIXTURES, learn_corpus_entries

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    """Import spans.py (standard library only) without running anything."""
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = load_spans()
    assert spans.WRAPPED
    for name, module_name, path in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_budget_charge_resolves():
    assert callable(Budget.charge)


def test_table_has_the_sizes_the_tracer_reads():
    class ZeroOracle:
        def smq(self, tree, context=IDENTITY_CONTEXT):
            return Fraction(0)

    table = ObservationTable(RankedAlphabet(["a"], 2), ZeroOracle())
    # one leaf row, the identity column, no basis tree yet
    assert (len(table.rows), len(table.columns), len(table.basis)) == (1, 1, 0)


@pytest.mark.parametrize("target", ["acrab", "corpus"])
def test_wrapped_teacher_smq_sees_every_membership_query(monkeypatch, target):
    """The tracer's teacher.smq span counts membership queries: the table
    reaches the oracle only through SimulatedTeacher.smq, once per query."""
    calls = []
    smq = SimulatedTeacher.smq

    def counted(self, *args, **kwargs):
        calls.append(args)
        return smq(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedTeacher, "smq", counted)
    if target == "corpus":
        entries = learn_corpus_entries(2)
        oracle = CorpusOracle(entries, Fraction(1, 5), "duplication")
        teacher = SimulatedTeacher(oracle, DuplicationsStrategy([t for t, _ in entries], 1))
        alphabet = oracle.alphabet()
    else:
        g = load_wcfg(FIXTURES / "acrab.wcfg")
        alphabet = g.alphabet(2)
        teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 5))
    report = learn(teacher, alphabet)
    assert len(calls) == report.table.smq_count == report.smq_count > 0
