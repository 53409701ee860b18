"""The benchmark tracer (benchmarks/spans.py) wraps library functions by
name and reads table sizes by attribute; a rename in skelgram must fail
here, in the tier-1 suite, not only in the slow benchmark runs."""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from skelgram.table import Budget, ObservationTable
from skelgram.trees import RankedAlphabet

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
        def smq(self, tree):
            return Fraction(0)

    table = ObservationTable(RankedAlphabet(["a"], 2), ZeroOracle())
    # one leaf row, the identity column, no basis tree yet
    assert (len(table.rows), len(table.columns), len(table.basis)) == (1, 1, 0)
