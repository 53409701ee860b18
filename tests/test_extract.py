from fractions import Fraction

import pytest

from skelgram.extract import extract_cmta
from skelgram.grammar import load_wcfg
from skelgram.table import ObservationTable, TableError
from skelgram.teacher import SimulatedTeacher
from skelgram.trees import (IDENTITY_CONTEXT, Leaf, Node, RankedAlphabet, compose,
                            parse_structured_string)

from conftest import FIXTURES


def completed_table(grammar, extra_texts=(), max_rank=2):
    alphabet = grammar.alphabet(max_rank)
    teacher = SimulatedTeacher(grammar)
    table = ObservationTable(alphabet, teacher)
    extra = [parse_structured_string(s, alphabet) for s in extra_texts]
    table.complete([Leaf(tok) for tok in alphabet.leaf_symbols] + extra)
    return table


def test_extract_requires_completed_table():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table = ObservationTable(g.alphabet(2), SimulatedTeacher(g))
    with pytest.raises(TableError, match="must be closed and consistent"):
        extract_cmta(table)


def test_extract_rejects_independent_row():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table = ObservationTable(g.alphabet(2), SimulatedTeacher(g))
    table._completed = True  # marked completed, but never closed
    assert table.classify(Leaf("a").text) is None
    with pytest.raises(TableError, match="independent row"):
        extract_cmta(table)


def test_trivial_pipeline():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table = completed_table(g)
    a = extract_cmta(table)
    assert a.dim == 1
    assert a.leaf_maps["a"] == [Fraction(1)]
    assert a.output == [Fraction(1)]
    assert a.eval(Leaf("a")) == 1
    assert a.eval(parse_structured_string("(a a)", a.alphabet)) == 0


def test_zero_series_gives_dimension_zero():
    class ZeroOracle:
        def smq(self, tree, context=IDENTITY_CONTEXT):
            return Fraction(0)

    alphabet = RankedAlphabet(["a"], 2)
    table = ObservationTable(alphabet, ZeroOracle())
    table.complete([Leaf("a")])
    a = extract_cmta(table)
    assert a.dim == 0
    assert a.eval(Leaf("a")) == 0
    assert a.is_positive()


def test_extracted_automaton_is_colinear_and_positive():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table = completed_table(g, ["(AcrR ((AcrA AcrB) TolC))",
                                "(TolC (AcrR (AcrA AcrB)))"])
    a = extract_cmta(table)
    assert a.is_colinear_mta()
    assert a.is_positive()


def test_table_agreement():
    """The extracted automaton reproduces every filled cell of the table."""
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table = completed_table(g, ["(AcrR ((AcrA AcrB) TolC))"])
    a = extract_cmta(table)
    for tree in table.trees:
        row = table.rows[tree.text]
        for ctx, value in zip(table.columns, row):
            assert a.eval(compose(ctx, tree)) == value, (tree.text, ctx.text)


def test_basis_rows_evaluate_to_unit_vectors():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table = completed_table(g, ["(AcrR ((AcrA AcrB) TolC))"])
    a = extract_cmta(table)
    for i, b in enumerate(table.basis):
        vec = a.eval_vector(b)
        expected = [Fraction(0)] * a.dim
        expected[i] = Fraction(1)
        assert vec == expected, b.text


def test_classified_rows_evaluate_to_scaled_units():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table = completed_table(g, ["(a (a (a a)))"])
    a = extract_cmta(table)
    for t in table.trees:
        cls = table.classify(t.text)
        vec = a.eval_vector(t)
        if cls == []:
            assert all(x == 0 for x in vec)
        else:
            expected = [Fraction(0)] * a.dim
            expected[cls[0][0]] = cls[0][1]
            assert vec == expected


def test_basis_tuple_node_with_basis_membership_gets_unit_coefficient():
    # a basis element that is itself a one-level node over basis elements
    # classifies to itself with coefficient 1
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table = completed_table(g)
    chain2 = parse_structured_string("(a a)", g.alphabet(2))
    assert chain2 in table.basis
    cls = table.classify(chain2.text)
    assert cls[0][1] == 1 and table.basis[cls[0][0]] == chain2
