import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from skelgram.extract import extract_cmta
from skelgram.geneclusters import right_chain
from skelgram.grammar import load_wcfg, parse_wcfg
from skelgram.learner import learn
from skelgram.multilinear import colinear_witness
from skelgram.scalars import scalar_eq
from skelgram.table import Budget, CapExceeded, ObservationTable, TableError
from skelgram.teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                              SimulatedTeacher)
from skelgram.trees import (IDENTITY_CONTEXT, Leaf, Node, RankedAlphabet,
                            canonical_key, compose, compose_contexts, full_trees,
                            parse_context, parse_structured_string, sigma_contexts,
                            subtrees)

from conftest import FIXTURES, learn_corpus_entries, random_cmta


def make_table(grammar, max_rank=2, budget=None):
    alphabet = grammar.alphabet(max_rank)
    teacher = SimulatedTeacher(grammar)
    table = ObservationTable(alphabet, teacher, budget=budget)
    return table, alphabet


def complete_with_leaves(table, alphabet, extra=()):
    table.complete([Leaf(tok) for tok in alphabet.leaf_symbols] + list(extra))


def test_trivial_grammar_closes_to_rank_one():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    assert len(table.basis) == 1
    assert table.basis[0] == Leaf("a")
    assert table.is_completed


def test_complete_on_completed_table_is_noop():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    queries = table.smq_count
    table.complete()
    assert table.smq_count == queries
    assert len(table.basis) == 1


def test_close_adds_one_basis_row_per_iteration():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    before = len(table.basis)
    complete_with_leaves(table, alphabet)
    # smalldup has co-linear rank 2: the chain direction and the leaf direction
    assert len(table.basis) == 2
    assert before == 0


def test_classify_kinds():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    two_chain = parse_structured_string("(a a)", alphabet)
    three_chain = parse_structured_string("(a (a a))", alphabet)
    cls = table.classify(two_chain.text)
    assert cls and cls[0][1] == 1
    cls3 = table.classify(three_chain.text)
    assert cls3
    assert cls3[0][1] == Fraction(1, 5)  # 0.16 = 0.2 * 0.8
    dead = table.classify(parse_structured_string("((a a) a)", alphabet).text)
    assert dead == []


def test_zero_consistency_violation_detected():
    # before any context beyond the identity, the leaf row of the chain toy is
    # zero but composes to a non-zero value: the check must return the context
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    table.add_subtree_closed(Leaf("a"))
    table.close()
    violation = table.check_zero_consistency()
    assert violation is not None
    assert violation.text == "(<> a)"


def test_colinear_consistency_violation_detected():
    # chain grammar: rows stay pairwise co-linear over {identity} but diverge
    # under one-level contexts
    g = load_wcfg(FIXTURES / "chain.wcfg")
    table, alphabet = make_table(g, budget=Budget(100))
    table.add_subtree_closed(parse_structured_string("(a (a a))", alphabet))
    table.close()
    v = table.check_zero_consistency()
    assert v is not None
    table._add_column(v)
    table.close()
    violation = table.check_colinear_consistency()
    assert violation is not None
    # adding the context must break the witnessed co-linearity
    t1 = parse_structured_string("(a a)", alphabet)
    t2 = parse_structured_string("(a (a a))", alphabet)
    before = colinear_witness(table.rows[t1.text], table.rows[t2.text])
    table._add_column(violation)
    after = colinear_witness(table.rows[t1.text], table.rows[t2.text])
    assert before is not None and after is None


def test_consistency_checks_pass_on_exact_su_fixture():
    g = load_wcfg(FIXTURES / "colinearity3.wcfg")
    table, alphabet = make_table(g)
    extra = [parse_structured_string("(a (a a))", alphabet),
             parse_structured_string("((a a) (a a))", alphabet)]
    complete_with_leaves(table, alphabet, extra)
    assert table.check_zero_consistency() is None
    assert table.check_colinear_consistency() is None


def test_basis_rows_pairwise_independent():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    best = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", alphabet)
    complete_with_leaves(table, alphabet, [best])
    for i, b1 in enumerate(table.basis):
        for b2 in table.basis[i + 1:]:
            assert colinear_witness(table.rows[b1.text], table.rows[b2.text]) is None


def test_coefficient_product_property():
    """On a closed consistent table, a one-level row equals the product of its
    children's coefficients times the basis-representative row."""
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    best = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", alphabet)
    complete_with_leaves(table, alphabet, [best])
    checked = 0
    for t1 in table.trees:
        for t2 in table.trees:
            c1, c2 = table.classify(t1.text), table.classify(t2.text)
            if not c1 or not c2:
                continue
            node = Node((t1, t2))
            repr_node = Node((table.basis[c1[0][0]], table.basis[c2[0][0]]))
            lhs = table.rows[node.text]
            rhs = table.rows[repr_node.text]
            coeff = c1[0][1] * c2[0][1]
            assert lhs == [coeff * x for x in rhs]
            checked += 1
    assert checked > 10


def test_ratio_equality_for_colinear_siblings():
    """If the children of two one-level rows are co-linear slot by slot and the
    rows are non-zero, the row coefficient over the children-coefficient
    product is the same for both."""
    import itertools
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet,
                         [parse_structured_string("(a (a (a a)))", alphabet)])
    by_class = {}
    for t in table.trees:
        cls = table.classify(t.text)
        if cls:
            by_class.setdefault(cls[0][0], []).append((t, cls[0][1]))
    checked = 0
    classes = list(by_class.values())
    for left, right in itertools.product(classes, repeat=2):
        for (t1, a1), (t2, a2) in itertools.product(left, repeat=2):
            for (s1, b1), (s2, b2) in itertools.product(right, repeat=2):
                n1, n2 = Node((t1, s1)), Node((t2, s2))
                c1, c2 = table.classify(n1.text), table.classify(n2.text)
                if not c1 or not c2:
                    continue
                assert c1[0][0] == c2[0][0]
                assert c1[0][1] / (a1 * b1) == c2[0][1] / (a2 * b2)
                checked += 1
    assert checked > 0


def test_independence_monotone_under_column_addition():
    """A row co-linearly independent over a column subset stays independent
    when columns are added."""
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    best = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", alphabet)
    complete_with_leaves(table, alphabet, [best])
    ncols = len(table.columns)
    assert ncols > 2
    for prefix_len in range(1, ncols):
        for i, b1 in enumerate(table.basis):
            for b2 in table.basis[i + 1:]:
                r1 = table.rows[b1.text][:prefix_len]
                r2 = table.rows[b2.text][:prefix_len]
                if colinear_witness(r1, r2) is None:
                    assert colinear_witness(table.rows[b1.text], table.rows[b2.text]) is None


def test_classify_independent_row():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    table.add_subtree_closed(Leaf("a"))
    # before any closing, the two-leaf chain row is independent of the
    # (empty) basis
    two_chain = parse_structured_string("(a a)", alphabet)
    assert table.classify(two_chain.text) is None


def test_column_count_bounded_by_rank():
    for name in ("trivial.wcfg", "smalldup.wcfg", "acrab.wcfg", "colinearity3.wcfg"):
        g = load_wcfg(FIXTURES / name)
        table, alphabet = make_table(g)
        seeds = []
        if name == "acrab.wcfg":
            seeds = [parse_structured_string("(AcrR ((AcrA AcrB) TolC))", alphabet),
                     parse_structured_string("(TolC (AcrR (AcrA AcrB)))", alphabet)]
        complete_with_leaves(table, alphabet, seeds)
        assert len(table.columns) <= max(len(table.basis), 1), name


def test_unbounded_rank_exhausts_budget():
    g = load_wcfg(FIXTURES / "chain.wcfg")
    table, alphabet = make_table(g, budget=Budget(25))
    with pytest.raises(CapExceeded):
        complete_with_leaves(table, alphabet,
                             [parse_structured_string("(a (a (a (a a))))", alphabet)])


def test_smq_memoization_counts_distinct_queries():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    assert table.smq_count == len(table._smq_cache)
    assert all(type(key) is str for key in table._smq_cache)
    # every row cell corresponds to a cached composed tree, by its text
    for tree in table._order:
        for ctx, value in zip(table.columns, table.rows[tree.text]):
            assert table._smq_cache[compose(ctx, tree).text] == value


def test_dump_tsv_contains_rows_and_columns():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    dump = table.dump_tsv()
    assert "<>" in dump.splitlines()[0]
    assert any(line.startswith("a") for line in dump.splitlines()[1:])


def test_rows_are_leaves_and_one_level_extensions():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet, [parse_structured_string("(a (a a))", alphabet)])
    expected = {Leaf(tok) for tok in alphabet.leaf_symbols}
    for k in range(1, alphabet.max_rank + 1):
        expected.update(Node(combo) for combo in itertools.product(table.trees, repeat=k))
    assert set(table.rows) == {t.text for t in expected}


class _Values:
    """Oracle answering from a table of tree texts; other trees weigh 0.0."""

    def __init__(self, values):
        self.values = values

    def smq(self, tree, context=IDENTITY_CONTEXT):
        return self.values.get(compose(context, tree).text, 0.0)


def test_float_row_matching_two_basis_rows_raises_table_error():
    # the rows of a and b are co-linearly independent at tol = 1e-9, but the
    # row of c lies within tol of both
    alphabet = RankedAlphabet(["a", "b", "c"], 1)
    oracle = _Values({"a": 1.0, "b": 1.0, "c": 1.0,
                      "(a)": 0.0, "(b)": 1.5e-9, "(c)": 0.75e-9})
    table = ObservationTable(alphabet, oracle)
    table._add_column(parse_context("(<>)", alphabet))
    assert table.columns == [IDENTITY_CONTEXT, parse_context("(<>)", alphabet)]
    assert [table.rows[t] for t in "abc"] == [[1.0, 0.0], [1.0, 1.5e-9],
                                                   [1.0, 0.75e-9]]
    with pytest.raises(TableError, match="several basis rows"):
        table.close()
    assert table.basis == [Leaf("a"), Leaf("b")]


def pairwise_colinear_violation(table):
    """Reference co-linear check: every pair of rows in a class must keep the
    ratio of their coefficients under every one-level context."""
    groups = {}
    for t in table.trees:
        cls = table.classify(t.text)
        if cls:
            groups.setdefault(cls[0][0], []).append((t, cls[0][1]))
    one_level = sigma_contexts(table.trees, table.alphabet)
    for i in sorted(groups):
        for (t1, a1), (t2, a2) in itertools.combinations(groups[i], 2):
            for ctx in one_level:
                r1, r2 = table.rows[compose(ctx, t1).text], table.rows[compose(ctx, t2).text]
                for ci in range(len(table.columns)):
                    if not scalar_eq(r1[ci], a1 / a2 * r2[ci]):
                        return compose_contexts(table.columns[ci], ctx)
    return None


@pytest.fixture
def checked_against_reference(monkeypatch):
    """Make every co-linear check during a test also run the reference and
    agree with it on whether the table is consistent; the list records,
    per check, whether it found a violation."""
    found = []
    check = ObservationTable.check_colinear_consistency

    def both(table):
        got = check(table)
        assert (got is None) == (pairwise_colinear_violation(table) is None)
        found.append(got is not None)
        return got

    monkeypatch.setattr(ObservationTable, "check_colinear_consistency", both)
    return found


@pytest.mark.parametrize("name", ["acrab", "colinearity3", "smalldup", "trivial"])
def test_colinear_check_agrees_with_pairwise_reference(checked_against_reference, name):
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    alphabet = g.alphabet(2)
    learn(SimulatedTeacher(g, AllTreesStrategy(alphabet, 4)), alphabet)
    assert checked_against_reference


def chain_table(g, cap=30):
    """Complete a table over chain's leaf and the subtrees of its right
    chains of 2..7 a's until the cap ends it.  A learn adds T no
    counterexample subtrees, so T holds no non-basis tree to break
    consistency with; this table's T does."""
    table, alphabet = make_table(g, budget=Budget(cap))
    with pytest.raises(CapExceeded):
        complete_with_leaves(table, alphabet, [right_chain("a", n) for n in range(2, 8)])


def test_colinear_check_agrees_with_reference_on_chain(checked_against_reference):
    g = load_wcfg(FIXTURES / "chain.wcfg")
    alphabet = g.alphabet(2)
    with pytest.raises(CapExceeded):
        learn(SimulatedTeacher(g, AllTreesStrategy(alphabet, 4)), alphabet,
              max_iterations=30)
    chain_table(g)
    assert any(checked_against_reference)


def test_colinear_check_agrees_with_reference_on_random_cmtas(checked_against_reference):
    rng = random.Random(61)
    alphabet = RankedAlphabet(["a", "b"], 2)
    for _ in range(30):
        target = random_cmta(rng, alphabet, rng.randint(1, 3))
        report = learn(SimulatedTeacher(target, AllTreesStrategy(alphabet, 4)), alphabet)
        assert report.basis_size <= target.dim
    assert any(checked_against_reference)


@pytest.mark.parametrize("seed", range(4))
def test_insertion_order_does_not_change_trees_or_rows(seed):
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    trees = [parse_structured_string(text, alphabet) for text in
             ("(AcrR ((AcrA AcrB) TolC))", "(TolC (AcrR (AcrA AcrB)))",
              "((AcrB AcrA) (TolC TolC))", "(AcrR)")]
    trees = [sub for t in trees for sub in subtrees(t)]
    reference, _ = make_table(g)
    for t in sorted(trees, key=canonical_key):
        reference.add_subtree_closed(t)
    random.Random(seed).shuffle(trees)
    table, _ = make_table(g)
    for t in trees:
        table.add_subtree_closed(t)
    assert table.trees == reference.trees == sorted(set(trees), key=canonical_key)
    assert table.rows == reference.rows


def memberwise_colinear_violation(table):
    """Reference co-linear check, cell by cell: each member t of a class
    against its basis tree b, row(c∘t) == a_t · row(c∘b) in every column,
    for every one-level context c; returns the first separating context."""
    groups = {}
    for t in table.trees:
        cls = table.classify(t.text)
        if cls and t != table.basis[cls[0][0]]:
            groups.setdefault(cls[0][0], []).append((t, cls[0][1]))
    one_level = sigma_contexts(table.trees, table.alphabet)
    for i in sorted(groups):
        b = table.basis[i]
        for t, alpha in groups[i]:
            for ctx in one_level:
                row, basis_row = table.rows[compose(ctx, t).text], table.rows[compose(ctx, b).text]
                for ci, value in enumerate(row):
                    if not scalar_eq(value, alpha * basis_row[ci]):
                        return compose_contexts(table.columns[ci], ctx)
    return None


@pytest.fixture
def same_context_as_memberwise(monkeypatch):
    """Make every co-linear check during a test also run the member-wise
    reference and return the very same context, after extending its kept
    one-level contexts to exactly those the reference builds afresh; the
    list records, per check, whether it found a violation."""
    found = []
    check = ObservationTable.check_colinear_consistency

    def both(table):
        got, want = check(table), memberwise_colinear_violation(table)
        assert (got and got.text) == (want and want.text)
        assert [c.text for c in table._one_level] == \
            [c.text for c in sigma_contexts(table.trees, table.alphabet)]
        found.append(got is not None)
        return got

    monkeypatch.setattr(ObservationTable, "check_colinear_consistency", both)
    return found


@pytest.mark.parametrize("target", ["corpus", "acrab"])
def test_one_level_contexts_are_current_after_every_completion(monkeypatch, target):
    """T's one-level contexts are filed with its rows, so after every
    completion they are exactly those over T, in canonical order: on a
    scanned corpus (the learn-corpus job at seed 7, whose counterexamples'
    subtrees join T) and on an exact grammar, whose SEQ is exact."""
    complete, completions = ObservationTable.complete, []

    def checked(table, new_trees=()):
        complete(table, new_trees)
        assert [c.text for c in table._one_level] == \
            [c.text for c in sigma_contexts(table.trees, table.alphabet)]
        completions.append(len(table.trees))

    monkeypatch.setattr(ObservationTable, "complete", checked)
    if target == "corpus":
        entries = learn_corpus_entries(7)
        oracle = CorpusOracle(entries, Fraction(1, 5), "duplication")
        strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
        report = learn(SimulatedTeacher(oracle, strategy), oracle.alphabet())
        counts = (19, 10226, 4)
    else:
        g = load_wcfg(FIXTURES / "acrab.wcfg")
        report = learn(SimulatedTeacher(g), g.alphabet(2))
        counts = (13, 1916, 5)
    assert (report.basis_size, report.smq_count, report.seq_count) == counts
    assert len(completions) > report.seq_count


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_colinear_check_returns_memberwise_context_on_corpus(
        same_context_as_memberwise, seed, exact):
    # the learn-corpus benchmark's job, on that seed's renaming of its corpus
    entries = learn_corpus_entries(seed)
    corpus = [(t, f if exact else float(f)) for t, f in entries]
    oracle = CorpusOracle(corpus, Fraction(1, 5) if exact else 0.2, "duplication")
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    report = learn(SimulatedTeacher(oracle, strategy, 0 if exact else 1e-6),
                   oracle.alphabet())
    assert report.basis_size == 19
    assert any(same_context_as_memberwise)


@pytest.mark.parametrize("name", ["acrab", "colinearity3", "smalldup", "trivial"])
def test_colinear_check_returns_memberwise_context_on_grammars(
        same_context_as_memberwise, name):
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    alphabet = g.alphabet(2)
    learn(SimulatedTeacher(g, AllTreesStrategy(alphabet, 4)), alphabet)
    assert same_context_as_memberwise


def test_colinear_check_returns_memberwise_context_on_chain(same_context_as_memberwise):
    g = load_wcfg(FIXTURES / "chain.wcfg")
    alphabet = g.alphabet(2)
    with pytest.raises(CapExceeded):
        learn(SimulatedTeacher(g, AllTreesStrategy(alphabet, 4)), alphabet,
              max_iterations=30)
    chain_table(g)
    assert any(same_context_as_memberwise)


def test_colinear_check_returns_memberwise_context_on_random_cmtas(
        same_context_as_memberwise):
    rng = random.Random(61)
    alphabet = RankedAlphabet(["a", "b"], 2)
    for _ in range(30):
        target = random_cmta(rng, alphabet, rng.randint(1, 3))
        learn(SimulatedTeacher(target, AllTreesStrategy(alphabet, 4)), alphabet)
    assert any(same_context_as_memberwise)


# Two-column tables over unary trees, rows [f(t), f((t))]: c is co-linear
# to a with coefficient alpha, and (c), (a) are classified so that comparing
# classifications alone would wrongly pass; each expects the context that
# the member-wise reference returns.
_X, _ALPHA = 1e-3, 1e6
SHORTCUT_TRAPS = {
    # exact: (c) = 2s·row(b), (a) = s·row(a), so coefficients match, but
    # through different basis rows
    "other-basis-row": ({"a": 1, "(a)": 3, "((a))": 9, "b": 1, "(b)": 5, "((b))": 15,
                         "c": 2, "(c)": 6, "((c))": 30}, "((<>))"),
    # float: (a) and (c) are both zero within tolerance, but not exactly,
    # and alpha·row((a)) is far from zero
    "float-near-zero": ({"a": 1.0, "(a)": 0.0, "((a))": 1e-10,
                         "c": _ALPHA, "(c)": 0.0, "((c))": 0.0}, "((<>))"),
    # float: (a) is within the row tolerance of x·row(a), and (c) is
    # exactly alpha·x·row(a), but the cells disagree by more than theirs
    "float-cell-tolerance": ({"a": 1.0, "(a)": _X, "((a))": _X * _X + 5e-10,
                              "c": _ALPHA, "(c)": _ALPHA * _X,
                              "((c))": _ALPHA * _X * _X}, "((<>))"),
}


@pytest.mark.parametrize("case", sorted(SHORTCUT_TRAPS))
def test_colinear_check_does_not_trust_classifications_alone(case):
    values, expected = SHORTCUT_TRAPS[case]
    tokens = sorted({text.strip("()") for text in values})
    alphabet = RankedAlphabet(tokens, 1)
    table = ObservationTable(alphabet, SimpleNamespace(
        smq=lambda t, c=IDENTITY_CONTEXT: values[compose(c, t).text]))
    table._add_column(parse_context("(<>)", alphabet))
    table.close()
    table.add_subtree_closed(Leaf("c"))
    table.close()
    assert table.classify(Leaf("c").text)[0][0] == 0 and Leaf("c") not in table.basis
    want = memberwise_colinear_violation(table)
    assert want is not None and want.text == expected
    assert table.check_colinear_consistency().text == expected


@pytest.fixture
def classes_checked_on_every_column(monkeypatch):
    """After every column addition during a test, each class the table kept
    must equal a classification from scratch (coefficient type included),
    and the row order must be the sorted one; the list records, per column,
    how many zero and how many basis classes were kept."""
    kept = []
    add_column = ObservationTable._add_column

    def checked(table, ctx):
        add_column(table, ctx)
        for text, cls in table._classes.items():
            fresh = table._classify_fresh(text)
            assert cls == fresh, text
            assert [type(a) for _, a in cls] == [type(a) for _, a in fresh], text
        assert table._order == sorted(table._order, key=canonical_key)
        assert sorted(t.text for t in table._order) == sorted(table.rows)
        zeros = sum(cls == [] for cls in table._classes.values())
        kept.append((zeros, len(table._classes) - zeros))

    monkeypatch.setattr(ObservationTable, "_add_column", checked)
    return kept


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", ["acrab", "colinearity3", "smalldup"])
def test_kept_classes_match_fresh_on_grammars(classes_checked_on_every_column, name, exact):
    g = load_wcfg(FIXTURES / f"{name}.wcfg", exact)
    alphabet = g.alphabet(2)
    learn(SimulatedTeacher(g, AllTreesStrategy(alphabet, 4), 0 if exact else 1e-6), alphabet)
    assert classes_checked_on_every_column
    # a float basis class never stays
    assert any(basis for _, basis in classes_checked_on_every_column) == exact


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kept_classes_match_fresh_on_corpus(classes_checked_on_every_column, exact):
    entries = learn_corpus_entries(1)
    corpus = [(t, f if exact else float(f)) for t, f in entries]
    oracle = CorpusOracle(corpus, Fraction(1, 5) if exact else 0.2, "duplication")
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    learn(SimulatedTeacher(oracle, strategy, 0 if exact else 1e-6), oracle.alphabet())
    assert len(classes_checked_on_every_column) == 14
    assert any(zeros for zeros, _ in classes_checked_on_every_column)
    assert any(basis for _, basis in classes_checked_on_every_column) == exact


def test_kept_classes_match_fresh_on_random_cmtas(classes_checked_on_every_column):
    rng = random.Random(67)
    alphabet = RankedAlphabet(["a", "b"], 2)
    for _ in range(10):
        target = random_cmta(rng, alphabet, rng.randint(1, 3))
        learn(SimulatedTeacher(target, AllTreesStrategy(alphabet, 4)), alphabet)
    assert any(basis for _, basis in classes_checked_on_every_column)


def _closed_unary_table(values):
    """A closed one-column table over unary trees, answered from `values` by
    tree text (other trees weigh 0), before the column (<>) is added."""
    tokens = sorted({text.strip("()") for text in values})
    alphabet = RankedAlphabet(tokens, 1)
    table = ObservationTable(alphabet, SimpleNamespace(
        smq=lambda t, c=IDENTITY_CONTEXT: values.get(compose(c, t).text, 0)))
    table.close()
    return table, parse_context("(<>)", alphabet)


def test_zero_class_dropped_when_new_cell_is_not_zero():
    table, column = _closed_unary_table({"a": 1, "b": 0, "(b)": 2, "z": 0})
    assert table.classify(Leaf("b").text) == [] and table.classify(Leaf("z").text) == []
    table._add_column(column)
    assert "b" not in table._classes and "z" in table._classes
    assert table.classify(Leaf("b").text) is None
    table.close()
    assert table.basis == [Leaf("a"), Leaf("b")]


def test_basis_class_dropped_when_new_cell_breaks_the_ratio():
    values = {"a": 1, "c": 2, "d": 3, "(a)": 3, "(c)": 5, "(d)": 9, "((a))": 9,
              "((c))": 15}
    table, column = _closed_unary_table(values)
    assert table.basis == [Leaf("a")]
    kept = table.classify(Leaf("d").text)
    assert table.classify(Leaf("c").text) == [(0, 2)]
    table._add_column(column)
    assert table._classes["d"] is kept  # 9 == 3·3: the ratio holds
    assert "c" not in table._classes    # 5 != 2·3
    assert table.classify(Leaf("c").text) is None
    table.close()
    assert table.basis == [Leaf("a"), Leaf("c")]
    assert table.classify(Leaf("c").text) == [(1, 1)]


def test_float_basis_class_is_recomputed():
    values = {"a": 1.0, "c": 2.0, "(a)": 3.0, "(c)": 6.0}
    table, column = _closed_unary_table(values)
    assert table.classify(Leaf("c").text) == [(0, 2.0)]
    table._add_column(column)
    assert "c" not in table._classes and "a" not in table._classes
    cls = table.classify(Leaf("c").text)
    assert cls == [(0, 2.0)] and type(cls[0][1]) is float


def test_separating_context_needs_a_completed_table():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    with pytest.raises(TableError, match="must be closed and consistent"):
        table.separating_context(Leaf("AcrA"))


def test_separating_context_breaks_the_class_of_its_step():
    # acrab's first counterexample against the leaves-only table
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    z = parse_structured_string("(((AcrB AcrA) AcrR) TolC)", alphabet)
    assert extract_cmta(table).eval(z) != g.skeletal_weight(z)
    basis, trees = len(table.basis), list(table.trees)
    ctx = table.separating_context(z)
    assert ctx not in table.columns
    table.add_counterexample(z)
    assert ctx in table.columns and len(table.basis) > basis
    assert all(t in table.basis or t in trees for t in table.trees)  # T: leaves and basis


def test_separating_context_raises_when_the_table_weighs_the_tree_right():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    complete_with_leaves(table, alphabet)
    z = Leaf("AcrA")  # its row agrees with its basis tree's at the identity column
    with pytest.raises(TableError, match=re.escape(f"counterexample {z.text} calls for no new column")):
        table.separating_context(z)


def test_hypothesis_value_needs_a_completed_table():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    table, alphabet = make_table(g)
    with pytest.raises(TableError, match="must be closed and consistent"):
        table.hypothesis_value(Leaf("AcrA"))


def test_hypothesis_value_keeps_the_extracted_automatons_float_bits():
    # every row is co-linear to the leaf a's, with coefficients such as
    # 0.11/0.7, so a product taken in another order than the automaton's
    # (class coefficient, then the children's left to right) differs in
    # its last bits on thousands of these trees
    g = parse_wcfg("S -> S S [0.3]\nS -> S S S [0.13]\n"
                   "S -> a [0.7]\nS -> b [0.11]\nS -> c [0.37]\n", exact=False)
    table, alphabet = make_table(g, max_rank=3)
    table.complete()
    hypothesis = extract_cmta(table)
    for tree in full_trees(alphabet.leaf_symbols, 5, 3):
        value, expected = table.hypothesis_value(tree), hypothesis.eval(tree)
        assert value == expected and type(value) is type(expected), tree.text
