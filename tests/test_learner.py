import random
import re
from fractions import Fraction

import pytest

from skelgram.extract import extract_cmta
from skelgram.geneclusters import SubstringFrequencyWeight, parse_gene_string, right_chain
from skelgram.grammar import load_wcfg, pmta_to_wcfg, wcfg_to_pcfg
from skelgram.learner import default_iteration_cap, learn
from skelgram.mta import EvaluationError
from skelgram.scalars import scalar_eq
from skelgram.table import CapExceeded, ObservationTable, TableError
from skelgram.teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                              ExhaustiveStrategy, SimulatedTeacher)
from skelgram.trees import (IDENTITY_CONTEXT, Leaf, Node, compose, full_trees,
                            parse_structured_string)

from conftest import FIXTURES, learn_corpus_entries, observing_rounds, random_tree


def learn_fixture(name, max_leaves=4):
    g = load_wcfg(FIXTURES / name)
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, max_leaves))
    report = learn(teacher, alphabet)
    return g, alphabet, report


def test_trivial_target():
    g, alphabet, report = learn_fixture("trivial.wcfg", max_leaves=3)
    assert report.basis_size == 1
    assert report.seq_count == 1
    h = report.hypothesis
    assert h.eval(Leaf("a")) == 1
    rng = random.Random(51)
    for _ in range(20):
        t = random_tree(rng, alphabet, 4)
        if t != Leaf("a"):
            assert h.eval(t) == 0


def test_duplication_toy_closed_form():
    g, alphabet, report = learn_fixture("smalldup.wcfg")
    h = report.hypothesis
    for n in range(2, 9):
        assert h.eval(right_chain("a", n)) == Fraction(8, 10) * Fraction(2, 10) ** (n - 2)


def test_learned_series_matches_teacher_everywhere_sampled():
    g, alphabet, report = learn_fixture("smalldup.wcfg")
    h = report.hypothesis
    rng = random.Random(52)
    for _ in range(100):
        t = random_tree(rng, alphabet, 5)
        assert h.eval(t) == g.skeletal_weight(t)


def test_seq_count_bounded_by_basis_size():
    for name in ("trivial.wcfg", "smalldup.wcfg", "colinearity3.wcfg"):
        _, _, report = learn_fixture(name)
        assert report.seq_count <= report.basis_size


def test_colinearity_fixture_rank():
    g, alphabet, report = learn_fixture("colinearity3.wcfg", max_leaves=4)
    # directions: S, Y, and the leaf; X's trees coincide with the bare leaf
    assert report.basis_size == 3
    assert report.seq_count <= 3
    best = parse_structured_string("(a (a a))", alphabet)
    assert report.hypothesis.eval(best) == Fraction(1, 2)


@pytest.fixture(scope="module")
def acrab_learned():
    sizes = []

    def observer(table, hypothesis):
        sizes.append(len(table.basis))

    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 5))
    with observing_rounds(observer):
        report = learn(teacher, alphabet)
    return g, alphabet, report, sizes


def test_basis_grows_strictly_between_equivalence_queries(acrab_learned):
    _, _, _, sizes = acrab_learned
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_learned_series_correct_beyond_training_horizon(acrab_learned):
    # equivalence queries only checked trees of <= 5 leaves; the recovered
    # automaton must still match the target on bigger trees
    g, alphabet, report, _ = acrab_learned
    rng = random.Random(53)
    tokens = alphabet.leaf_symbols
    from conftest import random_binary_tree
    checked_nonzero = 0
    for _ in range(300):
        t = random_binary_tree(rng, tokens, 7)
        expected = g.skeletal_weight(t)
        assert report.hypothesis.eval(t) == expected
        checked_nonzero += expected != 0
    # make sure a few positive-weight trees were among the samples
    best = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", alphabet)
    assert report.hypothesis.eval(best) == Fraction(456, 1000)


def test_iteration_cap_raises_on_unbounded_rank():
    g = load_wcfg(FIXTURES / "chain.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 6))
    with pytest.raises(CapExceeded):
        learn(teacher, alphabet, max_iterations=40)


# The counterexamples SEQ returns on acrab, each the exact equivalence
# check's witness, with the target's weight for each, in the order asked.
ACRAB_COUNTEREXAMPLES = [
    ("(((AcrB AcrA) AcrR) TolC)", Fraction(17, 12500)),
    ("(((AcrB AcrA) TolC) AcrR)", Fraction(7, 250)),
    ("(AcrR ((AcrB AcrA) TolC))", Fraction(1, 250)),
    ("(((TolC AcrB) AcrA) AcrR)", Fraction(247, 1000000)),
]


def test_acrab_counts_and_counterexamples_are_pinned():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g)
    answers = []
    seq = teacher.seq

    def recording_seq(hypothesis):
        answer = seq(hypothesis)
        answers.append(answer and (answer[0].text, answer[1]))
        return answer

    teacher.seq = recording_seq
    report = learn(teacher, alphabet)
    assert (report.basis_size, report.seq_count, report.smq_count) == (13, 5, 1916)
    assert answers == ACRAB_COUNTEREXAMPLES + [None]


def test_report_carries_the_final_table():
    tables = []
    with observing_rounds(lambda table, hypothesis: tables.append(table)):
        g, alphabet, report = learn_fixture("smalldup.wcfg")
    assert report.table is tables[-1]
    assert len(report.table.basis) == report.basis_size
    assert report.table.smq_count == report.smq_count


def test_default_cap_formula():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    assert default_iteration_cap(g.alphabet(2)) == 10 * 4 + 1000


class RecordingOracle:
    """Passes both queries on to a teacher and records every SMQ it is
    asked, as (composed tree, answer)."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.asked = []

    def smq(self, tree, context=IDENTITY_CONTEXT):
        value = self.teacher.smq(tree, context)
        self.asked.append((compose(context, tree), value))
        return value

    def seq(self, hypothesis):
        return self.teacher.seq(hypothesis)

    def exact_automaton(self, alphabet):
        return self.teacher.exact_automaton(alphabet)


def test_final_hypothesis_agrees_with_every_query_asked():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 4))
    oracle = RecordingOracle(teacher)
    report = learn(oracle, alphabet)
    assert len(oracle.asked) == report.smq_count > 0
    for tree, value in oracle.asked:
        assert report.hypothesis.eval(tree) == value
    # and every equivalence candidate, each of which some SEQ may have weighed
    for tree in teacher.strategy.candidates():
        assert report.hypothesis.eval(tree) == g.skeletal_weight(tree)


@pytest.mark.parametrize("target", ["acrab", "corpus"])
def test_each_distinct_tree_is_queried_once(target):
    if target == "corpus":
        entries = learn_corpus_entries(0)
        oracle = CorpusOracle(entries, Fraction(1, 5), "duplication")
        teacher = SimulatedTeacher(oracle, DuplicationsStrategy(
            [t for t, _ in entries], max_dup=1))
        alphabet = oracle.alphabet()
    else:
        g = load_wcfg(FIXTURES / "acrab.wcfg")
        alphabet = g.alphabet(2)
        teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 5))
    recorder = RecordingOracle(teacher)
    report = learn(recorder, alphabet)
    texts = [tree.text for tree, _ in recorder.asked]
    assert len(set(texts)) == len(texts) == report.smq_count > 0


def test_float_backend_learning():
    from skelgram.grammar import WCFG
    g = WCFG(["N"], ["a"], {("N", ("a", "N")): 0.25, ("N", ("a", "a")): 0.5})
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 4), epsilon=1e-9)
    report = learn(teacher, alphabet)
    assert report.basis_size == 2
    for n in range(2, 8):
        got = report.hypothesis.eval(right_chain("a", n))
        assert abs(got - 0.5 * 0.25 ** (n - 2)) < 1e-9


def test_float_target_learns_with_default_call():
    # the arithmetic comes from the oracle's float answers, not from a flag
    g = load_wcfg(FIXTURES / "acrab.wcfg", exact=False)
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 4), epsilon=1e-6)
    report = learn(teacher, alphabet)
    assert report.basis_size == 13
    assert report.seq_count == 5


def test_float_corpus_learning():
    from skelgram.teacher import CorpusOracle
    corpus = [(right_chain("x", 3), 3.0), (right_chain("x", 2), 1.0)]
    oracle = CorpusOracle(corpus, 0.2, "duplication")
    alphabet = oracle.alphabet()
    teacher = SimulatedTeacher(oracle, AllTreesStrategy(alphabet, 4), epsilon=1e-6)
    report = learn(teacher, alphabet, max_iterations=500)
    for n in range(1, 6):
        got = report.hypothesis.eval(right_chain("x", n))
        assert abs(got - oracle.smq(right_chain("x", n))) < 1e-6


def test_learn_with_exhaustive_string_strategy():
    # the string-based strategy checks one optimal parse per string; on the
    # single-token toy that is enough to recover the series
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, ExhaustiveStrategy(alphabet, 4))
    report = learn(teacher, alphabet)
    h = report.hypothesis
    for n in range(2, 7):
        assert h.eval(right_chain("a", n)) == Fraction(8, 10) * Fraction(2, 10) ** (n - 2)


# -- counterexample processing -------------------------------------------------


class MisreportingTeacher:
    """Answers membership queries from a grammar, and every equivalence query
    with the first tree of at most 3 leaves that the hypothesis weighs as
    the grammar does, at the grammar's weight plus one."""

    def __init__(self, grammar, alphabet):
        self.grammar = grammar
        self.candidates = list(AllTreesStrategy(alphabet, 3).candidates())
        self.answers = []

    def smq(self, tree, context=IDENTITY_CONTEXT):
        return self.grammar.skeletal_weight(tree, context)

    def seq(self, hypothesis):
        tree = next(t for t in self.candidates
                    if hypothesis.eval(t) == self.grammar.skeletal_weight(t))
        self.answers.append(tree)
        return tree, self.grammar.skeletal_weight(tree) + 1

    def exact_automaton(self, alphabet):
        return None


def test_counterexample_the_table_contradicts_raises_table_error():
    # the table's cells weigh the tree as the hypothesis does, so no step of
    # its walk separates
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    teacher = MisreportingTeacher(g, alphabet)
    with pytest.raises(TableError) as caught:
        learn(teacher, alphabet)
    assert len(teacher.answers) == 1
    assert re.search(re.escape(f"counterexample {teacher.answers[0].text} "), str(caught.value))


@pytest.mark.parametrize("name", ["trivial", "smalldup", "colinearity3", "acrab", "fimacd"])
def test_exact_fixtures_keep_t_to_the_basis(name):
    # an exact equivalence query needs only the separating columns
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    alphabet = g.alphabet(2)
    report = learn(SimulatedTeacher(g), alphabet)
    assert len(report.table.trees) == report.basis_size
    assert SimulatedTeacher(g).seq(report.hypothesis) is None


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("seed", [1, 2, 5, 7])
def test_learn_corpus_counts_are_pinned(seed, exact):
    entries = learn_corpus_entries(seed)
    corpus = [(t, f if exact else float(f)) for t, f in entries]
    oracle = CorpusOracle(corpus, Fraction(1, 5) if exact else 0.2, "duplication")
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    report = learn(SimulatedTeacher(oracle, strategy, 0 if exact else 1e-6),
                   oracle.alphabet())
    assert (report.basis_size, report.seq_count, report.smq_count) == (19, 4, 10226)
    assert len(report.table.trees) == 26 and len(report.table.rows) == 706


def random_gene_corpus(strings, length, seed):
    """`strings` random gene strings of `length` genes over four genes, each
    parsed to its optimal tree and weighted 1 to 5."""
    rng = random.Random(1000 * strings + seed)
    genes = [tuple(rng.choice(["gA", "gB", "gC", "gD"]) for _ in range(length))
             for _ in range(strings)]
    weight = SubstringFrequencyWeight(genes)
    return [(parse_gene_string(s, weight)[0], Fraction(rng.randint(1, 5))) for s in genes]


def swap_variants(tree):
    """Every tree that reverses the children of some set of tree's nodes."""
    if isinstance(tree, Leaf):
        return [tree]
    left, right = (swap_variants(c) for c in tree.children)
    return [Node(kids) for a in left for b in right for kids in ([a, b], [b, a])]


@pytest.mark.parametrize("strings, length, seed, states", [
    (3, 5, 1, 13), (3, 5, 2, 13), (4, 6, 0, 17), (6, 9, 1, 34), (6, 9, 2, 34)])
def test_scanned_swap_corpus_weighs_every_swap_variant_right(strings, length, seed, states):
    """A duplications scan never holds a swap variant of a corpus tree, so
    the scan alone cannot show the states that tell them apart; the rows
    over the counterexamples' subtrees do."""
    entries = random_gene_corpus(strings, length, seed)
    oracle = CorpusOracle(entries, Fraction(1, 5), "swap")
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    report = learn(SimulatedTeacher(oracle, strategy), oracle.alphabet())
    assert report.basis_size == states
    for entry, _ in entries:
        for tree in swap_variants(entry):
            assert report.hypothesis.eval(tree) == oracle.smq(tree), tree.text


def test_float_exhaustive_scan_learns_all_of_acrab():
    # one optimal parse per string of at most 4 genes; the learned automaton
    # is the target's on every tree of at most 5 leaves, not only on those
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    floats = load_wcfg(FIXTURES / "acrab.wcfg", exact=False)
    alphabet = floats.alphabet(2)
    report = learn(SimulatedTeacher(floats, ExhaustiveStrategy(alphabet, 4), 1e-6), alphabet)
    assert report.basis_size == 13
    target = g.automaton(2)
    for tree in full_trees(alphabet.leaf_symbols, 5):
        assert abs(report.hypothesis.eval(tree) - float(target.eval(tree))) < 1e-9, tree.text


def learn_runs():
    """(id, teacher, alphabet) for the learns whose intermediate tables
    `test_every_table_built_for_a_counterexample_weighs_as_its_hypothesis`
    checks."""
    runs = []
    for name in ("acrab", "fimacd", "colinearity3"):
        g = load_wcfg(FIXTURES / f"{name}.wcfg")
        runs.append((name, SimulatedTeacher(g), g.alphabet(2)))
    floats = load_wcfg(FIXTURES / "acrab.wcfg", exact=False)
    alphabet = floats.alphabet(2)
    runs.append(("acrab-float-exhaustive",
                 SimulatedTeacher(floats, ExhaustiveStrategy(alphabet, 4), 1e-6), alphabet))
    entries = learn_corpus_entries(7)
    oracle = CorpusOracle(entries, Fraction(1, 5), "duplication")
    runs.append(("learn-corpus-7", SimulatedTeacher(
        oracle, DuplicationsStrategy([t for t, _ in entries], max_dup=1)), oracle.alphabet()))
    return runs


@pytest.mark.parametrize("run", learn_runs(), ids=lambda run: run[0])
def test_every_table_built_for_a_counterexample_weighs_as_its_hypothesis(run, monkeypatch):
    """`learn` extracts one hypothesis per equivalence query and reads the
    values it needs in between off the table.  Every table it builds while
    processing a counterexample is extracted here: the automaton maps each
    basis tree to its unit vector, agrees with every row at the identity
    column, and weighs the counterexample and every tree of at most 5
    leaves as `hypothesis_value` does, bit for bit in floats.  Float rows
    agree with it at the identity column within the table's tolerance."""
    _, teacher, alphabet = run
    trees = list(full_trees(alphabet.leaf_symbols, 5))
    add = ObservationTable.add_counterexample
    checked = []

    def add_and_check(table, counterexample):
        add(table, counterexample)
        hypothesis = extract_cmta(table)
        d = len(table.basis)
        for i, b in enumerate(table.basis):
            assert hypothesis.eval_vector(b) == [int(i == j) for j in range(d)]
        for tree in table._order:
            assert scalar_eq(hypothesis.eval(tree), table.rows[tree.text][0]), tree.text
        for tree in [counterexample, *trees]:
            value, expected = table.hypothesis_value(tree), hypothesis.eval(tree)
            assert value == expected and type(value) is type(expected), tree.text
        checked.append(d)

    monkeypatch.setattr(ObservationTable, "add_counterexample", add_and_check)
    learn(teacher, alphabet)
    assert checked


def test_hypothesis_value_raises_what_the_hypothesis_raises():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    report = learn(SimulatedTeacher(g), alphabet)
    a, unknown = Leaf("AcrA"), Leaf("Zzz")
    ternary = Node([a, a, a])
    for tree in (unknown, ternary, Node([ternary, unknown]), Node([unknown, ternary]),
                 Node([a, Node([unknown, a])])):
        with pytest.raises(EvaluationError) as expected:
            report.hypothesis.eval(tree)
        with pytest.raises(EvaluationError) as caught:
            report.table.hypothesis_value(tree)
        assert str(caught.value) == str(expected.value), tree.text
