import itertools
import random
from fractions import Fraction

import pytest

from skelgram.equivalence import difference_witness
from skelgram.geneclusters import INF, right_chain, right_chain_shape
from skelgram.grammar import load_wcfg, parse_wcfg, wcfg_to_pmta
from skelgram.learner import learn
from skelgram.mta import MTA
from skelgram.teacher import (AllTreesStrategy, CorpusOracle,
                              DuplicationsStrategy, ExhaustiveStrategy,
                              SamplingStrategy, SimulatedTeacher,
                              duplication_key, load_corpus, swap_key)
from skelgram.trees import (Leaf, Node, RankedAlphabet, enumerate_full_trees,
                            parse_structured_string, tree_yield)

from conftest import (FIXTURES, brute_force_weight, learn_corpus_entries,
                      random_binary_tree, random_cmta,
                      reference_duplication_distance, reference_swap_distance)


@pytest.fixture(scope="module")
def acrab():
    return load_wcfg(FIXTURES / "acrab.wcfg")


class CountingStrategy:
    """Passes a strategy's candidates through, counting the calls."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.calls = 0

    def candidates(self):
        self.calls += 1
        return self.strategy.candidates()


def test_smq_most_probable_tree(acrab):
    teacher = SimulatedTeacher(acrab)
    t = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", acrab.alphabet())
    assert teacher.smq(t) == Fraction(456, 1000)


def test_smq_unknown_structure_is_zero(acrab):
    teacher = SimulatedTeacher(acrab)
    t = parse_structured_string("(AcrR AcrR)", acrab.alphabet())
    assert teacher.smq(t) == 0


def test_smq_chain_grammar_values():
    g = load_wcfg(FIXTURES / "chain.wcfg")
    teacher = SimulatedTeacher(g)
    assert teacher.smq(right_chain("a", 2)) == Fraction(1, 6)
    assert teacher.smq(right_chain("a", 3)) == Fraction(1, 4)


def test_chain_recurrence_against_tagging_enumeration():
    """Three-term recurrence of the right-chain series, verified against the
    brute-force tagging oracle."""
    g = load_wcfg(FIXTURES / "chain.wcfg")
    teacher = SimulatedTeacher(g)
    values = {n: teacher.smq(right_chain("a", n)) for n in range(2, 13)}
    for n in range(2, 9):  # enumeration is exponential; check the small ones
        assert values[n] == brute_force_weight(g, right_chain("a", n))
    for n in range(4, 13):
        assert values[n] == Fraction(3, 4) * values[n - 1] - Fraction(1, 24) * values[n - 2]


def test_seq_accepts_exact_copy(acrab):
    target = wcfg_to_pmta(acrab)
    alphabet = target.alphabet
    teacher = SimulatedTeacher(acrab, AllTreesStrategy(alphabet, 4))
    assert teacher.seq(target) is None


def test_seq_counterexample_against_zero_hypothesis(acrab):
    alphabet = acrab.alphabet()
    teacher = SimulatedTeacher(acrab, ExhaustiveStrategy(alphabet, 4))
    zero = MTA.zero(alphabet)
    answer = teacher.seq(zero)
    assert answer is not None
    tree, value = answer
    assert value > 0
    assert value == acrab.skeletal_weight(tree)


def test_smq_with_automaton_target(acrab):
    automaton = wcfg_to_pmta(acrab)
    teacher = SimulatedTeacher(automaton)
    t = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", acrab.alphabet())
    assert teacher.smq(t) == Fraction(456, 1000)


def test_seq_counterexample_breaks_margin(acrab):
    alphabet = acrab.alphabet()
    epsilon = Fraction(1, 100)
    teacher = SimulatedTeacher(acrab, AllTreesStrategy(alphabet, 4), epsilon)
    answer = teacher.seq(MTA.zero(alphabet))
    assert answer is not None
    tree, value = answer
    assert abs(MTA.zero(alphabet).eval(tree) - value) > epsilon
    assert value == acrab.skeletal_weight(tree)


def test_corpus_smq_stays_in_unit_interval():
    import random as _random
    from conftest import random_binary_tree
    rng = _random.Random(77)
    for _ in range(20):
        entries = [(random_binary_tree(rng, ["a", "b"], 4),
                    Fraction(rng.randint(1, 5))) for _ in range(3)]
        oracle = CorpusOracle(entries, Fraction(1, 5))
        for _ in range(20):
            value = oracle.smq(random_binary_tree(rng, ["a", "b"], 5))
            assert 0 <= value <= 1


def test_strategy_is_enumerated_once_per_teacher():
    floats = load_wcfg(FIXTURES / "acrab.wcfg", exact=False)  # scanned
    alphabet = floats.alphabet(2)
    strategy = CountingStrategy(AllTreesStrategy(alphabet, 4))
    teacher = SimulatedTeacher(floats, strategy, 1e-6)
    report = learn(teacher, alphabet)
    assert report.seq_count == 5
    # the last SEQ scanned every candidate, drawn from that one enumeration
    assert strategy.calls == 1
    assert [t for t, _ in teacher.scanned] == list(AllTreesStrategy(alphabet, 4).candidates())


@pytest.mark.parametrize("target", ["acrab", "corpus"])
def test_seq_weighs_each_scanned_tree_once_per_teacher(monkeypatch, target):
    """The scan keeps the target weight of every tree it has weighed, so
    over a whole learn the target's evaluator sees each scanned tree once."""
    if target == "corpus":
        entries = learn_corpus_entries(2)
        oracle = CorpusOracle(entries, Fraction(1, 5), "duplication")
        evaluator, owner, alphabet = "smq", oracle, oracle.alphabet()
        strategy = DuplicationsStrategy([t for t, _ in entries], 1)
    else:  # float acrab: an exact grammar is answered without a scan
        owner = load_wcfg(FIXTURES / "acrab.wcfg", exact=False)
        evaluator, alphabet = "skeletal_weight", owner.alphabet(2)
        strategy = AllTreesStrategy(alphabet, 5)
    weighed, scanning = [], []
    evaluate, seq = getattr(owner, evaluator), SimulatedTeacher.seq

    def counted(tree, *args):
        if scanning:
            weighed.append(tree.text)
        return evaluate(tree, *args)

    def scan(self, hypothesis):
        scanning.append(True)
        try:
            return seq(self, hypothesis)
        finally:
            scanning.pop()

    monkeypatch.setattr(owner, evaluator, counted)  # the teacher picks it up
    monkeypatch.setattr(SimulatedTeacher, "seq", scan)
    teacher = SimulatedTeacher(owner, strategy, 0 if target == "corpus" else 1e-6)
    report = learn(teacher, alphabet)
    assert report.seq_count >= 4
    # each tree seq scans was weighed once, in scan order (a corpus target's
    # own trees follow the candidates, and may repeat one), and kept
    assert weighed == [t.text for t, _ in teacher.scanned] and len(weighed) > 200
    assert all(weight == evaluate(t) for t, weight in teacher.scanned)


class Hypothesis:
    """A hypothesis answering eval by a function."""

    def __init__(self, alphabet, weigh):
        self.alphabet, self.eval = alphabet, weigh


def test_seq_compares_exact_values_exactly_and_floats_by_margin():
    # corpus targets are scanned, with exact or float frequencies
    alphabet = RankedAlphabet(["a", "b"], 2)
    texts = (("a", 1), ("(a b)", 3))
    oracle = CorpusOracle([(parse_structured_string(text, alphabet), Fraction(freq))
                           for text, freq in texts], Fraction(1, 5))
    tree = next(iter(AllTreesStrategy(alphabet, 2).candidates()))
    truth = oracle.smq(tree)
    off = Hypothesis(alphabet, lambda t: oracle.smq(t) + Fraction(1, 10 ** 30) * (t == tree))
    assert SimulatedTeacher(oracle, AllTreesStrategy(alphabet, 2)).seq(off) == (tree, truth)
    same = Hypothesis(alphabet, oracle.smq)
    assert SimulatedTeacher(oracle, AllTreesStrategy(alphabet, 2)).seq(same) is None
    floats = CorpusOracle([(parse_structured_string(text, alphabet), float(freq))
                           for text, freq in texts], 0.2)
    near = Hypothesis(alphabet, lambda t: floats.smq(t) + 1e-12 * (t == tree))
    assert SimulatedTeacher(floats, AllTreesStrategy(alphabet, 2), 1e-9).seq(near) is None
    assert SimulatedTeacher(floats, AllTreesStrategy(alphabet, 2)).seq(near)[0] == tree
    # NaN is never more than a margin away, as abs(got - truth) > epsilon reads
    nan = Hypothesis(alphabet, lambda t: float("nan"))
    assert SimulatedTeacher(floats, AllTreesStrategy(alphabet, 2)).seq(nan) is None
    assert SimulatedTeacher(oracle, AllTreesStrategy(alphabet, 2)).seq(nan) is None


def test_exact_automaton_is_read_off_the_target():
    # a float target, a non-zero margin or a corpus leaves the scan; a rule
    # longer than the rank is left out of the automaton
    exact = load_wcfg(FIXTURES / "smalldup.wcfg")
    alphabet = exact.alphabet(2)
    floats = load_wcfg(FIXTURES / "smalldup.wcfg", exact=False)
    assert SimulatedTeacher(floats).exact_automaton(alphabet) is None
    assert SimulatedTeacher(exact, epsilon=1e-9).exact_automaton(alphabet) is None
    assert SimulatedTeacher(exact).exact_automaton(alphabet) is exact.automaton(2)
    assert SimulatedTeacher(exact, epsilon=-0.0).exact_automaton(alphabet) is exact.automaton(2)
    assert SimulatedTeacher(exact).exact_automaton(exact.alphabet(3)) is exact.automaton(3)
    assert SimulatedTeacher(exact).exact_automaton(RankedAlphabet(["b"], 2)) is None
    ternary = parse_wcfg("S -> a a a [1]\n")
    teacher = SimulatedTeacher(ternary)
    fitting = teacher.exact_automaton(ternary.alphabet(2))
    assert fitting is teacher.exact_automaton(ternary.alphabet(2))  # built once
    assert difference_witness(fitting, MTA.zero(ternary.alphabet(2))) is None
    assert teacher.exact_automaton(ternary.alphabet(3)) is ternary.automaton(3)
    automaton = wcfg_to_pmta(exact)
    assert SimulatedTeacher(automaton).exact_automaton(alphabet) is automaton
    oracle = CorpusOracle(learn_corpus_entries(1), Fraction(1, 5))
    assert SimulatedTeacher(oracle).exact_automaton(oracle.alphabet()) is None


@pytest.mark.parametrize("epsilon", [-1, -1e-9, float("nan")])
def test_negative_or_nan_margin_is_rejected(acrab, epsilon):
    # under a negative margin every candidate is a counterexample the table
    # already weighs right; under NaN none is one
    with pytest.raises(ValueError, match=r"teacher margin epsilon must be >= 0, got"):
        SimulatedTeacher(acrab, epsilon=epsilon)


class RefusingStrategy:
    def candidates(self):
        raise AssertionError("an exact target needs no candidates")


@pytest.mark.parametrize("name", ["acrab", "colinearity3", "smalldup", "trivial", "fimacd"])
def test_exact_seq_learns_the_target_without_candidates(name):
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    alphabet = g.alphabet(2)
    report = learn(SimulatedTeacher(g, RefusingStrategy()), alphabet)
    assert difference_witness(report.hypothesis, g.automaton(2)) is None


def test_exact_seq_ignores_rules_longer_than_the_rank():
    # no tree of rank 2 uses the ternary rule, so the exact SEQ learns
    # acrab's series with acrab's queries instead of scanning candidates
    text = (FIXTURES / "acrab.wcfg").read_text() + "S -> AcrR AcrR AcrR [1/10]\n"
    g = parse_wcfg(text)
    report = learn(SimulatedTeacher(g, RefusingStrategy()), g.alphabet(2))
    assert (report.basis_size, report.smq_count, report.seq_count) == (13, 1916, 5)
    acrab = load_wcfg(FIXTURES / "acrab.wcfg")
    assert difference_witness(report.hypothesis, acrab.automaton(2)) is None


@pytest.mark.parametrize("seed", range(10))
def test_exact_seq_learns_random_cmtas(seed):
    rng = random.Random(seed)
    alphabet = RankedAlphabet(["a", "b"], 2)
    target = random_cmta(rng, alphabet, rng.randint(3, 5))
    report = learn(SimulatedTeacher(target, RefusingStrategy()), alphabet)
    assert difference_witness(report.hypothesis, target) is None
    assert report.basis_size <= target.dim


def test_exact_seq_without_a_strategy():
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g)
    tree, value = teacher.seq(MTA.zero(alphabet))
    assert value == g.skeletal_weight(tree) != 0
    report = learn(teacher, alphabet)
    assert teacher.seq(report.hypothesis) is None
    with pytest.raises(ValueError, match="no equivalence strategy"):
        SimulatedTeacher(g, epsilon=1e-9).seq(MTA.zero(alphabet))


def test_seq_respects_epsilon():
    g = load_wcfg(FIXTURES / "trivial.wcfg")
    alphabet = g.alphabet(2)
    teacher = SimulatedTeacher(g, AllTreesStrategy(alphabet, 2), epsilon=2)
    # everything is within margin 2 of the zero automaton
    assert teacher.seq(MTA.zero(alphabet)) is None


def test_exhaustive_candidates_counts():
    ab1 = RankedAlphabet(["a", "b"], 2)
    assert len(list(ExhaustiveStrategy(ab1, 1).candidates())) == 2
    got = list(ExhaustiveStrategy(ab1, 2).candidates())
    assert len(got) == 6  # 2 strings of length 1 + 4 of length 2
    for t in got:
        assert 1 <= len(tree_yield(t)) <= 2


def test_exhaustive_candidate_yields_match_strings():
    ab = RankedAlphabet(["a", "b"], 2)
    yields = [tree_yield(t) for t in ExhaustiveStrategy(ab, 3).candidates()]
    expected = [tup for L in (1, 2, 3) for tup in itertools.product(("a", "b"), repeat=L)]
    assert yields == expected


def test_sampling_candidates_deterministic():
    ab = RankedAlphabet(["a", "b", "c"], 2)
    s1 = [t.text for t in SamplingStrategy(ab, 20, 4, seed=9).candidates()]
    s2 = [t.text for t in SamplingStrategy(ab, 20, 4, seed=9).candidates()]
    s3 = [t.text for t in SamplingStrategy(ab, 20, 4, seed=10).candidates()]
    assert s1 == s2
    assert s1 != s3
    assert SamplingStrategy(ab, 0, 4, seed=9).candidates() is not None
    assert list(SamplingStrategy(ab, 0, 4, seed=9).candidates()) == []
    for t in SamplingStrategy(ab, 50, 4, seed=11).candidates():
        assert 1 <= len(tree_yield(t)) <= 4


def test_sampling_is_uniform_over_lengths():
    ab = RankedAlphabet(["a"], 2)
    # single token: lengths 1..3 have 1 string each; roughly uniform counts
    lengths = [len(tree_yield(t)) for t in SamplingStrategy(ab, 600, 3, seed=1).candidates()]
    for L in (1, 2, 3):
        assert 150 < lengths.count(L) < 250


def test_duplications_candidate_count():
    ab = RankedAlphabet(["FimA", "FimC"], 2)
    base = parse_structured_string("(FimA (FimA FimC))", ab)
    strat = DuplicationsStrategy([base], max_dup=2)
    got = list(strat.candidates())
    assert len(got) == 3 ** 3  # (d+1) choices per leaf
    assert len(set(got)) == len(got)
    assert base in got


def test_duplications_expand_leaves_to_chains():
    ab = RankedAlphabet(["x", "y"], 2)
    base = parse_structured_string("(x y)", ab)
    got = {t.text for t in DuplicationsStrategy([base], 1).candidates()}
    assert got == {"(x y)", "((x x) y)", "(x (y y))", "((x x) (y y))"}


def test_duplications_of_a_deep_base_tree():
    base = right_chain("a", 2000)
    assert list(DuplicationsStrategy([base], max_dup=0).candidates()) == [base]


def test_duplication_variants_keep_product_order():
    def variants(tree, max_dup):
        if isinstance(tree, Leaf):
            return [right_chain(tree.token, 1 + extra) for extra in range(max_dup + 1)]
        pools = [variants(c, max_dup) for c in tree.children]
        return [Node(combo) for combo in itertools.product(*pools)]

    ab = RankedAlphabet(["x", "y", "z"], 3)
    for text in ["x", "(x y)", "((x y) z)", "(x (y z) x)", "((x) (y z))"]:
        base = parse_structured_string(text, ab)
        for max_dup in (0, 1, 2):
            got = DuplicationsStrategy([base], max_dup)._variants(base)
            assert got == variants(base, max_dup), (text, max_dup)


def test_corpus_smq_exact_match():
    ab = RankedAlphabet(["a", "b"], 2)
    t = parse_structured_string("(a b)", ab)
    oracle = CorpusOracle([(t, Fraction(3))], Fraction(1, 5))
    assert oracle.smq(t) == 1


def test_corpus_smq_distance_one():
    t3 = right_chain("a", 3)
    t4 = right_chain("a", 4)
    oracle = CorpusOracle([(t3, Fraction(1))], Fraction(1, 5), "duplication")
    assert oracle.smq(t4) == Fraction(1, 5)


def test_corpus_smq_incompatible_is_zero():
    ab = RankedAlphabet(["a", "b"], 2)
    t = parse_structured_string("(a b)", ab)
    s = parse_structured_string("b", ab)
    oracle = CorpusOracle([(t, Fraction(1))], Fraction(1, 5))
    assert oracle.smq(s) == 0


def test_corpus_smq_blends_frequencies():
    t2, t3 = right_chain("a", 2), right_chain("a", 3)
    oracle = CorpusOracle([(t2, Fraction(3)), (t3, Fraction(1))], Fraction(1, 5))
    # distance from t2: 0 and 1 -> 3/4 + 1/4 * 1/5
    assert oracle.smq(t2) == Fraction(3, 4) + Fraction(1, 4) * Fraction(1, 5)
    assert oracle.smq(t2) <= 1


def test_corpus_oracle_validation():
    t = right_chain("a", 2)
    with pytest.raises(ValueError):
        CorpusOracle([], Fraction(1, 5))
    with pytest.raises(ValueError):
        CorpusOracle([(t, Fraction(0))], Fraction(1, 5))
    with pytest.raises(ValueError):
        CorpusOracle([(t, Fraction(1))], Fraction(2))
    with pytest.raises(ValueError):
        CorpusOracle([(t, Fraction(1))], Fraction(1, 5), "levenshtein")


def test_corpus_smq_deep_chain():
    oracle = CorpusOracle([(right_chain("a", 3), Fraction(1))], Fraction(1, 5))
    assert oracle.smq(right_chain("a", 2000)) == Fraction(1, 5) ** 1997


def test_corpus_oracle_rejects_non_binary_corpus_trees():
    unary = Node((right_chain("a", 2),))
    for distance in ("swap", "duplication"):
        with pytest.raises(ValueError, match="binary"):
            CorpusOracle([(right_chain("a", 2), 1), (unary, 1)], Fraction(1, 5),
                         distance)
    # a non-binary query is still answered, with weight 0
    oracle = CorpusOracle([(right_chain("a", 2), 1)], Fraction(1, 5))
    assert oracle.smq(unary) == 0


@pytest.mark.parametrize("distance", ["swap", "duplication"])
def test_corpus_smq_weighs_non_binary_queries_zero(distance):
    ab = RankedAlphabet(["a", "b", "c"], 3)
    corpus = [(parse_structured_string(text, ab), 1) for text in ["(a (b c))", "(a b)"]]
    oracle = CorpusOracle(corpus, Fraction(1, 5), distance)
    # the same size as (a (b c)), so the swap distance reaches the unary node
    for text in ["(a ((b)))", "(a b c)", "((a b) (b c a))", "(a (b))"]:
        assert oracle.smq(parse_structured_string(text, ab)) == 0, text
    assert oracle.smq(parse_structured_string("(a (b c))", ab)) > 0


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("3\t(FimA (FimA FimA))\n1\t(FimC FimD)\n", encoding="utf-8")
    entries, alphabet = load_corpus(path)
    assert len(entries) == 2
    assert entries[0][1] == 3
    assert set(alphabet.leaf_symbols) == {"FimA", "FimC", "FimD"}
    oracle = CorpusOracle(entries, Fraction(1, 5))
    assert oracle.corpus[0][1] == Fraction(3, 4)


@pytest.mark.parametrize("distance", ["swap", "duplication"])
def test_corpus_seq_scans_the_corpus_trees(distance):
    # The duplications strategy never builds ((a a) (b c)) from these base
    # trees, so only the corpus scan can show that a hypothesis weighing
    # it 0 is wrong.
    alphabet = RankedAlphabet(["a", "b", "c"], 2)
    corpus = [(parse_structured_string(text, alphabet), Fraction(freq))
              for freq, text in ((4, "(a (b b))"), (2, "((a b) c)"),
                                 (1, "(a c)"), (1, "((a a) (b c))"))]
    oracle = CorpusOracle(corpus, Fraction(1, 5), distance)
    base = [parse_structured_string(text, alphabet)
            for text in ("(a b)", "((a b) c)", "(a c)")]
    strategy = CountingStrategy(DuplicationsStrategy(base, max_dup=1))
    teacher = SimulatedTeacher(oracle, strategy)
    hypothesis = learn(teacher, alphabet).hypothesis
    for tree, _ in corpus:
        assert hypothesis.eval(tree) == oracle.smq(tree)
    assert hypothesis.eval(corpus[3][0]) == Fraction(1, 8)
    # the last SEQ scanned the candidates, drawn once, then the corpus trees
    assert strategy.calls == 1
    candidates = list(strategy.strategy.candidates())
    assert [t for t, _ in teacher.scanned] == candidates + [tree for tree, _ in corpus]


# -- the keyed corpus oracle -------------------------------------------------

KEYED_ORACLE_CORPORA = {
    # tests/test_cli.py's pinned corpus
    "pinned": ((4, "((x y) (z z))"), (2, "(x (y z))"), (1, "((y x) z)"),
               (1, "((x x) (y z))")),
    # a corpus whose bounded SEQ learned a diverging hypothesis
    "diverging": ((4, "(a (b b))"), (2, "((a b) c)"), (1, "(a c)"),
                  (1, "((a a) (b c))")),
}


def brute_force_corpus_smq(freqs, decay, distances):
    """Sum over every entry of freq / total * decay^distance."""
    total = sum(freqs)
    out = 0
    for freq, d in zip(freqs, distances):
        if d != INF:
            out = out + freq / total * decay ** int(d)
    return out


def bracketings(tokens):
    """Every binary tree whose yield is `tokens`."""
    if len(tokens) == 1:
        return [Leaf(tokens[0])]
    return [Node((left, right)) for k in range(1, len(tokens))
            for left in bracketings(tokens[:k]) for right in bracketings(tokens[k:])]


def keyed_oracle_case(name):
    """(entries, queries), frequencies exact.  The queries are every binary
    tree of at most 6 leaves over the corpus alphabet, or for the four genes
    of the learn-corpus benchmark every one of at most 5 leaves, every binary
    tree whose leaves are an entry's, and the benchmark's SEQ candidates;
    then some unary and ternary trees."""
    if name == "learn-corpus":
        entries = learn_corpus_entries(1)
        trees = [t for t, _ in entries]
        tokens = sorted({tok for t in trees for tok in tree_yield(t)})
        queries = enumerate_full_trees(tokens, 5)
        for t in trees:
            for perm in set(itertools.permutations(tree_yield(t))):
                queries += bracketings(perm)
        queries += DuplicationsStrategy(trees, max_dup=1).candidates()
    else:
        lines = KEYED_ORACLE_CORPORA[name]
        tokens = sorted({tok for _, text in lines for tok in text if tok not in "() "})
        alphabet = RankedAlphabet(tokens, 2)
        entries = [(parse_structured_string(text, alphabet), Fraction(freq))
                   for freq, text in lines]
        queries = enumerate_full_trees(tokens, 6)
    a, b = entries[0][0], entries[-1][0]
    queries += [Node((a,)), Node((a, b)), Node((Node((a,)), b)),
                Node((a, b, a)), Node((b, Node((a, a, b))))]
    return entries, queries


@pytest.mark.parametrize("name", [*KEYED_ORACLE_CORPORA, "learn-corpus"])
def test_keyed_corpus_smq_matches_brute_force(name):
    entries, queries = keyed_oracle_case(name)
    exact_freqs = [f for _, f in entries]
    weighings = ((exact_freqs, Fraction(1, 5)), (list(map(float, exact_freqs)), 0.2))
    found = 0
    for distance, dist in (("duplication", reference_duplication_distance),
                           ("swap", reference_swap_distance)):
        oracles = [CorpusOracle(zip([t for t, _ in entries], freqs), decay, distance)
                   for freqs, decay in weighings]
        for tree in queries:
            distances = [dist(tree, entry) for entry, _ in entries]
            found += any(d != INF for d in distances)
            for oracle, (freqs, decay) in zip(oracles, weighings):
                got = oracle.smq(tree)
                want = brute_force_corpus_smq(freqs, decay, distances)
                # the type too: int 0 when no entry is at finite distance
                assert (got, type(got)) == (want, type(want)), tree.text
    assert found > 50  # many queries meet an entry at finite distance


def _perturbed(rng, t, swap_prob, chain_prob):
    """t with some nodes' two children swapped and some right chains (leaves
    included) replaced by a chain of the same token and another length."""
    chain = right_chain_shape(t)
    if chain is not None and rng.random() < chain_prob:
        return right_chain(chain[0], rng.randint(1, 4))
    if isinstance(t, Leaf):
        return t
    kids = [_perturbed(rng, c, swap_prob, chain_prob) for c in t.children]
    if len(kids) == 2 and rng.random() < swap_prob:
        kids.reverse()
    return Node(tuple(kids))


def test_finite_distance_implies_equal_keys():
    rng = random.Random(11)
    finite = {"duplication": 0, "swap": 0}
    for _ in range(3000):
        t = random_binary_tree(rng, ["a", "b", "c"], 8)
        if rng.random() < 0.5:
            t = _perturbed(rng, t, 0, 0.7)  # grow chains out of leaves
        e = _perturbed(rng, t, rng.choice((0, 0.3)), rng.choice((0, 0.5)))
        for distance, dist, key in (
                ("duplication", reference_duplication_distance, duplication_key),
                ("swap", reference_swap_distance, swap_key)):
            if dist(t, e) != INF:
                finite[distance] += 1
                assert key(t) == key(e), (distance, t.text, e.text)
    assert min(finite.values()) > 1000


def test_duplication_key_matches_groupby_form():
    def grouped(t):
        return tuple(tok for tok, _ in itertools.groupby(tree_yield(t)))

    rng = random.Random(12)
    trees = [random_binary_tree(rng, ["a", "b", "c"], 12) for _ in range(500)]
    trees += [Leaf("a"), right_chain("a", 1), right_chain("a", 9),
              Node((right_chain("b", 3), right_chain("b", 4)))]
    for t in trees:
        assert duplication_key(t) == grouped(t), t.text
    assert duplication_key(Leaf("a")) == ("a",)
    assert duplication_key(right_chain("a", 9)) == ("a",)
