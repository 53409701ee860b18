"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is asserted exactly as stated (exact-rational
equality wherever the exact backend is in play).
"""
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from skelgram.cli import main as cli_main
from skelgram.extract import extract_cmta
from skelgram.geneclusters import (duplication_distance, optimal_tree,
                                   right_chain, swap_distance, INF)
from skelgram.grammar import load_wcfg, pmta_to_wcfg, wcfg_to_pcfg, wcfg_to_pmta
from skelgram.learner import learn
from skelgram.multilinear import colinear_witness
from skelgram.teacher import AllTreesStrategy, SimulatedTeacher
from skelgram.trees import (Leaf, Node, RankedAlphabet, compose,
                            enumerate_full_trees, parse_structured_string)

from conftest import (FIXTURES, all_binary_trees, brute_force_weight,
                      enumerate_contexts, enumerate_trees, enumeration_of_small_grammars,
                      has_ambiguous_tree, nonterminal_weights, observing_rounds,
                      parse_score, random_nonneg_wcfg, random_tree, random_binary_tree,
                      random_pmta)


def report_pass(number, title):
    print(f"ACCEPTANCE {number} ({title}): PASS")


@pytest.fixture(scope="module")
def acrab_run():
    """One end-to-end learning run against the efflux-pump fixture, shared by
    criteria 1 and 6; tables and hypotheses are snapshotted per round."""
    grammar = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = grammar.alphabet(2)
    teacher = SimulatedTeacher(grammar, AllTreesStrategy(alphabet, 5))
    rounds = []

    def observer(table, hypothesis):
        agreement = [(tree, table.rows[tree.text][0]) for tree in table._order]
        rounds.append((agreement, [list(table.rows[b.text]) for b in table.basis],
                       list(table.basis), hypothesis))

    started = time.monotonic()
    with observing_rounds(observer):
        report = learn(teacher, alphabet)
    elapsed = time.monotonic() - started
    return grammar, alphabet, report, rounds, elapsed


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """CLI learning runs whose JSON reports back the query-bound criterion."""
    out_root = tmp_path_factory.mktemp("reports")
    runs = {}
    for name, max_leaves in (("acrab", 5), ("smalldup", 4)):
        out = out_root / name
        code = cli_main(["learn", "--target", str(FIXTURES / f"{name}.wcfg"),
                         "--seq", "trees", "--max-leaves", str(max_leaves),
                         "--out", str(out)])
        assert code == 0
        runs[name] = json.loads((out / "report.json").read_text())
    return runs


def test_criterion_1_end_to_end_recovery(acrab_run):
    grammar, alphabet, report, _rounds, elapsed = acrab_run
    assert elapsed < 60.0, f"learning took {elapsed:.1f}s"
    learned_pcfg = wcfg_to_pcfg(pmta_to_wcfg(report.hypothesis))

    # exact agreement with the teacher on every tree of <= 5 leaves
    for tree in enumerate_full_trees(alphabet.leaf_symbols, 5):
        assert learned_pcfg.skeletal_weight(tree) == grammar.skeletal_weight(tree)

    # the most probable 4-leaf tree scores 0.456
    four_leaf = enumerate_full_trees(alphabet.leaf_symbols, 4)
    best = max((t for t in four_leaf), key=lambda t: grammar.skeletal_weight(t))
    fixture_value = grammar.skeletal_weight(best)
    learned_value = learned_pcfg.skeletal_weight(best)
    assert fixture_value == Fraction(456, 1000)
    assert abs(float(learned_value) - 0.456) <= 1e-3
    assert learned_value == fixture_value
    report_pass(1, "end-to-end recovery of the efflux-pump grammar")


def test_criterion_2_query_bounds(cli_reports):
    for name, payload in cli_reports.items():
        n = payload["basis_size"]
        m = payload["max_counterexample_size"]
        tokens = 4 if name == "acrab" else 1
        assert payload["seq_count"] <= n, name
        bound = n * (n + m * n + tokens * (n + m * n) ** 2)
        assert payload["smq_count"] <= bound, (name, payload, bound)
    report_pass(2, "query counts within the stated bounds")


def test_criterion_3_conversion_round_trips():
    rng = random.Random(303)
    # positive automata -> grammars
    for _ in range(100):
        tokens = ["a", "b", "c"][:rng.randint(1, 3)]
        alphabet = RankedAlphabet(tokens, rng.randint(1, 2))
        automaton = random_pmta(rng, alphabet, rng.randint(1, 3))
        grammar = pmta_to_wcfg(automaton)
        for _ in range(50):
            t = random_tree(rng, alphabet, 5)
            assert grammar.skeletal_weight(t) == automaton.eval(t)
    # non-negative grammars -> automata
    for _ in range(100):
        grammar = random_nonneg_wcfg(rng, invertible=rng.random() < 0.5)
        automaton = wcfg_to_pmta(grammar)
        for _ in range(50):
            t = random_tree(rng, automaton.alphabet, 5)
            assert automaton.eval(t) == grammar.skeletal_weight(t)
    # every invertible fixture converts to a co-linear automaton
    for name in ("acrab", "fimacd", "smalldup", "trivial", "colinearity3"):
        g = load_wcfg(FIXTURES / f"{name}.wcfg")
        assert g.is_invertible(), name
        assert wcfg_to_pmta(g).is_colinear_mta(), name
    report_pass(3, "conversion round trips preserve weights exactly")


def test_criterion_4_chain_grammar_series():
    grammar = load_wcfg(FIXTURES / "chain.wcfg")
    values = {n: brute_force_weight(grammar, right_chain("a", n))
              for n in range(2, 13)}
    assert values[2] == Fraction(1, 6)
    assert values[3] == Fraction(1, 4)
    for n in range(4, 13):
        assert values[n] == Fraction(3, 4) * values[n - 1] - Fraction(1, 24) * values[n - 2]
    report_pass(4, "chain-grammar series recurrence, exact rationals")


def test_criterion_5_duplication_geometry():
    grammar = load_wcfg(FIXTURES / "fimacd.wcfg")
    for n in range(3, 11):
        weight = nonterminal_weights(grammar, right_chain("FimA", n))["N7"]
        assert weight == Fraction(8, 10) * Fraction(2, 10) ** (n - 3), n
    report_pass(5, "tandem-duplication chain weights 0.8 * 0.2^(n-3)")


def test_criterion_6_extraction_correctness(acrab_run):
    """Every extracted automaton maps each basis tree to its unit vector and
    agrees with every row of its table at the identity column, and the
    final one is certified by the equivalence query.

    Agreement with every cell of T's rows is not claimed: a counterexample
    adds one column, which is not closed under removing its innermost
    level, and whose siblings need not be in T, so no consistency check
    covers it.  On acrab a few non-identity cells of T's rows disagree with
    the hypothesis extracted from that table.  `learn` extracts once per
    equivalence query; the tables it builds in between are checked the same
    way by `test_every_table_built_for_a_counterexample_weighs_as_its_hypothesis`
    in tests/test_learner.py."""
    grammar, alphabet, report, rounds, _elapsed = acrab_run
    assert rounds  # at least one closed consistent table was produced
    for agreement, basis_rows, basis, hypothesis in rounds:
        for tree, value in agreement:
            assert hypothesis.eval(tree) == value
        for i, b in enumerate(basis):
            vec = hypothesis.eval_vector(b)
            assert vec == [Fraction(int(i == j)) for j in range(len(basis))]
    assert rounds[-1][3] is report.hypothesis
    assert SimulatedTeacher(grammar).seq(report.hypothesis) is None
    # same checks on the duplication toy
    g2 = load_wcfg(FIXTURES / "smalldup.wcfg")
    a2 = g2.alphabet(2)
    seen = []

    def observer(table, hypothesis):
        for tree in table._order:
            assert hypothesis.eval(tree) == table.rows[tree.text][0]
        for i, b in enumerate(table.basis):
            assert hypothesis.eval_vector(b) == [int(i == j) for j in range(len(table.basis))]
        seen.append(len(table.basis))

    with observing_rounds(observer):
        report2 = learn(SimulatedTeacher(g2, AllTreesStrategy(a2, 4)), a2)
    assert seen
    assert SimulatedTeacher(g2).seq(report2.hypothesis) is None
    report_pass(6, "extracted automata agree with their tables at the identity column")


def test_criterion_7_hankel_colinearity():
    grammar = load_wcfg(FIXTURES / "colinearity3.wcfg")
    alphabet = grammar.alphabet(2)
    trees = enumerate_trees(alphabet, 4)
    contexts = enumerate_contexts(alphabet, 4)
    rows = {t: [grammar.skeletal_weight(compose(c, t)) for c in contexts]
            for t in trees}

    groups = {}
    for t in trees:
        tags = [nt for nt, w in nonterminal_weights(grammar, t).items() if w > 0]
        assert len(tags) <= 1
        if tags:
            groups.setdefault(tags[0], []).append(t)
    for nt, members in groups.items():
        for other in members[1:]:
            assert colinear_witness(rows[other], rows[members[0]]) is not None, nt

    classes = []
    for t in trees:
        row = rows[t]
        if all(x == 0 for x in row):
            continue
        if not any(colinear_witness(row, ref) is not None for ref in classes):
            classes.append(row)
    assert len(classes) + 1 <= len(grammar.nonterminals) + 1
    report_pass(7, "Hankel rows cluster by root nonterminal")


def test_criterion_8_invertibility_equivalence():
    grammars = enumeration_of_small_grammars(200)
    universe = enumerate_trees(RankedAlphabet(["a", "b"], 2), 4)
    invertible_seen = ambiguous_seen = 0
    for grammar in grammars:
        ambiguous = has_ambiguous_tree(grammar, universe)
        assert grammar.is_invertible() == (not ambiguous)
        invertible_seen += grammar.is_invertible()
        ambiguous_seen += ambiguous
    assert invertible_seen and ambiguous_seen  # both sides exercised
    report_pass(8, "invertibility matches brute-force structural unambiguity")


def test_criterion_9_parse_dp_oracle():
    rng = random.Random(909)
    tokens = ["a", "b", "c"]
    lengths_seen = set()
    for _ in range(100):
        length = rng.randint(1, 8)
        lengths_seen.add(length)
        string = [rng.choice(tokens) for _ in range(length)]
        table = {}

        def weight(piece, table=table, rng=rng):
            return table.setdefault(tuple(piece), rng.randint(0, 9))

        _tree, score = optimal_tree(string, weight)
        assert score == max(parse_score(t, weight) for t in all_binary_trees(string))
    assert lengths_seen == set(range(1, 9))
    report_pass(9, "parse DP equals exhaustive maximum over binary parses")


def test_criterion_10_distance_sanity():
    rng = random.Random(1010)
    for _ in range(500):
        t = random_binary_tree(rng, ["a", "b"], 5)
        s = random_binary_tree(rng, ["a", "b"], 5)
        assert swap_distance(t, t) == 0
        assert duplication_distance(t, t) == 0
        assert swap_distance(t, s) == swap_distance(s, t)
        assert duplication_distance(t, s) == duplication_distance(s, t)
    # the hand examples, exactly
    ab = RankedAlphabet(["x", "y"], 2)
    some = random_binary_tree(rng, ["x"], 4)
    assert swap_distance(some, some) == 0
    assert swap_distance(parse_structured_string("(x y)", ab),
                         parse_structured_string("(y x)", ab)) == 1
    assert swap_distance(Leaf("a"), Leaf("b")) == INF
    assert duplication_distance(right_chain("a", 3), right_chain("a", 5)) == 2
    assert duplication_distance(right_chain("a", 4), right_chain("b", 4)) == INF
    assert duplication_distance(
        Node((right_chain("a", 2), right_chain("b", 3))),
        Node((right_chain("a", 4), right_chain("b", 3)))) == 2
    report_pass(10, "edit-distance identities, symmetry, and hand examples")
