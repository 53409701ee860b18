import hashlib
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import skelgram
from skelgram.grammar import (GrammarError, PCFG, WCFG, format_wcfg, load_wcfg,
                              parse_wcfg, partition_functions, pmta_to_wcfg,
                              wcfg_to_pcfg, wcfg_to_pmta)
from skelgram.equivalence import difference_witness
from skelgram.mta import MTA, EvaluationError, format_mta, parse_mta
from skelgram.multilinear import colinear_witness
from skelgram.trees import (Leaf, Node, RankedAlphabet, parse_context,
                            parse_structured_string, compose)
from skelgram.geneclusters import right_chain

from conftest import (FIXTURES, brute_force_weight, enumerate_contexts,
                      enumerate_trees, nonterminal_weights, random_nonneg_wcfg,
                      random_pmta, random_tree)


@pytest.fixture(scope="module")
def acrab():
    return load_wcfg(FIXTURES / "acrab.wcfg")


@pytest.fixture(scope="module")
def fimacd():
    return load_wcfg(FIXTURES / "fimacd.wcfg")


def test_acrab_most_probable_tree(acrab):
    t = parse_structured_string("(AcrR ((AcrA AcrB) TolC))", acrab.alphabet())
    assert acrab.skeletal_weight(t) == Fraction(456, 1000)


def test_acrab_least_probable_tree(acrab):
    t = parse_structured_string("(((AcrB AcrA) AcrR) TolC)", acrab.alphabet())
    w = acrab.skeletal_weight(t)
    assert w == Fraction(34, 1000) * Fraction(40, 1000)
    assert abs(float(w) - 0.001) < 1e-3


def test_fimacd_duplication_chains(fimacd):
    for n in [*range(3, 11), 2000]:
        w = nonterminal_weights(fimacd, right_chain("FimA", n))["N7"]
        assert w == Fraction(8, 10) * Fraction(2, 10) ** (n - 3)


def test_long_chain_weighs_the_same_through_both_evaluators():
    smalldup = load_wcfg(FIXTURES / "smalldup.wcfg")
    n = 2000
    chain = right_chain("a", n)
    expected = Fraction(4, 5) * Fraction(1, 5) ** (n - 2)
    assert wcfg_to_pmta(smalldup).eval(chain) == expected
    assert smalldup.skeletal_weight(chain) == expected


def test_skeletal_weight_matches_tagging_enumeration(acrab):
    """Dual route: the bottom-up weight equals explicit tagging enumeration."""
    rng = random.Random(41)
    alphabet = acrab.alphabet()
    for _ in range(25):
        t = random_tree(rng, alphabet, 4)
        assert acrab.skeletal_weight(t) == brute_force_weight(acrab, t)


def test_random_grammar_weights_match_tagging_enumeration():
    rng = random.Random(46)
    for _ in range(15):
        g = random_nonneg_wcfg(rng)
        alphabet = g.alphabet(2)
        for _ in range(10):
            t = random_tree(rng, alphabet, 3)
            assert g.skeletal_weight(t) == brute_force_weight(g, t)


def test_skeletal_weight_unknown_terminal(acrab):
    with pytest.raises(GrammarError):
        acrab.skeletal_weight(Leaf("NoSuchGene"))


def test_unknown_terminal_beside_memoized_subtrees():
    # the automaton memoizes (a a); the unknown leaf still fails the tree
    g = parse_wcfg("S -> a S [-1/2]\nS -> a [2]")
    ab = g.alphabet(2)
    known = parse_structured_string("(a a)", ab)
    assert g.skeletal_weight(known) == -1
    for tree in (Node((known, Leaf("z"))), Node((Leaf("z"), known)),
                 Node((known, Node((Leaf("a"), Leaf("z")))))):
        with pytest.raises(GrammarError, match="unknown terminal 'z'"):
            g.skeletal_weight(tree)
    assert g.skeletal_weight(known) == -1


def test_unknown_terminal_and_over_rank_node_raise():
    g = parse_wcfg("S -> a S [-1/2]\nS -> a [2]")
    a, z = Leaf("a"), Leaf("z")
    over = Node((a, a, a))  # rank 3 exceeds every rule
    assert g.skeletal_weight(over) == 0
    # the evaluation fails on the rank first in (z (a a a)), on the leaf
    # first in ((a a a) z); both name the terminal
    for tree in (Node((z, over)), Node((over, z)), Node((a, z, a))):
        with pytest.raises(GrammarError, match="unknown terminal 'z'"):
            g.skeletal_weight(tree)
    assert g.skeletal_weight(over) == 0


XS = RankedAlphabet(["a", "xa", "xb", "xc"], 3)


def test_every_weight_names_the_same_unknown_terminal():
    g = parse_wcfg("S -> a S [-1/2]\nS -> a [2]")
    tree = parse_structured_string("(xa xb)", XS)
    with pytest.raises(GrammarError, match="unknown terminal 'xa'"):
        g.skeletal_weight(tree)
    with pytest.raises(EvaluationError):
        nonterminal_weights(g, tree)
    # a node wider than every rule still weighs zero
    assert nonterminal_weights(g, parse_structured_string("(a a a)", XS), 3) == {"S": 0}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_unknown_terminal_error_names_the_leftmost(exact):
    g = parse_wcfg("S -> a S [-1/2]\nS -> a [2]", exact)
    for text, tok in [("(xa (xb xc))", "xa"), ("((a xc) (xb a))", "xc"),
                      ("(a (a a a) xb)", "xb"), ("((a a a) xc)", "xc")]:
        tree = parse_structured_string(text, XS)
        with pytest.raises(GrammarError, match=f"unknown terminal '{tok}'"):
            g.skeletal_weight(tree)
        with pytest.raises(EvaluationError):
            nonterminal_weights(g, tree)
    # a cell reads its text left to right across the context and the tree
    for ctx_text, text, tok in [("(xc (a <>))", "xb", "xc"), ("(a (<> xa))", "(a xb)", "xb"),
                                ("(a (<> xa))", "(a a)", "xa"), ("(<> a a)", "xb", "xb")]:
        ctx, tree = parse_context(ctx_text, XS), parse_structured_string(text, XS)
        for weigh in (lambda: g.skeletal_weight(tree, ctx),
                      lambda: g.skeletal_weight(compose(ctx, tree))):
            with pytest.raises(GrammarError, match=f"unknown terminal '{tok}'"):
                weigh()


@pytest.mark.parametrize("seed", ["0", "5"])
def test_unknown_terminal_error_does_not_depend_on_the_hash_seed(seed):
    code = ("from skelgram import *\n"
            "g = parse_wcfg('S -> a S [1/2]\\nS -> a [1/2]')\n"
            "alphabet = RankedAlphabet(['a', 'xa', 'xb', 'xc'], 2)\n"
            "g.skeletal_weight(parse_structured_string('(xa (xb xc))', alphabet))\n")
    src = Path(skelgram.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.stderr.splitlines()[-1] == "skelgram.grammar.GrammarError: unknown terminal 'xa'"


def test_weights_of_signed_grammars_and_unruled_ranks():
    g = parse_wcfg("S -> a S [-1/2]\nS -> a [2]")
    ab3 = g.alphabet(3)
    assert g.skeletal_weight(parse_structured_string("(a a)", ab3)) == -1
    assert g.skeletal_weight(parse_structured_string("(a)", ab3)) == 0
    assert g.skeletal_weight(parse_structured_string("(a a a)", ab3)) == 0
    tree = parse_structured_string("((a a a) a)", ab3)
    assert nonterminal_weights(g, tree, 3) == {"S": 0}
    with pytest.raises(GrammarError):
        wcfg_to_pmta(g)


def test_is_invertible_examples():
    g1 = parse_wcfg("N1 -> a N1 [1]\nN2 -> a N1 [1]")
    assert not g1.is_invertible()
    g2 = parse_wcfg("N -> a N [1]\nN -> a a [1]")
    assert g2.is_invertible()


def test_invertibility_of_fixtures(acrab, fimacd):
    assert acrab.is_invertible()
    assert fimacd.is_invertible()
    chain = load_wcfg(FIXTURES / "chain.wcfg")
    assert not chain.is_invertible()


def test_grammar_validation_errors():
    with pytest.raises(GrammarError):
        WCFG(["S"], ["a"], {("S", ()): Fraction(1)})
    with pytest.raises(GrammarError):
        WCFG(["S"], ["a"], {("X", ("a",)): Fraction(1)})
    with pytest.raises(GrammarError):
        WCFG(["S"], ["a"], {("S", ("b",)): Fraction(1)})
    with pytest.raises(GrammarError):
        parse_wcfg("")
    with pytest.raises(GrammarError):
        parse_wcfg("A B -> a [1]")
    with pytest.raises(GrammarError):
        parse_wcfg("A -> a")  # missing weight bracket


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls", [WCFG, PCFG])
def test_non_finite_float_weight_is_rejected(cls, w):
    weights = {("S", ("a", "S")): Fraction(1, 2), ("S", ("a", "b")): w}
    with pytest.raises(GrammarError, match=r"^non-finite weight on S -> a b$"):
        cls(["S"], ["a", "b"], weights)


@pytest.mark.parametrize("line", [
    "S -> N3 R [0.012]S -> R N5 [0.004]",  # two rules run together
    "S -> a -> b [1]",
    "S -> a[1] [1]",
    "S -> a] [1]",
    "S[1] -> a [1]",
])
def test_parse_wcfg_rejects_arrows_and_brackets_in_symbols(line):
    with pytest.raises(GrammarError, match=f"line 2: .*{re.escape(repr(line))}"):
        parse_wcfg("S -> a [1]\n" + line + "\n")


# -- pmta_to_wcfg ------------------------------------------------------------


def test_pmta_to_wcfg_single_cell():
    alphabet = RankedAlphabet(["a"], 2)
    a = MTA(alphabet, 1, {"a": [Fraction(1, 2)]}, {}, [Fraction(1)])
    g = pmta_to_wcfg(a)
    assert g.skeletal_weight(Leaf("a")) == Fraction(1, 2) == a.eval(Leaf("a"))
    assert set(g.weights) == {("S", ("a",)), ("V1", ("a",))}


def test_pmta_to_wcfg_requires_positive():
    alphabet = RankedAlphabet(["a"], 2)
    a = MTA(alphabet, 1, {"a": [Fraction(-1)]}, {}, [Fraction(1)])
    with pytest.raises(GrammarError):
        pmta_to_wcfg(a)


def test_pmta_to_wcfg_zero_automaton():
    alphabet = RankedAlphabet(["a"], 2)
    g = pmta_to_wcfg(MTA.zero(alphabet))
    rng = random.Random(42)
    for _ in range(10):
        assert g.skeletal_weight(random_tree(rng, alphabet, 4)) == 0


def test_pmta_to_wcfg_preserves_weights_random():
    rng = random.Random(43)
    for _ in range(30):
        alphabet = RankedAlphabet(["a", "b"][:rng.randint(1, 2)], rng.randint(1, 2))
        a = random_pmta(rng, alphabet, rng.randint(1, 3))
        g = pmta_to_wcfg(a)
        for _ in range(20):
            t = random_tree(rng, alphabet, 5)
            assert g.skeletal_weight(t) == a.eval(t), t.text


# -- wcfg_to_pmta ------------------------------------------------------------


def test_wcfg_to_pmta_single_terminal_rule():
    g = parse_wcfg("S -> a [0.5]")
    a = wcfg_to_pmta(g)
    assert a.dim == 2
    assert a.eval(Leaf("a")) == Fraction(1, 2)
    assert a.is_colinear_mta()


def test_wcfg_to_pmta_requires_nonnegative():
    g = parse_wcfg("S -> a [-1]")
    with pytest.raises(GrammarError):
        wcfg_to_pmta(g)


def test_automaton_below_a_rules_length_leaves_the_rule_out():
    # no tree of rank 2 uses the ternary rule, so the rank-2 automaton is
    # the one without it and weighs every rank-2 tree as the grammar does
    g = parse_wcfg("S -> a S [1/2]\nS -> b c S [1/3]\nS -> a [1]\nS -> S b [1/5]\n")
    fitting = WCFG(g.nonterminals, g.terminals,
                   {rule: w for rule, w in g.weights.items() if len(rule[1]) <= 2})
    assert difference_witness(g.automaton(2), wcfg_to_pmta(fitting, 2)) is None
    assert difference_witness(wcfg_to_pmta(g, 2), fitting.automaton(2)) is None
    for t in enumerate_trees(g.alphabet(2), 3):
        assert g.automaton(2).eval(t) == g.skeletal_weight(t)


def test_max_rank_zero_is_rejected(acrab):
    with pytest.raises(ValueError, match="max_rank must be >= 1"):
        acrab.alphabet(0)
    with pytest.raises(ValueError, match="max_rank must be >= 1"):
        wcfg_to_pmta(acrab, max_rank=0)


def test_wcfg_to_pmta_invertible_fixture_is_colinear(acrab, fimacd):
    for g in (acrab, fimacd,
              load_wcfg(FIXTURES / "smalldup.wcfg"),
              load_wcfg(FIXTURES / "trivial.wcfg"),
              load_wcfg(FIXTURES / "colinearity3.wcfg")):
        assert g.is_invertible()
        assert wcfg_to_pmta(g).is_colinear_mta()


def test_wcfg_to_pmta_non_invertible_has_doubled_column():
    g = parse_wcfg("N1 -> a a [0.5]\nN2 -> a a [0.5]")
    a = wcfg_to_pmta(g)
    assert not a.is_colinear_mta()
    m = a.node_maps[2]
    ia = 2  # iota: N1=0, N2=1, a=2
    col = m.columns[ia, ia]
    assert sum(1 for x in col.values() if x != 0) == 2


# sha256 of format_mta(wcfg_to_pmta(g)) for every fixture, loaded exactly
# (True) and with exact=False, as printed by the dense-matrix implementation.
PMTA_TEXT_SHA256 = {
    ("acrab", True): "e1bb8d0aefb5c71987f2521ea8928bc415129daf45977b82180a7e1f46f42efc",
    ("acrab", False): "e605807928a298d250ea871a8ffb69abb4c912bfff359b68bff1ebb61dd01ecd",
    ("chain", True): "d20a0f21614d50b72b4e295229c3d34b21d9032669148c724dec1642d8479772",
    ("chain", False): "0dd64c40eea25f6b7aca8e501b034c278355ae3bc3da4db4e469d063aec41049",
    ("colinearity3", True): "a0fea0b4e0405a3e3a80f1ea625e2019ff2ab8865880becc885ef9ae6da62199",
    ("colinearity3", False): "8a039ebcd640687fe82b916cb6a1b9d90efa2e7ef0305ac56b5ef604794a489f",
    ("fimacd", True): "39b09aaa18e581dbc39ea73c02392c94aa60cf2668210f057a4d8e7d49d036f3",
    ("fimacd", False): "7853b06ceef0fcb23fc9f8ebf7c2a39e773e8490935633c6cc0be6d5591697ed",
    ("smalldup", True): "1ebc6d5f7070bfbdc809b0deb88bd5b9f62c7d4efa34ba8699c7e17cdadcb8cc",
    ("smalldup", False): "aac5fe81e8011f797fd6bb30d31f92b0a95b92c69e3629855307571e6dc9ea6c",
    ("trivial", True): "9756d4a7d75f8f750f78b462162c70e5370ba422c58b18d0899fcff4405e1069",
    ("trivial", False): "267338388b30ec85e3c79b7e1d61a52e0d6952ecb3b2a85522d1a1f512379818",
}

COLINEARITY3_FLOAT_MTA = """\
mta d=4 p=2
lambda: 1.0 0.0 0.0 0.0
leaf a: 0.0 1.0 0.0 0.0
rank 1:
  0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0
rank 2:
  0.0 0.0 0.0 0.0 0.0 0.0 0.5 0.0 0.0 0.0 0.5 0.0 0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
  0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
"""


def test_wcfg_to_pmta_text_is_pinned():
    for (name, exact), digest in PMTA_TEXT_SHA256.items():
        text = format_mta(wcfg_to_pmta(load_wcfg(FIXTURES / f"{name}.wcfg", exact)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, exact)


def test_float_mta_text_roundtrips_with_float_zeros():
    g = load_wcfg(FIXTURES / "colinearity3.wcfg", exact=False)
    assert format_mta(wcfg_to_pmta(g)) == COLINEARITY3_FLOAT_MTA
    for name, _ in PMTA_TEXT_SHA256:
        text = format_mta(wcfg_to_pmta(load_wcfg(FIXTURES / f"{name}.wcfg", exact=False)))
        assert format_mta(parse_mta(text, exact=False)) == text, name


def test_wcfg_to_pmta_preserves_weights_random():
    rng = random.Random(44)
    for _ in range(30):
        g = random_nonneg_wcfg(rng)
        a = wcfg_to_pmta(g)
        for _ in range(20):
            t = random_tree(rng, a.alphabet, 5)
            assert a.eval(t) == g.skeletal_weight(t), (t.text, format_wcfg(g))


def test_wcfg_to_pmta_coordinates_carry_nonterminal_weights():
    rng = random.Random(45)
    for _ in range(15):
        g = random_nonneg_wcfg(rng)
        a = wcfg_to_pmta(g)
        for _ in range(10):
            t = random_tree(rng, a.alphabet, 4)
            vec = a.eval_vector(t)
            for i, nt in enumerate(g.nonterminals):
                assert vec[i] == nonterminal_weights(g, t)[nt]


# -- wcfg_to_pcfg ------------------------------------------------------------


def test_pcfg_of_normalized_grammar_is_identity(acrab):
    p = wcfg_to_pcfg(acrab)
    assert p.weights == acrab.weights
    assert format_wcfg(p) == format_wcfg(acrab)
    z = partition_functions(acrab)
    assert all(v == 1 for v in z.values())


def test_pcfg_single_tree_language():
    g = parse_wcfg("S -> a [2]")
    p = wcfg_to_pcfg(g)
    assert p.weights == {("S", ("a",)): Fraction(1)}


def test_pcfg_chain_renormalization():
    g = parse_wcfg("N -> a N [0.4]\nN -> a a [0.4]")
    z = partition_functions(g)
    assert abs(z["N"] - 2 / 3) < 1e-9
    p = wcfg_to_pcfg(g)
    assert abs(p.weights[("N", ("a", "N"))] - 0.4) < 1e-9
    assert abs(p.weights[("N", ("a", "a"))] - 0.6) < 1e-9
    # relative tree weights are preserved: compare chain ratios
    for n in range(3, 11):
        w_ratio = g.skeletal_weight(right_chain("a", n)) / g.skeletal_weight(right_chain("a", n - 1))
        p_ratio = p.skeletal_weight(right_chain("a", n)) / p.skeletal_weight(right_chain("a", n - 1))
        assert abs(w_ratio - p_ratio) < 1e-9


def test_is_normalized_tolerates_float_rounding_above_one(fimacd):
    assert parse_wcfg("S -> a [1.0000000000001]", exact=False).is_normalized()
    assert not parse_wcfg("S -> a [1.01]", exact=False).is_normalized()
    assert not parse_wcfg("S -> a [1.0000000000001]").is_normalized()
    # fimacd's partition function is rational, so its PCFG sums to exactly 1
    assert wcfg_to_pcfg(fimacd).is_normalized()


def test_pcfg_divergent_grammar_raises():
    g = parse_wcfg("S -> S S [1]\nS -> a [1]")
    with pytest.raises(GrammarError):
        wcfg_to_pcfg(g)


CRITICAL = "S -> S S [1/2]\nS -> a [1/2]\n"


def test_critical_grammar_normalizes_to_itself():
    # Z = 1 is a double root of z = 1/2 + z^2/2: float Newton stops about
    # sqrt(eps) short of it, and the snap recovers it, for float weights too
    g = parse_wcfg(CRITICAL)
    assert partition_functions(g) == {"S": 1}
    p = wcfg_to_pcfg(g)
    assert p.weights == g.weights
    assert format_wcfg(p) == format_wcfg(g)
    floats = parse_wcfg(CRITICAL, exact=False)
    assert partition_functions(floats) == {"S": 1.0}
    assert wcfg_to_pcfg(floats).weights == floats.weights


@pytest.mark.parametrize("text, weights", [
    # critical only up to rounding: 0.1 is not a binary fraction, and float
    # Newton stopped about sqrt(eps) short, 4e-9 off both weights of 1/2
    ("S -> S S [0.1]\nS -> a [2.5]", [1 / 2, 1 / 2]),
    ("S -> S S [0.3]\nS -> a [5/6]", [1 / 2, 1 / 2]),
    ("S -> S S S [1/3]\nS -> a [2/3]", [1 / 3, 2 / 3]),
    ("S -> A A [0.1]\nS -> a [2.5]\nA -> S [1]", [1 / 2, 1 / 2, 1]),
])
def test_float_critical_grammar_normalizes_within_tolerance(text, weights):
    got = list(wcfg_to_pcfg(parse_wcfg(text, exact=False)).weights.values())
    assert len(got) == len(weights)
    assert all(abs(w - want) <= 1e-9 for w, want in zip(got, weights)), got


@pytest.mark.parametrize("text, least", [
    # z = 1/3 + 2/3 z^2 has the roots 1/2 and 1
    ("S -> S S [2/3]\nS -> a [1/3]", Fraction(1, 2)),
    # the roots 4999999/10000000 and 1/2 lie 1e-7 apart; the float lands
    # about 4e-10 from the least one, too far for its convergents to hold it,
    # and the simpler 1/2 solves the equation exactly but is the larger root
    ("S -> S S [10000000/9999999]\nS -> a [4999999/19999998]",
     Fraction(4999999, 10000000)),
])
def test_partition_function_is_the_least_root(text, least):
    assert partition_functions(parse_wcfg(text)) == {"S": least}


@pytest.mark.parametrize("text", [
    "S -> S S [1/2]\nS -> a [51/100]",
    "S -> S [1]\nS -> a [1]",
    "S -> S S [1]\nS -> a [1]",
    # constants below the float tolerance must not pass for convergence at 0
    "S -> S [1]\nS -> a [1e-13]",
    "S -> S [1]\nS -> S S [1]\nS -> a [1/10000000000000]",
])
@pytest.mark.parametrize("exact", [True, False])
def test_divergent_partition_function_raises_at_once(text, exact):
    started = time.perf_counter()
    with pytest.raises(GrammarError, match="diverges"):
        wcfg_to_pcfg(parse_wcfg(text, exact=exact))
    assert time.perf_counter() - started < 0.5


def test_unproductive_cycle_gets_zero_and_drops_out():
    g = parse_wcfg("S -> a [1]\nS -> B [1]\nB -> B B [1]")
    assert partition_functions(g) == {"S": 1, "B": 0}
    p = wcfg_to_pcfg(g)
    assert p.nonterminals == ["S"]
    assert p.weights == {("S", ("a",)): Fraction(1)}


def test_deeply_nested_grammar_normalizes_exactly():
    levels = 2000
    text = "".join(f"N{i} -> N{i + 1} N{i + 1} [1/2]\nN{i} -> a [1/2]\n"
                   for i in range(levels)) + f"N{levels} -> a [1]\n"
    g = parse_wcfg(text)
    started = time.perf_counter()
    p = wcfg_to_pcfg(g)
    assert time.perf_counter() - started < 1.0
    assert p.weights == g.weights


def test_long_linear_cycle_sums_to_one():
    n = 200
    text = "".join(f"N{i} -> N{(i + 1) % n} [1/2]\nN{i} -> a [1/2]\n" for i in range(n))
    g = parse_wcfg(text)
    started = time.perf_counter()
    z = partition_functions(g)
    assert time.perf_counter() - started < 0.4
    assert set(z.values()) == {1}
    assert all(isinstance(v, Fraction) for v in z.values())


def test_fimacd_partition_function_is_exact(fimacd):
    p = wcfg_to_pcfg(fimacd)
    assert all(isinstance(w, Fraction) for w in p.weights.values())
    assert p.weights[("S", ("N10",))] == Fraction(5000000, 99993367)


def test_nonlinear_system_normalizes_without_exact_newton_steps():
    # a rank-3 rule through the start symbol puts 21 of fimacd's
    # nonterminals in one nonlinear component; exact Newton steps on it
    # doubled in size each step and ran for minutes, so a child process
    # runs it under a timeout.  No small rational solves the system, so the
    # float solution stands.
    text = (FIXTURES / "fimacd.wcfg").read_text(encoding="utf-8")
    assert "N14 -> N1 N15 [0.640]" in text
    text = text.replace("N14 -> N1 N15 [0.640]", "N14 -> S N1 N15 [0.640]")
    code = ("import sys\n"
            "from skelgram.grammar import parse_wcfg, partition_functions\n"
            "z = partition_functions(parse_wcfg(sys.stdin.read()))\n"
            "print(sorted({type(v).__name__ for v in z.values()}), z['S'] > 0)\n")
    src = Path(skelgram.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                          text=True, timeout=20, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "['Fraction', 'float'] True\n"


def test_pcfg_validates_normalization():
    with pytest.raises(GrammarError):
        PCFG(["S"], ["a"], {("S", ("a",)): Fraction(1, 2)})


# -- format ------------------------------------------------------------------


def test_grammar_format_roundtrip(acrab):
    text = format_wcfg(acrab)
    again = parse_wcfg(text)
    assert again.weights == acrab.weights
    assert again.nonterminals == acrab.nonterminals
    assert format_wcfg(again) == text


def test_grammar_format_rational_weights():
    g = parse_wcfg("start: N1\nN1 -> a a [1/6]\nN1 -> a N1 [5/6]")
    assert g.weights[("N1", ("a", "a"))] == Fraction(1, 6)
    assert "1/6" in format_wcfg(g)


# -- Hankel co-linearity at desk scale ---------------------------------------


def test_hankel_colinearity_and_class_count():
    """Rows of same-nonterminal positive trees are pairwise co-linear and the
    number of co-linearity classes is at most |nonterminals| + 1."""
    g = load_wcfg(FIXTURES / "colinearity3.wcfg")
    alphabet = g.alphabet(2)
    trees = enumerate_trees(alphabet, 4)
    contexts = enumerate_contexts(alphabet, 4)
    rows = {t: [g.skeletal_weight(compose(c, t)) for c in contexts] for t in trees}

    # group positive trees by their unique root nonterminal
    groups = {}
    for t in trees:
        weights = nonterminal_weights(g, t)
        tags = [nt for nt, w in weights.items() if w > 0]
        assert len(tags) <= 1  # structurally unambiguous
        if tags:
            groups.setdefault(tags[0], []).append(t)
    for nt, members in groups.items():
        for i in range(1, len(members)):
            assert colinear_witness(rows[members[i]], rows[members[0]]) is not None, nt

    classes = []
    for t in trees:
        row = rows[t]
        if all(x == 0 for x in row):
            continue
        if not any(colinear_witness(row, c) is not None for c in classes):
            classes.append(row)
    assert len(classes) + 1 <= len(g.nonterminals) + 1
