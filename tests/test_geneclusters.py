import itertools
import math
import random
import zlib
from collections import Counter
from fractions import Fraction

import pytest

from skelgram import geneclusters
from skelgram.geneclusters import (INF, SubstringFrequencyWeight, _dup, _swap,
                                   duplication_distance, optimal_tree,
                                   parse_gene_string, right_chain,
                                   right_chain_shape, swap_distance)
from skelgram.trees import (HOLE, Context, Leaf, Node, parse_structured_string,
                            RankedAlphabet, tree_yield)

from conftest import (all_binary_trees, chain_shape, enumerate_contexts, parse_score,
                      random_binary_tree, random_tree, reference_duplication_distance,
                      reference_swap_distance)


def _gene_parse_text(string):
    tree, _ = parse_gene_string(string.split(), lambda piece: 0)
    return tree.text


def test_preprocess_runs_examples():
    # each maximal run of one token is parsed as a single unit
    assert _gene_parse_text("a a a b") == "((a (a a)) b)"
    assert _gene_parse_text("a b c") == "(a (b c))"
    assert _gene_parse_text("a a b b a") == "((a a) ((b b) a))"


def test_split_run_token():
    # tokens come back as they were given, '#' or not
    assert _gene_parse_text("a#3") == "a#3"
    assert _gene_parse_text("a") == "a"
    assert _gene_parse_text("COG0845") == "COG0845"


def test_expand_chains_examples():
    assert right_chain("a", 3).text == "(a (a a))"
    assert right_chain("a", 2).text == "(a a)"
    assert right_chain("a", 1) == Leaf("a")
    with pytest.raises(ValueError):
        right_chain("a", 0)
    assert _gene_parse_text("a a a") == "(a (a a))"
    assert _gene_parse_text("a a") == "(a a)"


def test_gene_weight_sees_expanded_runs():
    calls = []

    def w(piece):
        calls.append(piece)
        return 10 if tuple(piece) == ("a", "a", "a", "b") else 0
    tree, score = parse_gene_string(("a", "a", "a", "b"), w)
    assert score == 10
    assert tree.text == "((a (a a)) b)"
    # one call per span of runs, each a list slice of the input tokens
    assert calls == [["a", "a", "a"], ["b"], ["a", "a", "a", "b"]]


def test_optimal_tree_single_token():
    tree, score = optimal_tree(["a"], lambda piece: 7)
    assert tree == Leaf("a")
    assert score == 7


def test_optimal_tree_prefers_scored_substring():
    def w(piece):
        return 5 if tuple(piece) == ("a", "b") else 0
    tree, score = optimal_tree(["a", "b", "c"], w)
    assert tree.text == "((a b) c)"
    assert score == 5


def test_optimal_tree_tie_breaks_leftmost():
    tree, score = optimal_tree(["a", "b", "c", "d"], lambda piece: 0)
    assert score == 0
    assert tree.text == "(a (b (c d)))"  # split index 1 at every level


def test_optimal_tree_matches_exhaustive_oracle():
    rng = random.Random(61)
    tokens = ["a", "b", "c"]
    for case in range(100):
        length = rng.randint(1, 8)
        string = [rng.choice(tokens) for _ in range(length)]
        table = {}
        def w(piece, table=table, rng=rng):
            key = tuple(piece)
            if key not in table:
                table[key] = rng.randint(0, 9)
            return table[key]
        tree, score = optimal_tree(string, w)
        assert list(tree_yield(tree)) == string
        best = max(parse_score(t, w) for t in all_binary_trees(string))
        assert score == best


def test_optimal_tree_score_at_least_whole_string_weight():
    rng = random.Random(62)
    for _ in range(50):
        string = [rng.choice("ab") for _ in range(rng.randint(1, 6))]
        values = {}
        def w(piece, values=values, rng=rng):
            return values.setdefault(tuple(piece), rng.randint(0, 5))
        _, score = optimal_tree(string, w)
        assert score >= w(string)


def _dict_best_parse(tokens, cuts, w):
    # geneclusters._best_parse as it was with tuple-keyed dicts and a Python
    # loop over splits, kept verbatim as the reference for the list DP
    if not tokens:
        raise ValueError("empty string has no parse")
    n = len(cuts) - 1
    best_score = {}
    best_split = {}
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span
            base = w(tokens[cuts[i]:cuts[j]])
            if span <= 2:
                # one unit, or two joined at i + 1: no choice of split
                best_score[i, j], best_split[i, j] = base, i + 1
            else:
                score, split = None, None
                for k in range(i + 1, j):
                    cand = best_score[i, k] + best_score[k, j]
                    if score is None or cand > score:
                        score, split = cand, k
                best_score[i, j] = base + score
                best_split[i, j] = split

    built = []
    stack = [(0, n)]  # (None, None) joins the last two built subtrees
    while stack:
        i, j = stack.pop()
        if i is None:
            right = built.pop()
            built.append(Node((built.pop(), right)))
        elif j - i == 1:
            built.append(right_chain(tokens[cuts[i]], cuts[j] - cuts[i]))
        else:
            k = best_split[i, j]
            stack += [(None, None), (k, j), (i, k)]
    return built[0], best_score[0, n]


def _crc(piece):
    return zlib.crc32(" ".join(piece).encode())


MIXED_ONES = (0, 1, 1.0, Fraction(1), 0.0, Fraction(0))
SCORERS = {
    "ints with ties": lambda piece: _crc(piece) % 3,
    "floats": lambda piece: (_crc(piece) % 7) * 0.1,
    "fractions": lambda piece: Fraction(_crc(piece) % 5, 1 + _crc(piece) % 3),
    "mixed ones": lambda piece: MIXED_ONES[_crc(piece) % 6],
    "floats with nan": lambda piece: math.nan if _crc(piece) % 11 == 0 else _crc(piece) % 4 / 3,
}


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_best_parse_matches_the_dict_dp(scorer):
    rng = random.Random(zlib.crc32(scorer.encode()))
    score_of = SCORERS[scorer]
    for _ in range(60):
        string, length = [], rng.randint(1, 25)
        while len(string) < length:  # runs of one to three tokens
            string += [rng.choice("abcd")] * rng.choice((1, 1, 1, 2, 3))
        del string[length:]
        runs = [i for i in range(len(string)) if i == 0 or string[i] != string[i - 1]]
        for parse, cuts in ((optimal_tree, range(len(string) + 1)),
                            (parse_gene_string, runs + [len(string)])):
            got_calls, want_calls = [], []
            tree, score = parse(string, lambda p: got_calls.append(p) or score_of(p))
            want_tree, want = _dict_best_parse(
                string, cuts, lambda p: want_calls.append(p) or score_of(p))
            assert tree.text == want_tree.text
            assert type(score) is type(want)
            assert repr(score) == repr(want)
            assert got_calls == want_calls


def test_gene_tokens_containing_run_separator_keep_their_yield():
    def w(piece):
        return 0
    for string, text in ((("x#2", "y"), "(x#2 y)"),
                         (("x#2", "x#2", "y"), "((x#2 x#2) y)"),
                         (("#", "a", "a"), "(# (a a))"),
                         (("a#",), "a#")):
        tree, _ = parse_gene_string(string, w)
        assert tree.text == text
        assert tree_yield(tree) == string


def test_pipeline_preserves_yield():
    rng = random.Random(63)
    weight = SubstringFrequencyWeight([("a", "b", "b"), ("b", "b", "c")])
    for _ in range(60):
        string = [rng.choice("abc") for _ in range(rng.randint(1, 9))]
        tree, _ = parse_gene_string(string, weight)
        assert list(tree_yield(tree)) == string


def test_substring_frequency_weight():
    w = SubstringFrequencyWeight([("a", "b", "c"), ("b", "c", "d")])
    assert w(("b", "c")) == 2
    assert w(("a", "b")) == 1
    assert w(("d", "a")) == 0
    assert w(("a",)) == 0  # singletons score zero


def _count_containing(corpus, piece):
    """The scorer as first defined: per corpus string, any offset whose
    slice equals the piece."""
    piece = tuple(piece)
    if len(piece) < 2:
        return 0
    count = 0
    for s in corpus:
        s = tuple(s)
        n, m = len(s), len(piece)
        if any(s[i:i + m] == piece for i in range(n - m + 1)):
            count += 1
    return count


def test_substring_frequency_weight_matches_offset_scan():
    rng = random.Random(71)
    tokens = ["a", "b", "a b", "x\ny", "#", ""]
    absent = ["c", "a#", " ", "ab"]
    for _ in range(300):
        pool = rng.sample(tokens, rng.randint(1, len(tokens)))
        corpus = [[rng.choice(pool) for _ in range(rng.randint(0, 8))]
                  for _ in range(rng.randint(0, 5))]
        w = SubstringFrequencyWeight(iter(corpus))
        for _ in range(20):
            piece = [rng.choice(tokens + absent) for _ in range(rng.randint(0, 4))]
            if corpus and corpus[0] and rng.random() < 0.5:
                i = rng.randrange(len(corpus[0]))
                piece = corpus[0][i:i + rng.randint(0, 4)]
            expected = _count_containing(corpus, piece)
            assert w(piece) == w(tuple(piece)) == w(iter(piece)) == expected
    w = SubstringFrequencyWeight([("a", "b", "a", "b"), ("a b", "#"), ()])
    assert w(["a", "b"]) == 1  # two occurrences in one string count once
    assert w(x for x in ("a b", "#")) == 1
    assert w([]) == w(["a"]) == w(["a b"]) == 0
    for token in absent:
        assert w(["a", token]) == w([token, "b"]) == 0
    assert SubstringFrequencyWeight([])(["a", "b"]) == 0


def test_substring_automaton_is_exact_and_linear():
    # repeated strings count each time, runs of one token, empty strings,
    # and tokens holding spaces or "#"; every span of every corpus string
    # and random pieces; at most 2N + 1 states for N corpus tokens
    rng = random.Random(73)
    tokens = ["a", "b", "a b", "#", "a#", " "]
    for _ in range(400):
        pool = rng.sample(tokens, rng.randint(1, len(tokens)))
        corpus = [[rng.choice(pool) for _ in range(rng.randint(0, 10))]
                  for _ in range(rng.randint(0, 6))]
        corpus += [["a"] * rng.randint(1, 8) for _ in range(rng.randint(0, 2))]
        corpus += [list(rng.choice(corpus)) for _ in range(rng.randint(0, 3)) if corpus]
        rng.shuffle(corpus)
        w = SubstringFrequencyWeight(corpus)
        assert len(w._next) <= 2 * sum(map(len, corpus)) + 1
        pieces = [s[i:j] for s in corpus for i in range(len(s)) for j in range(i + 2, len(s) + 1)]
        pieces += [[rng.choice(tokens + ["c"]) for _ in range(rng.randint(0, 5))]
                   for _ in range(20)]
        for piece in pieces:
            assert w(piece) == _count_containing(corpus, piece)
    w = SubstringFrequencyWeight([("a", "a", "a", "a"), ("a", "a", "a", "a"), ("a", "a"), ()])
    assert [w(["a"] * n) for n in range(6)] == [0, 0, 3, 2, 2, 0]


def test_runs_stay_together():
    # with run preprocessing, a long run is confined to one subtree
    weight = SubstringFrequencyWeight([("b", "a"), ("b", "a", "a", "a")])
    tree, _ = parse_gene_string(["b", "a", "a", "a"], weight)
    assert tree.text == "(b (a (a a)))"


# -- swap distance ------------------------------------------------------------


def test_swap_distance_identity():
    rng = random.Random(64)
    for _ in range(50):
        t = random_binary_tree(rng, ["x", "y", "z"], 6)
        assert swap_distance(t, t) == 0


def test_swap_distance_single_swap():
    ab = RankedAlphabet(["x", "y"], 2)
    t = parse_structured_string("(x y)", ab)
    s = parse_structured_string("(y x)", ab)
    assert swap_distance(t, s) == 1


def test_swap_distance_incompatible_leaves():
    assert swap_distance(Leaf("a"), Leaf("b")) == INF


def test_swap_distance_leaf_vs_node():
    t = Node((Leaf("a"), Leaf("a")))
    assert swap_distance(t, Leaf("a")) == INF


def test_swap_distance_nested():
    ab = RankedAlphabet(["x", "y", "z", "w"], 2)
    t = parse_structured_string("((x y) (z w))", ab)
    s = parse_structured_string("((y x) (w z))", ab)
    assert swap_distance(t, s) == 2
    crossed = parse_structured_string("((z w) (x y))", ab)
    assert swap_distance(t, crossed) == 1


def test_swap_distance_deep_chains():
    assert swap_distance(right_chain("a", 2000), right_chain("a", 2000)) == 0
    assert swap_distance(right_chain("a", 2000), right_chain("a", 1999)) == INF
    t = Node((right_chain("a", 1500), Leaf("b")))
    assert swap_distance(t, Node((Leaf("b"), right_chain("a", 1500)))) == 1


# -- duplication distance ------------------------------------------------------


def test_duplication_distance_chains():
    assert duplication_distance(right_chain("a", 3), right_chain("a", 5)) == 2
    assert duplication_distance(right_chain("a", 4), right_chain("b", 4)) == INF


def test_duplication_distance_childwise_sum():
    t = Node((right_chain("a", 2), right_chain("b", 3)))
    s = Node((right_chain("a", 4), right_chain("b", 3)))
    assert duplication_distance(t, s) == 2


def test_duplication_distance_leaf_vs_chain():
    assert duplication_distance(Leaf("a"), right_chain("a", 4)) == 3


def test_duplication_distance_deep_chains():
    assert duplication_distance(right_chain("a", 2000), right_chain("a", 1500)) == 500
    t = Node((right_chain("a", 1200), Node((Leaf("b"), right_chain("c", 1100)))))
    s = Node((right_chain("a", 1000), Node((Leaf("b"), right_chain("c", 1300)))))
    assert duplication_distance(t, s) == 400


def right_spine(tokens):
    """(t1 (t2 (... tn))): a right chain when the tokens are all one."""
    tree = Leaf(tokens[-1])
    for tok in reversed(tokens[:-1]):
        tree = Node((Leaf(tok), tree))
    return tree


def grown(rng, t, tokens):
    """t with some leaves and right chains replaced by a right chain of
    their token or a right spine of that token and another, and some
    binary nodes' children swapped."""
    shape = chain_shape(t)
    if shape and rng.random() < 0.5:
        n = rng.randint(1, 4)
        if rng.random() < 0.3:
            return right_spine([rng.choice((shape[0], rng.choice(tokens))) for _ in range(n)])
        return right_chain(shape[0], n)
    if isinstance(t, Leaf):
        return t
    kids = [grown(rng, c, tokens) for c in t.children]
    if len(kids) == 2 and rng.random() < 0.2:
        kids.reverse()
    return Node(kids)


def test_distance_walks_match_the_references():
    # one memo per distance across every call, as the corpus oracle keeps;
    # _swap is asked only with a binary second tree, as the oracle asks it
    rng = random.Random(66)
    memos = {"duplication": {}, "swap": {}}
    finite = Counter()
    for _ in range(3000):
        tokens = ["a", "b", "c"][:rng.randint(2, 3)]
        if rng.random() < 0.2:
            base = random_tree(rng, RankedAlphabet(tokens, 3), 4)
        else:
            base = random_binary_tree(rng, tokens, 7)
        t = grown(rng, base, tokens)
        s = grown(rng, t if rng.random() < 0.8 else base, tokens)
        want = reference_duplication_distance(t, s)
        assert _dup(t, s, memos["duplication"]) == want, (t.text, s.text)
        assert _dup(s, t, memos["duplication"]) == want, (s.text, t.text)
        finite["duplication"] += want != INF
        if s.binary:
            want = reference_swap_distance(t, s)
            assert _swap(t, s, memos["swap"]) == want, (t.text, s.text)
            finite["swap"] += want != INF
            if t.binary:
                assert duplication_distance(t, s) == reference_duplication_distance(t, s)
                assert swap_distance(t, s) == want
    assert min(finite.values()) > 300, finite
    assert all(memos.values())


def test_duplication_walk_reads_chain_shapes_only_where_a_leaf_meets_a_node(monkeypatch):
    # two chains split pair by pair: reading each pair's chain shape made
    # the walk quadratic in the chain length
    shape, calls = right_chain_shape, []

    def counted(t):
        calls.append(t)
        return shape(t)

    monkeypatch.setattr(geneclusters, "right_chain_shape", counted)
    chain = right_chain("a", 3000)
    for near_chain, want in ((right_spine(["a"] * 2999 + ["b"]), INF),
                             (right_spine(["a"] * 2998 + ["b", "b"]), INF),
                             (right_chain("a", 2990), 10)):
        calls.clear()
        assert duplication_distance(chain, near_chain) == want
        assert len(calls) <= 2


def test_right_chain_detection():
    assert right_chain_shape(Leaf("q")) == ("q", 1)
    assert right_chain_shape(right_chain("q", 5)) == ("q", 5)
    assert right_chain_shape(Node((right_chain("q", 2), Leaf("q")))) is None
    assert right_chain_shape(Node((Leaf("a"), Leaf("b")))) is None
    assert right_chain_shape(Node((Leaf("q"), right_chain("r", 2)))) is None
    assert right_chain_shape(Node((Leaf("q"), Leaf("q"), Leaf("q")))) is None
    assert right_chain_shape(right_chain("q", 2000)) == ("q", 2000)


def test_distances_symmetric_and_reflexive():
    rng = random.Random(65)
    for _ in range(500):
        t = random_binary_tree(rng, ["a", "b"], 5)
        s = random_binary_tree(rng, ["a", "b"], 5)
        assert swap_distance(t, t) == 0
        assert duplication_distance(t, t) == 0
        assert swap_distance(t, s) == swap_distance(s, t)
        assert duplication_distance(t, s) == duplication_distance(s, t)


def test_distances_require_binary_trees():
    t = Node((Leaf("a"), Leaf("a"), Leaf("a")))
    with pytest.raises(ValueError):
        swap_distance(t, t)
    with pytest.raises(ValueError):
        duplication_distance(t, t)


def _walked_is_binary(t):
    # the reference: a walk of every node
    stack = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, Node):
            if len(n.children) != 2:
                return False
            stack.extend(n.children)
    return True


def _with_hole(rng, t):
    """t with one of its leaves, picked at random, made the hole."""
    if isinstance(t, Leaf):
        return HOLE
    kids = list(t.children)
    slot = rng.randrange(len(kids))
    kids[slot] = _with_hole(rng, kids[slot])
    return Node(kids)


def test_binary_flag_matches_the_walk():
    rng = random.Random(29)
    alphabet = RankedAlphabet(["a", "b"], 3)
    seen = set()
    for _ in range(400):
        t = random_tree(rng, alphabet, 6)
        c = Context(_with_hole(rng, t))
        for tree in (t, c.root):
            assert tree.binary is _walked_is_binary(tree)
            seen.add(tree.binary)
    for c in enumerate_contexts(alphabet, 3):
        assert c.root.binary is _walked_is_binary(c.root)
    assert seen == {True, False}
