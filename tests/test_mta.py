import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from skelgram.extract import extract_cmta
from skelgram.geneclusters import right_chain
from skelgram.grammar import load_wcfg
from skelgram.learner import learn
from skelgram.mta import (MAX_DENSE_COEFFICIENTS, MTA, EvaluationError, TooLargeToWrite,
                          format_mta, parse_mta)
from skelgram.multilinear import MultilinearMap, apply
from skelgram.scalars import float_text
from skelgram.teacher import SimulatedTeacher
from skelgram.trees import (Context, HOLE, Leaf, Node, RankedAlphabet,
                            enumerate_full_trees, parse_structured_string, compose)

from conftest import (FIXTURES, enumerate_trees, random_cmta, random_pmta, random_tree,
                      with_weights)


def leaf_count_mta():
    """Two-dimensional automaton computing the number of leaves of a tree."""
    alphabet = RankedAlphabet(["a"], 2)
    m2 = MultilinearMap(2, 2, {(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}})
    return MTA(alphabet, 2, {"a": [1, 1]}, {2: m2}, [1, 0])


def test_eval_vector_on_leaf():
    a = leaf_count_mta()
    assert a.eval_vector(Leaf("a")) == [1, 1]


def test_eval_vector_three_leaf_tree():
    a = leaf_count_mta()
    t = parse_structured_string("((a a) a)", a.alphabet)
    assert a.eval_vector(t) == [3, 1]
    assert a.eval(t) == 3


@pytest.mark.parametrize("one", [1, Fraction(1), 1.0])
def test_eval_vector_keeps_entry_types(one):
    # leaves give a copy of their own vector; node gaps get the map's zero
    zero = one * 0
    alphabet = RankedAlphabet(["a", "b"], 2)
    m2 = MultilinearMap(2, 2, {(0, 1): {0: one}, (1, 0): {0: one}, (1, 1): {1: one}},
                        zero_scalar=zero)
    a = MTA(alphabet, 2, {"a": [one, one], "b": [one, zero]}, {2: m2}, [one, zero])
    for text, want in [("a", [1, 1]), ("b", [1, 0]), ("(a a)", [2, 1]),
                       ("(a b)", [1, 0]), ("(b b)", [0, 0]), ("(a (b b))", [0, 0])]:
        vec = a.eval_vector(parse_structured_string(text, alphabet))
        assert vec == want
        assert [type(x) for x in vec] == [type(one)] * 2
    a.eval_vector(Leaf("b")).append(one)
    assert a.eval_vector(Leaf("b")) == [one, zero]


def test_eval_single_leaf_dot_product():
    a = leaf_count_mta()
    assert a.eval(Leaf("a")) == 1  # (1,0) . (1,1)


def test_zero_maps_give_zero_everywhere():
    alphabet = RankedAlphabet(["a"], 2)
    a = MTA(alphabet, 2, {"a": [0, 0]}, {}, [1, 1])
    rng = random.Random(31)
    for _ in range(20):
        assert a.eval(random_tree(rng, alphabet, 4)) == 0


def test_zero_output_vector():
    a = leaf_count_mta()
    b = MTA(a.alphabet, 2, a.leaf_maps, a.node_maps, [0, 0])
    rng = random.Random(32)
    for _ in range(20):
        assert b.eval(random_tree(rng, a.alphabet, 4)) == 0


def test_eval_errors():
    a = leaf_count_mta()
    wide = RankedAlphabet(["a"], 3)
    t = Node((Leaf("a"), Leaf("a"), Leaf("a")))
    with pytest.raises(EvaluationError):
        a.eval(t)
    with pytest.raises(EvaluationError):
        a.eval(Leaf("zzz"))


def test_is_positive():
    a = leaf_count_mta()
    assert a.is_positive()
    neg = MTA(a.alphabet, 2, {"a": [1, -1]}, a.node_maps, a.output)
    assert not neg.is_positive()
    assert MTA.zero(a.alphabet).is_positive()


def test_is_colinear_flags_doubled_column():
    alphabet = RankedAlphabet(["a"], 2)
    m2 = MultilinearMap(2, 2, {(0, 0): {0: 1, 1: 1}})  # two entries in one column
    a = MTA(alphabet, 2, {"a": [1, 0]}, {2: m2}, [1, 0])
    assert not a.is_colinear_mta()


def test_is_colinear_zero_automaton():
    assert MTA.zero(RankedAlphabet(["a"], 2)).is_colinear_mta()


def test_leaf_vector_counts_as_column():
    # the leaf-count automaton's mu_a has two non-zero entries
    assert not leaf_count_mta().is_colinear_mta()


def test_replacement_property_on_random_cmtas():
    # co-linear tree vectors stay co-linear under any context
    from skelgram.multilinear import colinear_witness
    from skelgram.trees import compose_contexts

    rng = random.Random(33)
    checked = 0
    while checked < 25:
        alphabet = RankedAlphabet(["a", "b"], 2)
        a = random_cmta(rng, alphabet, rng.randint(1, 3))
        t1 = random_tree(rng, alphabet, 4)
        t2 = random_tree(rng, alphabet, 4)
        v1, v2 = a.eval_vector(t1), a.eval_vector(t2)
        alpha = colinear_witness(v1, v2)
        if alpha is None:
            continue
        ctx = Context(Node((HOLE, random_tree(rng, alphabet, 3))))
        for depth in range(rng.randint(0, 2)):
            outer = Context(Node((random_tree(rng, alphabet, 2), HOLE)))
            ctx = compose_contexts(outer, ctx)
        w1 = a.eval_vector(compose(ctx, t1))
        w2 = a.eval_vector(compose(ctx, t2))
        assert w1 == [alpha * x for x in w2]
        checked += 1


def test_evaluation_is_compositional():
    # a context's effect depends on the subtree only through its vector
    alphabet = RankedAlphabet(["a", "b"], 2)
    m2 = MultilinearMap(2, 2, {col: {0: 1} for col in itertools.product(range(2), repeat=2)})
    a = MTA(alphabet, 2, {"a": [1, 0], "b": [1, 0]}, {2: m2}, [1, 1])
    t1, t2 = Leaf("a"), Leaf("b")
    assert a.eval_vector(t1) == a.eval_vector(t2)
    rng = random.Random(34)
    for _ in range(20):
        ctx = Context(Node((random_tree(rng, alphabet, 3), HOLE)))
        assert a.eval_vector(compose(ctx, t1)) == a.eval_vector(compose(ctx, t2))


def test_serialization_roundtrip():
    a = leaf_count_mta()
    text = format_mta(a)
    b = parse_mta(text)
    assert b.dim == a.dim
    assert b.output == a.output
    assert b.leaf_maps == a.leaf_maps
    assert b.node_maps[2] == a.node_maps[2]
    assert format_mta(b) == text


def test_float_roundtrip_prints_positive_zeros():
    # a negative first coefficient must not make the rank's zeros -0.0, in
    # a float automaton or in --float's printing of an exact one
    text = "mta d=2 p=1\nlambda: 1 0\nleaf a: 1 0\nrank 1:\n  -0.5 0\n  0 1\n"
    printed = ("mta d=2 p=1\nlambda: 1.0 0.0\nleaf a: 1.0 0.0\n"
               "rank 1:\n  -0.5 0.0\n  0.0 1.0\n")
    exact = parse_mta(text)
    assert format_mta(exact, float_text) == printed
    assert parse_mta(printed).node_maps == exact.node_maps
    a = MTA(exact.alphabet, 2, {"a": [1.0, 0.0]},
            {1: MultilinearMap(1, 2, {(0,): {0: -0.5}, (1,): {1: 1.0}}, 0.0)}, [1.0, 0.0])
    assert format_mta(a) == printed
    vec = a.eval_vector(Node((Leaf("a"),)))
    assert vec == [-0.5, 0.0]
    assert [math.copysign(1, x) for x in vec] == [-1, 1]


def test_serialization_roundtrip_random():
    rng = random.Random(35)
    for _ in range(10):
        alphabet = RankedAlphabet(["x", "y"], 2)
        a = random_cmta(rng, alphabet, rng.randint(0, 3))
        b = parse_mta(format_mta(a))
        t = random_tree(rng, alphabet, 4)
        assert a.eval(t) == b.eval(t)


def test_dimension_zero_automaton():
    a = MTA.zero(RankedAlphabet(["a"], 2))
    assert a.eval(Leaf("a")) == 0
    assert a.eval(Node((Leaf("a"), Leaf("a")))) == 0
    b = parse_mta(format_mta(a))
    assert b.dim == 0


def test_format_mta_refuses_more_than_the_bound_before_writing():
    alphabet = RankedAlphabet(["a"], 3)
    for dim, fits in ((55, True), (56, False)):  # 9,320,025 and 10,013,248 coefficients
        a = MTA(alphabet, dim, {"a": [Fraction(0)] * dim}, {}, [Fraction(0)] * dim)
        count = dim ** 4 + dim ** 3 + dim ** 2
        assert (count <= MAX_DENSE_COEFFICIENTS) == fits
        if not fits:
            with pytest.raises(TooLargeToWrite, match=f"would hold {count} coefficients"):
                format_mta(a)
    small = MTA(alphabet, 2, {"a": [Fraction(1), Fraction(0)]}, {}, [Fraction(1), Fraction(0)])
    assert parse_mta(format_mta(small)).leaf_maps == small.leaf_maps


def _unary_insertions(t):
    """t with one unary node put above each of its positions in turn."""
    yield Node((t,))
    if isinstance(t, Node):
        for i, child in enumerate(t.children):
            for sub in _unary_insertions(child):
                yield Node(t.children[:i] + (sub,) + t.children[i + 1:])


def _apply_everywhere(a, t, memo):
    """eval_support as it was: apply at every node, zero children or not."""
    support = memo.get(t.text)
    if support is None:
        if isinstance(t, Leaf):
            support = [(j, x) for j, x in enumerate(a.leaf_maps[t.token]) if x]
        else:
            support = apply(a.node_maps[len(t.children)],
                            [_apply_everywhere(a, c, memo) for c in t.children])
        memo[t.text] = support
    return support


def test_zero_child_gives_zero_node_as_apply_does():
    # every tree of <= 5 leaves over acrab's alphabet, those of <= 4 leaves
    # also with a unary node at each position, and every tree of depth <= 3
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    tokens = alphabet.leaf_symbols
    trees = enumerate_full_trees(tokens, 5) + enumerate_trees(alphabet, 3)
    trees += [u for t in enumerate_full_trees(tokens, 4) for u in _unary_insertions(t)]
    rng = random.Random(29)
    automata = [g.automaton(2), with_weights(load_wcfg(FIXTURES / "acrab.wcfg"), float).automaton(2),
                random_cmta(rng, alphabet, 4), random_pmta(rng, alphabet, 3)]
    for a in automata:
        memo = {}
        for t in trees:
            expected = _apply_everywhere(a, t, memo)
            got = a.eval_support(t)
            assert [(i, type(x), x) for i, x in got] == [(i, type(x), x) for i, x in expected]
    # the rank check still comes first: a wide node over a zero child raises
    zero = parse_structured_string("(AcrR AcrR)", alphabet)
    assert g.automaton(2).eval_support(zero) == []
    with pytest.raises(EvaluationError, match="rank 3 exceeds max rank 2"):
        g.automaton(2).eval_support(Node((zero, Leaf("AcrA"), Leaf("AcrB"))))


def _one_stack_walk(a, t, memo):
    """eval_support as it was before its walk down and walk up: one stack,
    a node revisited until its children are memoized."""
    stack = [t]
    while stack:
        s = stack[-1]
        support = memo.get(s.text)
        if support is None and isinstance(s, Leaf):
            if s.token not in a.leaf_maps:
                raise EvaluationError(f"unknown leaf token {s.token!r}")
            support = memo[s.text] = [(j, x) for j, x in enumerate(a.leaf_maps[s.token]) if x]
        elif support is None:
            args = [memo.get(c.text) for c in s.children]
            if None in args:
                stack.extend(c for c, v in zip(s.children, args) if v is None)
                continue
            k = len(args)
            if k > a.alphabet.max_rank:
                raise EvaluationError(f"rank {k} exceeds max rank {a.alphabet.max_rank}")
            support = memo[s.text] = apply(a.node_maps[k], args) if all(args) else []
        stack.pop()
    return support


def _outcome(weigh, t):
    """What weighing t gives: ("value", entries with their types) or ("error", message)."""
    try:
        got = weigh(t)
    except EvaluationError as exc:
        return "error", str(exc)
    if isinstance(got, list):
        return "value", [(i, type(x), x) for i, x in got]
    return "value", (type(got), got)


_X, _Y = Leaf("X"), Leaf("Y")
_A, _B, _C = Leaf("AcrA"), Leaf("AcrB"), Leaf("TolC")


@pytest.mark.parametrize("tree, message", [
    (Node((_X, _Y)), "unknown leaf token 'Y'"),
    (Node((_X, _A, _B)), "unknown leaf token 'X'"),
    (Node((Node((_A, _B, _C)), _Y)), "unknown leaf token 'Y'"),
    (Node((_X, Node((_A, _B, _C)))), "rank 3 exceeds max rank 2"),
], ids=lambda v: v.text if isinstance(v, Node) else None)
def test_a_tree_with_several_faults_raises_its_rightmost_first(tree, message):
    # subtrees are weighed in post-order, rightmost first: children before
    # their parent, so a wide node's leaves are checked before its rank
    a = load_wcfg(FIXTURES / "acrab.wcfg").automaton(2)
    with pytest.raises(EvaluationError) as caught:
        a.eval_support(tree)
    assert str(caught.value) == message


def test_walk_raises_and_memoizes_as_the_one_stack_walk():
    # random trees over acrab's tokens plus two unknown ones, with nodes up
    # to rank 3 against a rank-2 automaton: the same value or first error,
    # and the same memo after each tree, shared subtrees included
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    wide = RankedAlphabet(alphabet.leaf_symbols + ("X", "Y"), 3)
    rng = random.Random(41)
    trees = [random_tree(rng, wide, 6) for _ in range(3000)]
    trees += [Node((t, t)) for t in trees[:200]]
    faults = 0
    for a in (g.automaton(2), with_weights(load_wcfg(FIXTURES / "acrab.wcfg"), float).automaton(2),
              random_cmta(rng, alphabet, 3), random_pmta(rng, alphabet, 2)):
        memo = {}
        for t in trees:
            expected = _outcome(lambda t: _one_stack_walk(a, t, memo), t)
            assert _outcome(a.eval_support, t) == expected, t.text
            assert a._memo == memo, t.text
            faults += expected[0] == "error"
    assert faults > 1000


def _left_comb(token, count):
    tree = Leaf(token)
    for _ in range(count - 1):
        tree = Node((tree, Leaf(token)))
    return tree


def _complete(token, depth):
    tree = Leaf(token)
    for _ in range(depth):
        tree = Node((tree, tree))
    return tree


def test_deep_trees_are_weighed_without_recursion():
    # under a recursion limit far below the trees' depth (700, 700 and 11
    # levels, 2,048 leaves in the complete tree)
    g = load_wcfg(FIXTURES / "smalldup.wcfg")
    counter = leaf_count_mta()
    trees = [(_left_comb("a", 700), 700, 0), (right_chain("a", 700), 700,
              Fraction(4, 5) * Fraction(1, 5) ** 698), (_complete("a", 11), 2048, 0)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        for t, leaves, weight in trees:
            assert counter.eval(t) == leaves
            assert g.skeletal_weight(t) == weight
            assert g.automaton().eval(t) == weight
    finally:
        sys.setrecursionlimit(limit)


def test_hypothesis_value_weighs_as_the_extracted_automaton():
    # on a completed table's own trees, every tree of <= 5 leaves and random
    # trees with unknown leaves and wide nodes: the same value or first error
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    table = learn(SimulatedTeacher(g), alphabet).table
    hypothesis = extract_cmta(table)
    rng = random.Random(43)
    wide = RankedAlphabet(alphabet.leaf_symbols + ("X", "Y"), 3)
    trees = list(table._order) + enumerate_full_trees(alphabet.leaf_symbols, 5)
    trees += [random_tree(rng, wide, 5) for _ in range(1000)]
    faults = 0
    for t in trees:
        expected = _outcome(hypothesis.eval, t)
        assert _outcome(table.hypothesis_value, t) == expected, t.text
        faults += expected[0] == "error"
    assert faults > 300
