import itertools
import random

import pytest

from skelgram.trees import (Context, HOLE, IDENTITY_CONTEXT, Leaf, Node,
                            RankedAlphabet, TreeSyntaxError, canonical_key,
                            compose, compose_contexts, enumerate_full_trees, full_trees,
                            parse_context, parse_structured_string,
                            sigma_contexts, subtrees,
                            tree_yield, tuples_holding)

from conftest import random_tree

AB2 = RankedAlphabet(["a", "b"], 2)
ABC = RankedAlphabet(["a", "b", "c"], 2)
ABC3 = RankedAlphabet(["a", "b", "c"], 3)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        RankedAlphabet([], 2)
    with pytest.raises(ValueError):
        RankedAlphabet(["a"], 0)
    with pytest.raises(ValueError):
        RankedAlphabet(["a", "a"], 2)
    with pytest.raises(ValueError):
        RankedAlphabet(["a b"], 2)
    with pytest.raises(ValueError):
        RankedAlphabet(["(x"], 2)


def test_parse_single_leaf():
    assert parse_structured_string("a", ABC) == Leaf("a")


def test_parse_structure():
    t = parse_structured_string("(a (b c))", ABC)
    assert t == Node((Leaf("a"), Node((Leaf("b"), Leaf("c")))))


def test_structure_distinguishes_equal_yields():
    t1 = parse_structured_string("((a b) c)", ABC)
    t2 = parse_structured_string("(a (b c))", ABC)
    assert t1 != t2
    assert tree_yield(t1) == tree_yield(t2) == ("a", "b", "c")


@pytest.mark.parametrize("bad", [
    "", "(a", "a)", "()", "(a b c)", "(d)", "a b", "(a (b)", "<>",
])
def test_parse_errors(bad):
    with pytest.raises(TreeSyntaxError):
        parse_structured_string(bad, AB2)


@pytest.mark.parametrize("bad, message", [
    ("", "empty structured string"),
    ("(a", "unbalanced parentheses: missing ')'"),
    ("a)", "trailing input after tree: ')'"),
    (") a", "unbalanced parentheses: stray ')'"),
    ("(a ())", "empty node '()'"),
    ("(a b a zz)", "unknown token: 'zz'"),
    ("(a a a) zz", "node arity 3 exceeds max rank 2"),
    ("(a <> zz)", "hole marker not allowed in a tree"),
    ("(a ) (b)", "trailing input after tree: '('"),
])
def test_parse_error_messages(bad, message):
    with pytest.raises(TreeSyntaxError) as info:
        parse_structured_string(bad, AB2)
    assert str(info.value) == message


def test_parse_deep_chain_without_recursion():
    chain = Leaf("a")
    for _ in range(1999):
        chain = Node((Leaf("b"), chain))
    assert parse_structured_string(chain.text, AB2) == chain


def test_parse_accepts_arbitrary_whitespace():
    t = parse_structured_string("  ( a\t( b   c ) ) ", ABC)
    assert t.text == "(a (b c))"


def test_roundtrip_random_trees():
    rng = random.Random(11)
    for _ in range(200):
        t = random_tree(rng, ABC, 5)
        assert parse_structured_string(t.text, ABC) == t


def test_roundtrip_contexts():
    rng = random.Random(12)
    for _ in range(100):
        t = random_tree(rng, ABC, 4)
        ctx = Context(Node((HOLE, t.children[0] if isinstance(t, Node) else t)))
        assert parse_context(ctx.text, ABC) == ctx


def test_context_needs_exactly_one_hole():
    with pytest.raises(TreeSyntaxError, match="exactly one hole, found 0"):
        parse_context("(a b)", AB2)
    with pytest.raises(TreeSyntaxError, match="exactly one hole, found 2"):
        parse_context("(<> <>)", AB2)
    with pytest.raises(ValueError, match="exactly one hole, found 3"):
        Context(Node((HOLE, Node((HOLE, HOLE)))))


def hole_path(c) -> tuple:
    """The child indices from c's root down to its hole, read off `levels`:
    each level's hole index is the count of its left siblings."""
    return tuple(len(left) for left, _ in c.levels)


def test_context_path_leads_to_the_hole():
    assert hole_path(IDENTITY_CONTEXT) == ()
    assert hole_path(parse_context("(<> b)", AB2)) == (0,)
    assert hole_path(parse_context("((a b) (a (b <>)))", AB2)) == (1, 1, 1)
    assert hole_path(parse_context("((a <>) b)", AB2)) == (0, 1)
    c = parse_context("((a b) (a (b <> a)))", ABC3)
    node = c.root
    for (left, right), i in zip(c.levels, hole_path(c)):
        assert node.children == left + (node.children[i],) + right
        node = node.children[i]
    assert node is HOLE


def test_deep_context_without_recursion():
    # a context 2,000 levels deep: (b (b (... (b <>))))
    text = "(b " * 1999 + "<>" + ")" * 1999
    c = parse_context(text, AB2)
    assert hole_path(c) == (1,) * 1999
    t = compose(c, Leaf("a"))
    assert t == parse_structured_string(text.replace("<>", "a"), AB2)
    assert tree_yield(t) == ("b",) * 1999 + ("a",)
    twice = compose_contexts(c, c)
    assert hole_path(twice) == (1,) * 3998
    assert compose(twice, Leaf("a")) == compose(c, t)


def test_compose_identity():
    t = parse_structured_string("(a (b c))", ABC)
    assert compose(IDENTITY_CONTEXT, t) == t


def test_compose_examples():
    c = parse_context("(<> b)", AB2)
    assert compose(c, Leaf("a")).text == "(a b)"
    c2 = parse_context("(a (<> c))", ABC)
    t = parse_structured_string("(a b)", ABC)
    assert compose(c2, t).text == "(a ((a b) c))"


def test_compose_size_arithmetic():
    rng = random.Random(13)
    for _ in range(100):
        t = random_tree(rng, ABC, 4)
        c = parse_context("(a (<> c))", ABC)
        assert compose(c, t).size == c.size - 1 + t.size


def test_compose_contexts_associativity():
    rng = random.Random(14)
    outer = parse_context("((a b) <>)", ABC)
    inner = parse_context("(<> c)", ABC)
    for _ in range(50):
        t = random_tree(rng, ABC, 4)
        assert compose(outer, compose(inner, t)) == compose(compose_contexts(outer, inner), t)


def test_compose_yield_substitution():
    outer = parse_context("(a (<> c))", ABC)
    t = parse_structured_string("(b b)", ABC)
    composed = compose(outer, t)
    assert tree_yield(composed) == ("a", "b", "b", "c")


def test_tree_yield_reads_leaves_left_to_right():
    def leaves(t):
        return (t.token,) if isinstance(t, Leaf) else sum(map(leaves, t.children), ())

    assert tree_yield(Leaf("a")) == ("a",)
    assert tree_yield(Leaf("x#2")) == ("x#2",)
    assert tree_yield(parse_structured_string("((a b) (c (a)))", ABC)) == ("a", "b", "c", "a")
    rng = random.Random(17)
    for _ in range(100):
        t = random_tree(rng, ABC, 5)
        assert tree_yield(t) == leaves(t)


def test_subtrees_examples():
    assert [s.text for s in subtrees(Leaf("a"))] == ["a"]
    t = parse_structured_string("(a b)", AB2)
    assert [s.text for s in subtrees(t)] == ["a", "b", "(a b)"]


def test_subtrees_bounded_by_size():
    rng = random.Random(15)
    for _ in range(100):
        t = random_tree(rng, ABC, 5)
        assert len(subtrees(t)) <= t.size


def test_tuples_holding_yield_each_tuple_that_holds_the_new_tree_once():
    rng = random.Random(27)
    for _ in range(40):
        pool = list({t.text: t for t in (random_tree(rng, ABC3, 4)
                                         for _ in range(rng.randint(1, 5)))}.values())
        new, old = pool[0], pool[1:]
        for p in (1, 2, 3):
            got = list(tuples_holding(new, old, p))
            want = [combo for k in range(1, p + 1)
                    for combo in itertools.product(old + [new], repeat=k) if new in combo]
            assert len(set(got)) == len(got)
            assert sorted(got, key=str) == sorted(want, key=str)
            # grouped by length, then by the first slot the new tree fills
            groups = [(len(c), c.index(new)) for c in got]
            assert groups == sorted(groups)
    assert list(tuples_holding(Leaf("a"), [], 2)) == [(Leaf("a"),), (Leaf("a"), Leaf("a"))]


def test_sigma_contexts_examples():
    assert [c.text for c in sigma_contexts([], AB2)] == ["(<>)"]
    got = [c.text for c in sigma_contexts([Leaf("a")], AB2)]
    assert got == ["(<>)", "(<> a)", "(a <>)"]
    assert [hole_path(c) for c in sigma_contexts([Leaf("a")], AB2)] == [(0,), (0,), (1,)]
    for c in sigma_contexts([Leaf("a"), Leaf("b")], AB2):
        assert len(hole_path(c)) == 1
        assert c.root.children[hole_path(c)[0]] is HOLE


def test_canonical_key_orders_by_size_first():
    small = parse_structured_string("(a a)", AB2)
    big = parse_structured_string("((a a) a)", AB2)
    assert canonical_key(small) < canonical_key(big)


def test_enumerate_full_trees_counts():
    # binary bracketings of strings of length <= 3 over 2 tokens:
    # 2 + 4 + 2*8 = 22
    got = enumerate_full_trees(["a", "b"], 3)
    assert len(got) == 22
    assert len(set(got)) == 22
    # ranks 2..3 over one token: a, (a a), ((a a) a), (a (a a)), (a a a)
    assert len(enumerate_full_trees(["a"], 3, max_rank=3)) == 5


def sorted_full_trees(tokens, max_leaves, max_rank):
    """The reference: every tree built by leaf count, then sorted at once."""
    by_leaves = {1: [Leaf(tok) for tok in tokens]}
    for n in range(2, max_leaves + 1):
        by_leaves[n] = []
        for k in range(2, min(n, max_rank) + 1):
            for cut in itertools.combinations(range(1, n), k - 1):
                split = [b - a for a, b in zip((0,) + cut, cut + (n,))]
                for combo in itertools.product(*[by_leaves[m] for m in split]):
                    by_leaves[n].append(Node(combo))
    return sorted((t for trees in by_leaves.values() for t in trees), key=canonical_key)


@pytest.mark.parametrize("max_rank", [2, 3, 4])
@pytest.mark.parametrize("tokens", [["a"], ["b", "a"], ["a", "b", "c"]])
def test_full_trees_yields_the_sorted_enumeration(max_rank, tokens):
    for max_leaves in range(1, 7):
        got = [t.text for t in full_trees(tokens, max_leaves, max_rank)]
        assert got == [t.text for t in sorted_full_trees(tokens, max_leaves, max_rank)]


def test_full_trees_sizes_mix_leaf_counts_from_rank_3():
    # ((a a) (a a)) and ((a a a) a a) both have 7 nodes; the generator must
    # order such trees by height and text, not by leaf count
    leaves = {len(tree_yield(t)) for t in full_trees(["a"], 5, 3) if t.size == 7}
    assert leaves == {4, 5}


def test_full_trees_builds_a_size_only_when_it_is_reached():
    trees = full_trees(["a", "b"], 30)  # all of them would not fit in memory
    assert [t.text for t in itertools.islice(trees, 7)] == [
        "a", "b", "(a a)", "(a b)", "(b a)", "(b b)", "((a a) a)"]


def recursive_fields(t):
    """Reference (text, size, height) of a tree, read off its children by
    recursion."""
    if not isinstance(t, Node):
        return t.text, t.size, t.height
    parts = [recursive_fields(c) for c in t.children]
    return ("(" + " ".join(text for text, _, _ in parts) + ")",
            1 + sum(size for _, size, _ in parts), 1 + max(height for _, _, height in parts))


@pytest.mark.parametrize("max_rank", [1, 2, 3])
def test_node_fields_match_recursive_reference(max_rank):
    trees = list(full_trees(["a", "b"], 5, max_rank))
    trees += [Node((t,)) for t in trees[:50]] + [Node((HOLE, t)) for t in trees[:50]]
    for t in trees:
        assert (t.text, t.size, t.height) == recursive_fields(t)


def node_built(c, t):
    """Reference compose: each spine node through Node(...), bottom-up."""
    spine = []
    node = c.root
    for i in hole_path(c):
        spine.append((node.children, i))
        node = node.children[i]
    for kids, i in reversed(spine):
        t = Node(kids[:i] + (t,) + kids[i + 1:])
    return t


def assert_spine_matches(c, t, reference=True):
    """compose(c, t) equals node_built(c, t) node by node down the spine:
    same fields, the same children, and the equality and hash of the tree
    parsed from its text; `reference` also checks the fields against
    recursive_fields (which recurses, so shallow contexts only)."""
    composed, built = compose(c, t), node_built(c, t)
    text = composed.text
    parsed = (parse_context(text, ABC3).root if "<>" in text
              else parse_structured_string(text, ABC3))
    assert composed == parsed and hash(composed) == hash(parsed)
    for i in hole_path(c) + (None,):
        assert type(composed) is type(built)
        assert (composed.text, composed.size, composed.height) == (
            built.text, built.size, built.height)
        if reference:
            assert (composed.text, composed.size, composed.height) == recursive_fields(composed)
        if i is None:
            assert composed is t
            break
        assert type(composed.children) is tuple and composed.children == built.children
        assert all(a is b for j, (a, b) in enumerate(zip(composed.children, built.children))
                   if j != i)
        composed, built = composed.children[i], built.children[i]


def test_compose_builds_the_spine_node_builds():
    rng = random.Random(17)
    for _ in range(300):
        root = HOLE
        for _ in range(rng.randint(1, 4)):  # wrap the hole 1..4 levels deep
            k = rng.randint(1, 3)
            kids = [random_tree(rng, ABC3, 3) for _ in range(k)]
            kids[rng.randrange(k)] = root
            root = Node(kids)
        c = Context(root)
        for _ in range(3):
            assert_spine_matches(c, random_tree(rng, ABC3, 4))
        assert_spine_matches(c, Leaf("a"))
    for k in (1, 2, 3):  # every hole position of every rank
        for hole_at in range(k):
            kids = [random_tree(rng, ABC3, 3) for _ in range(k)]
            kids[hole_at] = HOLE
            assert_spine_matches(Context(Node(kids)), random_tree(rng, ABC3, 4))


def test_compose_contexts_builds_the_spine_node_builds():
    rng = random.Random(18)
    ctxs = sigma_contexts([Leaf("a"), parse_structured_string("(b c)", ABC3)], ABC3)
    for _ in range(100):
        outer, inner = rng.choice(ctxs), rng.choice(ctxs)
        # the inner root holds HOLE, so the spine nodes hold it as a child
        assert_spine_matches(outer, inner.root)
        both = compose_contexts(outer, inner)
        assert hole_path(both) == hole_path(outer) + hole_path(inner)
        t = random_tree(rng, ABC3, 3)
        assert_spine_matches(both, t)
        assert compose(both, t) == compose(outer, compose(inner, t))


def test_compose_builds_the_spine_of_a_deep_context():
    text = "(b " * 1999 + "<>" + ")" * 1999  # as in test_deep_context_without_recursion
    c = parse_context(text, AB2)
    assert_spine_matches(c, Leaf("a"), reference=False)
    assert_spine_matches(c, parse_structured_string("(a (b a))", AB2), reference=False)
    twice = compose_contexts(c, c)
    assert_spine_matches(c, c.root, reference=False)
    assert_spine_matches(twice, Leaf("a"), reference=False)


def test_node_fields_on_a_long_right_chain():
    tree = Leaf("a")
    for _ in range(1999):
        tree = Node((Leaf("a"), tree))
    assert tree.text == "(a " * 1999 + "a" + ")" * 1999
    assert (tree.size, tree.height) == (3999, 2000)


def test_node_needs_a_child_and_takes_any_iterable():
    with pytest.raises(ValueError, match="internal node needs at least one child"):
        Node(())
    a, b = Leaf("a"), Leaf("b")
    tree = Node(c for c in (a, Node([b])))
    assert tree.children == (a, Node((b,)))
    assert (tree.text, tree.size, tree.height) == ("(a (b))", 4, 3)
