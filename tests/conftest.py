"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here recompute quantities by explicit enumeration (taggings,
binary parses, Hankel rows) and never call the production code paths they
are used to check.
"""
import contextlib
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from skelgram import learner
from skelgram.geneclusters import SubstringFrequencyWeight, parse_gene_string
from skelgram.mta import MTA
from skelgram.multilinear import MultilinearMap
from skelgram.trees import (HOLE, Context, Leaf, Node, RankedAlphabet,
                            canonical_key)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCHMARK_GEN = Path(__file__).resolve().parent.parent / "benchmarks" / "gen.py"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def random_tree(rng, alphabet, max_depth):
    if max_depth <= 1 or rng.random() < 0.3:
        return Leaf(rng.choice(alphabet.leaf_symbols))
    k = rng.randint(1, alphabet.max_rank)
    return Node(tuple(random_tree(rng, alphabet, max_depth - 1) for _ in range(k)))


def random_binary_tree(rng, tokens, max_leaves):
    n = rng.randint(1, max_leaves)
    return _random_shape(rng, [rng.choice(tokens) for _ in range(n)])


def _random_shape(rng, tokens):
    if len(tokens) == 1:
        return Leaf(tokens[0])
    split = rng.randint(1, len(tokens) - 1)
    return Node((_random_shape(rng, tokens[:split]),
                 _random_shape(rng, tokens[split:])))


def learn_corpus_entries(seed):
    """The learn-corpus benchmark's corpus for `seed` (its four templates,
    genes renamed and frequencies permuted by benchmarks/gen.py), parsed as
    the benchmark parses it: [(tree, Fraction frequency)]."""
    spec = importlib.util.spec_from_file_location("gen", BENCHMARK_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    strings = gen.gene_corpus(random.Random(seed))
    weight = SubstringFrequencyWeight([s for s, _ in strings])
    return [(parse_gene_string(s, weight)[0], Fraction(f)) for s, f in strings]


@contextlib.contextmanager
def observing_rounds(observer):
    """Within the block, `learn` calls observer(table, hypothesis) on every
    hypothesis as it is extracted: one per equivalence query, from the
    table as it stands when the query is asked.  The tables built while a
    counterexample is processed are not extracted; wrap
    `ObservationTable.add_counterexample` to see those."""
    extract = learner.extract_cmta

    def extract_and_observe(table):
        hypothesis = extract(table)
        observer(table, hypothesis)
        return hypothesis

    learner.extract_cmta = extract_and_observe
    try:
        yield
    finally:
        learner.extract_cmta = extract


# -- reference edit distances -------------------------------------------------


def chain_shape(t):
    """(token, leaf count) when t is a leaf or a right chain of one token
    (binary nodes, each with a leaf of that token on the left), else None."""
    if isinstance(t, Leaf):
        return t.token, 1
    if len(t.children) != 2 or not isinstance(t.children[0], Leaf):
        return None
    rest = chain_shape(t.children[1])
    if rest is None or rest[0] != t.children[0].token:
        return None
    return rest[0], rest[1] + 1


def reference_duplication_distance(t, s):
    """Two right chains of one token are their leaf counts' difference
    apart; otherwise a leaf is inf from anything else, and two nodes are the
    sum over their child pairs apart when their arities match, else inf."""
    chain_t, chain_s = chain_shape(t), chain_shape(s)
    if chain_t and chain_s and chain_t[0] == chain_s[0]:
        return abs(chain_t[1] - chain_s[1])
    if isinstance(t, Leaf) or isinstance(s, Leaf) or len(t.children) != len(s.children):
        return math.inf
    return sum(reference_duplication_distance(a, b) for a, b in zip(t.children, s.children))


def reference_swap_distance(t, s):
    """The fewest internal nodes of t whose two children, swapped, turn t
    into s; inf when no set of nodes does.  Every set is tried, node by
    node from the leaves up, keeping the fewest swaps per resulting tree;
    a node's results are kept only when they are subtrees of s, since the
    swaps that turn t into s turn each node of t into one of s's."""
    if t.size != s.size:
        return math.inf  # no set of swaps changes the size
    targets = set()
    stack = [s]
    while stack:
        u = stack.pop()
        targets.add(u.text)
        if isinstance(u, Node):
            stack.extend(u.children)

    def reach(u):  # {text of a subtree of s some set of u's nodes gives: fewest swaps}
        if isinstance(u, Leaf):
            return {u.text: 0} if u.text in targets else {}
        out = {}
        for combo in itertools.product(*[reach(c).items() for c in u.children]):
            kids, cost = [text for text, _ in combo], sum(n for _, n in combo)
            orders = [(kids, cost)]
            if len(kids) == 2:
                orders.append((kids[::-1], cost + 1))
            for order, swaps in orders:
                text = "(" + " ".join(order) + ")"
                if text in targets:
                    out[text] = min(out.get(text, math.inf), swaps)
        return out

    return reach(t).get(s.text, math.inf)


# -- exhaustive tree and context enumeration --------------------------------


def enumerate_trees(alphabet: RankedAlphabet, max_depth: int) -> list:
    """All skeletal trees of depth <= max_depth, in canonical order."""
    levels = [sorted((Leaf(tok) for tok in alphabet.leaf_symbols), key=canonical_key)]
    for _ in range(1, max_depth):
        below = [t for lvl in levels for t in lvl]
        new = []
        for k in range(1, alphabet.max_rank + 1):
            for combo in itertools.product(below, repeat=k):
                new.append(Node(combo))
        levels.append(new)
    return sorted({t for lvl in levels for t in lvl}, key=canonical_key)


def enumerate_contexts(alphabet: RankedAlphabet, max_depth: int) -> list:
    """All contexts of total depth <= max_depth, in canonical order."""
    memo: dict[int, list] = {}

    def ctxs(budget: int) -> list:
        if budget in memo:
            return memo[budget]
        out = [HOLE]
        if budget >= 2:
            inner_pool = ctxs(budget - 1)
            tree_pool = enumerate_trees(alphabet, budget - 1)
            for k in range(1, alphabet.max_rank + 1):
                for hole_slot in range(k):
                    pools = [tree_pool] * k
                    pools[hole_slot] = inner_pool
                    for combo in itertools.product(*pools):
                        out.append(Node(combo))
        memo[budget] = out
        return out

    roots = {n.text: n for n in ctxs(max_depth)}
    return sorted((Context(r) for r in roots.values()), key=canonical_key)


# -- brute-force tagging enumeration ----------------------------------------


def enumerate_taggings(grammar, tree):
    """All (root symbol, weight) pairs over complete taggings of `tree`.

    A leaf may stand for its own terminal or be tagged by any nonterminal
    with a matching terminal rule; an internal node tagged N consumes a rule
    N -> X1..Xk whose symbols match the children's chosen tags.  Pure
    enumeration; no memoization and no reuse of the grammar's weight code.
    """
    terminals = set(grammar.terminals)

    def expand(node):
        if isinstance(node, Leaf):
            options = [(node.token, 1)]
            for (lhs, rhs), w in grammar.weights.items():
                if rhs == (node.token,):
                    options.append((lhs, w))
            return options
        child_options = [expand(c) for c in node.children]
        options = []
        for combo in itertools.product(*child_options):
            symbols = tuple(sym for sym, _ in combo)
            weight_product = 1
            for _, w in combo:
                weight_product = weight_product * w
            for (lhs, rhs), w in grammar.weights.items():
                if rhs == symbols and not (len(rhs) == 1 and rhs[0] in terminals):
                    options.append((lhs, w * weight_product))
        return options

    return [(sym, w) for sym, w in expand(tree) if sym not in terminals]


def brute_force_weight(grammar, tree, root=None):
    """Sum of tagging weights rooted at `root` (default: the start symbol)."""
    root = root or grammar.start
    total = Fraction(0) if grammar.is_exact() else 0.0
    for sym, w in enumerate_taggings(grammar, tree):
        if sym == root:
            total = total + w
    return total


def nonterminal_weights(grammar, tree, rank=None) -> dict:
    """The weight of each nonterminal's taggings of `tree`, read off the first
    coordinates of its vector under the grammar's automaton at `rank`."""
    support = dict(grammar.automaton(rank).eval_support(tree))
    return {nt: support.get(i, 0) for i, nt in enumerate(grammar.nonterminals)}


def has_ambiguous_tree(grammar, universe):
    """Whether some tree of `universe` has more than one complete tagging
    with a nonterminal at the root, taggings as enumerate_taggings lists
    them but counted: per subtree text, the number of taggings by root
    symbol.  `universe` is in canonical order and holds every subtree of
    its trees, so children are counted before their parents."""
    terminals = set(grammar.terminals)
    at_leaf, at_node = {}, {}  # rules by right-hand side: a terminal's, and the rest
    for lhs, rhs in grammar.weights:
        rules = at_leaf if len(rhs) == 1 and rhs[0] in terminals else at_node
        rules.setdefault(rhs, []).append(lhs)
    counts = {}
    for tree in universe:
        if isinstance(tree, Leaf):
            count = {tree.token: 1}
            for lhs in at_leaf.get((tree.token,), ()):
                count[lhs] = count.get(lhs, 0) + 1
        else:
            count = {}
            for combo in itertools.product(*[counts[c.text].items() for c in tree.children]):
                ways = math.prod(n for _, n in combo)
                for lhs in at_node.get(tuple(sym for sym, _ in combo), ()):
                    count[lhs] = count.get(lhs, 0) + ways
        counts[tree.text] = count
        if sum(n for sym, n in count.items() if sym not in terminals) > 1:
            return True
    return False


# -- brute-force binary parsing ---------------------------------------------


def all_binary_trees(tokens):
    """Every binary bracketing of the token string."""
    tokens = list(tokens)
    if len(tokens) == 1:
        return [Leaf(tokens[0])]
    out = []
    for split in range(1, len(tokens)):
        for left in all_binary_trees(tokens[:split]):
            for right in all_binary_trees(tokens[split:]):
                out.append(Node((left, right)))
    return out


def leaves_of(tree):
    if isinstance(tree, Leaf):
        return [tree.token]
    out = []
    for c in tree.children:
        out.extend(leaves_of(c))
    return out


def parse_score(tree, w):
    """Score of one binary parse: substring weight of every node spanning
    three or more leaves plus its children's scores; spans of one or two
    leaves contribute exactly their substring weight."""
    tokens = leaves_of(tree)
    if len(tokens) <= 2:
        return w(tokens)
    left, right = tree.children
    return w(tokens) + parse_score(left, w) + parse_score(right, w)


# -- random grammar generation -----------------------------------------------


def random_nonneg_wcfg(rng, invertible=False):
    """Random grammar over <= 4 nonterminals, rhs length <= 2, weights >= 0."""
    from skelgram.grammar import WCFG

    n_nts = rng.randint(1, 4)
    nts = [f"N{i}" for i in range(n_nts)]
    toks = ["a", "b"][:rng.randint(1, 2)]
    rhs_pool = [(t,) for t in toks]
    rhs_pool += [(x, y) for x in nts + toks for y in nts + toks]
    rng.shuffle(rhs_pool)
    weights = {}
    used_rhs = set()
    for _ in range(rng.randint(2, 7)):
        rhs = rng.choice(rhs_pool)
        lhs = rng.choice(nts)
        if invertible:
            if rhs in used_rhs:
                continue
            used_rhs.add(rhs)
        weights[(lhs, rhs)] = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    if not weights:
        weights[(nts[0], (toks[0],))] = Fraction(1)
    return WCFG(nts, toks, weights)


def enumeration_of_small_grammars(count=200, seed=2024):
    """Deterministic enumeration of small CNF-style grammars: <= 3
    nonterminals, <= 2 terminals, <= 6 rules, rhs drawn from unit terminals,
    unit nonterminals, and nonterminal pairs.  Only grammars whose
    nonterminals all derive a tree of depth <= 3 are kept, so every shared
    right-hand side is realizable inside the depth-4 check universe.
    """
    from skelgram.grammar import WCFG

    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        n_nts = rng.randint(1, 3)
        nts = [f"N{i}" for i in range(n_nts)]
        toks = ["a", "b"]
        rhs_pool = [(t,) for t in toks]
        rhs_pool += [(m,) for m in nts]
        rhs_pool += [(x, y) for x in nts for y in nts]
        n_rules = rng.randint(2, 6)
        rules = set()
        for _ in range(n_rules):
            rules.add((rng.choice(nts), rng.choice(rhs_pool)))
        lhs_set = sorted({lhs for lhs, _ in rules})
        if not lhs_set or lhs_set[0] != "N0":
            continue
        referenced = {sym for _, rhs in rules for sym in rhs if sym not in toks}
        if not referenced <= set(lhs_set):
            continue  # a referenced nonterminal without rules is unproductive
        key = tuple(sorted(rules))
        if key in seen:
            continue
        seen.add(key)
        grammar = WCFG(lhs_set, toks, {rule: Fraction(1) for rule in rules})
        if _all_productive_within(grammar, depth=3):
            out.append(grammar)
    return out


def _all_productive_within(grammar, depth):
    best = {nt: None for nt in grammar.nonterminals}
    for _ in range(depth):
        for (lhs, rhs) in grammar.weights:
            cost = 1
            ok = True
            for sym in rhs:
                if sym in best:
                    if best[sym] is None:
                        ok = False
                        break
                    cost = max(cost, 1 + best[sym])
            if ok and (best[lhs] is None or cost < best[lhs]):
                best[lhs] = cost
    return all(b is not None and b <= depth for b in best.values())


# -- random automata ----------------------------------------------------------


def random_cmta(rng, alphabet: RankedAlphabet, dim: int, positive: bool = False) -> MTA:
    """Random co-linear automaton: each column gets at most one non-zero entry."""
    def value():
        num = rng.randint(1 if positive else -5, 5)
        if num == 0:
            num = 1
        return Fraction(num, rng.randint(1, 4))

    leaf_maps = {}
    for tok in alphabet.leaf_symbols:
        vec = [Fraction(0)] * dim
        if dim and rng.random() < 0.9:
            vec[rng.randrange(dim)] = value()
        leaf_maps[tok] = vec
    node_maps = {}
    for k in range(1, alphabet.max_rank + 1):
        m = MultilinearMap(k, dim)
        for col in itertools.product(range(dim), repeat=k):
            if rng.random() < 0.7:
                c = value()
                m.columns[col] = {rng.randrange(dim): c}
        node_maps[k] = m
    output = [value() if rng.random() < 0.8 else Fraction(0) for _ in range(dim)]
    return MTA(alphabet, dim, leaf_maps, node_maps, output)


def random_pmta(rng, alphabet: RankedAlphabet, dim: int) -> MTA:
    """Random positive automaton: each coefficient is non-negative and, in
    the node maps, non-zero with probability about 1/2."""
    def value():
        return Fraction(rng.randint(0, 4), rng.randint(1, 3))

    leaf_maps = {tok: [value() for _ in range(dim)] for tok in alphabet.leaf_symbols}
    node_maps = {}
    for k in range(1, alphabet.max_rank + 1):
        m = node_maps[k] = MultilinearMap(k, dim)
        for i in range(dim):
            for col in itertools.product(range(dim), repeat=k):
                if rng.random() < 0.5 and (c := value()):
                    m.columns.setdefault(col, {})[i] = c
    output = [value() for _ in range(dim)]
    return MTA(alphabet, dim, leaf_maps, node_maps, output)
