"""Simulated teachers answering structured membership and equivalence
queries, plus the corpus-backed membership oracle with edit-distance decay.

Targets are exact: a teacher refuses a float weight.  The target's type
picks how an equivalence query is answered.  A grammar or automaton target
is answered by an exact equivalence check, whose witness is the
counterexample.  A corpus target is answered by a scan of a strategy's
candidate trees, drawn lazily once per teacher, then the corpus's own
trees, which returns the first one (in that order) whose hypothesis value
differs from the true series.  Each scanned tree is weighed once per
teacher and kept with its true value.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .equivalence import difference_witness
from .geneclusters import INF, parse_gene_string, right_chain, right_chain_shape
from .grammar import WCFG
from .mta import MTA
from .scalars import is_exact, ordered_sum, parse_scalar
from .trees import (IDENTITY_CONTEXT, Context, Leaf, Node, RankedAlphabet,
                    SkeletalTree, canonical_key, full_trees,
                    parse_structured_string, tree_yield, unknown_subtrees)


class SimulatedTeacher:
    """Answers smq from a grammar, automaton, or corpus oracle target, and
    seq exactly for a grammar or automaton (`exact_automaton`), else by
    scanning the strategy's candidates, which a corpus target needs.  A
    target with a float weight is refused here, once, with a ValueError:
    the learner's table compares the answers exactly.  Both queries weigh
    trees with the target's evaluator, picked once here:
    `WCFG.skeletal_weight`, `MTA.eval` or `CorpusOracle.smq`, each of which
    answers a cell smq(t, c) from its parts and keeps its own memos.
    `scanned` holds each (tree, target weight) pair seq has weighed, in scan
    order; a learn that returns has scanned them all in its last seq."""

    def __init__(self, target, strategy=None):
        if not target.is_exact():
            raise ValueError("the target has a float weight; a teacher takes exact "
                             "weights only (Fractions)")
        self.target = target
        self.strategy = strategy
        if isinstance(target, WCFG):
            self._evaluate = target.skeletal_weight
        elif isinstance(target, MTA):
            self._evaluate = target.eval
        else:
            self._evaluate = target.smq
        self.scanned: list = []  # (tree, target weight), in scan order
        self._unscanned = None  # the trees after them, once the scan starts

    def smq(self, tree: SkeletalTree, context: Context = IDENTITY_CONTEXT):
        """The target's weight of context∘tree."""
        return self._evaluate(tree, context)

    def exact_automaton(self, alphabet: RankedAlphabet) -> MTA | None:
        """The target as an automaton over alphabet (ValueError if it is over
        another): a grammar's automaton at the alphabet's rank, which leaves
        out its longer rules (they weigh no tree of that rank), or the
        automaton itself.  None for a corpus, whose seq scans."""
        target = self.target
        if isinstance(target, WCFG):
            target = target.automaton(alphabet.max_rank)
        elif not isinstance(target, MTA):
            return None
        if target.alphabet != alphabet:
            raise ValueError(f"the target's alphabet is not the learner's {alphabet}")
        return target

    def seq(self, hypothesis: MTA):
        exact = self.exact_automaton(hypothesis.alphabet)
        if exact is not None:
            tree = difference_witness(hypothesis, exact)
            return None if tree is None else (tree, self._evaluate(tree))
        for tree, truth in itertools.chain(self.scanned, self._scan_on()):
            if hypothesis.eval(tree) != truth:
                return tree, truth
        return None

    def _scan_on(self):
        """The trees after `scanned`, each weighed and kept there as it is
        drawn: the strategy's candidates, listed once per teacher, then a
        corpus target's own trees, which carry weight whatever it lists."""
        if self._unscanned is None:
            if self.strategy is None:
                raise ValueError("teacher has no equivalence strategy configured")
            corpus = self.target.corpus if isinstance(self.target, CorpusOracle) else ()
            self._unscanned = itertools.chain(self.strategy.candidates(), (t for t, _ in corpus))
        for tree in self._unscanned:
            truth = self._evaluate(tree)
            self.scanned.append((tree, truth))
            yield tree, truth


# -- candidate strategies ----------------------------------------------------


def _strings_up_to(tokens, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(tokens, repeat=length)


class ExhaustiveStrategy:
    """All strings up to max_len (shortlex order), one optimal parse each."""

    def __init__(self, alphabet: RankedAlphabet, max_len: int, weight=None):
        self.alphabet = alphabet
        self.max_len = max_len
        self.weight = weight or (lambda piece: 0)

    def candidates(self):
        for string in _strings_up_to(self.alphabet.leaf_symbols, self.max_len):
            yield parse_gene_string(string, self.weight)[0]


class SamplingStrategy:
    """count strings drawn uniformly from all strings of length <= max_len,
    deterministic for a fixed seed, one optimal parse each."""

    def __init__(self, alphabet: RankedAlphabet, count: int, max_len: int,
                 seed: int, weight=None):
        self.alphabet = alphabet
        self.count = count
        self.max_len = max_len
        self.seed = seed
        self.weight = weight or (lambda piece: 0)

    def _sample_string(self, rng):
        tokens = self.alphabet.leaf_symbols
        b = len(tokens)
        total = sum(b ** k for k in range(1, self.max_len + 1))
        index = rng.randrange(total)
        length = 1
        while index >= b ** length:
            index -= b ** length
            length += 1
        out = []
        for _ in range(length):
            index, digit = divmod(index, b)
            out.append(tokens[digit])
        return tuple(reversed(out))

    def candidates(self):
        rng = random.Random(self.seed)
        for _ in range(self.count):
            string = self._sample_string(rng)
            yield parse_gene_string(string, self.weight)[0]


class DuplicationsStrategy:
    """Every way of replacing each leaf of each base tree by a right chain of
    up to max_dup + 1 copies; candidates in canonical order."""

    def __init__(self, base_trees, max_dup: int):
        self.base_trees = list(base_trees)
        self.max_dup = max_dup

    def candidates(self):
        seen = set()
        out = []
        for base in self.base_trees:
            for variant in self._variants(base):
                if variant not in seen:
                    seen.add(variant)
                    out.append(variant)
        yield from sorted(out, key=canonical_key)

    def _variants(self, tree: SkeletalTree):
        """The variants of tree, built bottom-up: a leaf's are its right
        chains, a node's the product of its children's, in child order."""
        variants = {}
        for t in unknown_subtrees(tree, ()):
            if isinstance(t, Leaf):
                variants[t.text] = [right_chain(t.token, n) for n in range(1, self.max_dup + 2)]
            else:
                pools = [variants[c.text] for c in t.children]
                variants[t.text] = [Node(combo) for combo in itertools.product(*pools)]
        return variants[tree.text]


class AllTreesStrategy:
    """Every tree with at most max_leaves leaves and no unary nodes, in
    canonical order.  Unary rows are already covered by the table itself."""

    def __init__(self, alphabet: RankedAlphabet, max_leaves: int):
        self.alphabet = alphabet
        self.max_leaves = max_leaves

    def candidates(self):
        return full_trees(self.alphabet.leaf_symbols, self.max_leaves,
                          max_rank=self.alphabet.max_rank)


# -- corpus oracle -----------------------------------------------------------


def _dup_spine(c: Context, entry: SkeletalTree, distance) -> list:
    """c's spine walked top-down against entry, as duplication_distance
    walks c∘t: no alignment when the walk meets inf, else one, (the
    distances summed, the entry position at the hole, exact).  At an entry
    node the arities must match; the siblings' distances (`distance`, by
    sibling and entry position) are added and the walk goes on at the
    hole's child.  At an entry leaf a, c∘t's node is a right chain of a's
    only as (a <>), which adds 1 and stays at a, or as (<> R) over a hole
    holding exactly a, which adds 1 + d(R, a) and is the lowest level; then
    `exact` is set."""
    p, acc, exact = entry, 0, False
    last = len(c.levels) - 1
    for i, (left, right) in enumerate(c.levels):
        if isinstance(p, Leaf):
            if len(left) == 1 and not right and left[0].text == p.text:  # (a <>)
                acc += 1
            elif i == last and not left and len(right) == 1:  # (<> R) over a
                acc += 1 + distance(right[0], p)
                exact = True
            else:
                return []
        elif len(p.children) != len(left) + 1 + len(right):
            return []
        else:
            h = len(left)
            for sib, q in zip(left + right, p.children[:h] + p.children[h + 1:]):
                acc += distance(sib, q)
            p = p.children[h]
        if acc == INF:
            return []
    return [(acc, p, exact)]


def _swap_spine(c: Context, entry: SkeletalTree, distance) -> list:
    """Every alignment of c's spine, walked top-down against entry as
    swap_distance walks c∘t, as (swaps and sibling distances summed, the
    entry position at the hole, False); the ones that meet inf are dropped,
    and so are the ones that reach an entry leaf above the hole, since a
    leaf is inf from any node."""
    aligned = [(0, entry, False)]
    for left, right in c.levels:
        if len(left) + len(right) != 1:
            return []  # a binary entry node is inf from any other arity
        sib, h = (left or right)[0], len(left)
        below = []
        for cost, p, _ in aligned:
            if isinstance(p, Leaf):
                continue
            under, beside = p.children[h], p.children[1 - h]
            d = distance(sib, beside)
            if d != INF:
                below.append((cost + d, under, False))
            d = distance(sib, under)
            if d != INF:
                below.append((cost + d + 1, beside, False))
        aligned = below
    return aligned


class CorpusOracle:
    """smq by decayed edit distance to a weighted tree corpus:
    sum over corpus entries of freq * q^distance(t, entry), q^inf = 0.

    The corpus positions are the entries' distinct subtrees, by text.  A
    tree's support maps each position p to d(t, p) where that is finite;
    it is kept by the tree's text and built from its children's, bottom-up
    (`_support`), so each tree is weighed once.  A non-binary node's
    support is empty, since every position is binary.

    smq(t, c) builds no c∘t.  Once per context, `_column` walks c's spine
    against every entry, in corpus order, down to the entry positions at
    the hole, reading each sibling's distance off its support: for
    duplication, one alignment, the distances summed, where an entry leaf
    meets the spine only as a right chain of its token (_dup_spine); for
    swap, every alignment of the hole with an entry position
    (_swap_spine).  A cell reads each entry's alignments against t's
    support: d(c∘t, entry) is the least alignment cost plus d(t, position).
    An empty support answers 0 before any column is read.  Each term
    freq * q^d is kept per entry and distance, and the terms are added in
    corpus order, so float sums add in the same order as over the whole
    corpus.  A plain query is the cell of the identity context, whose only
    alignment with an entry is the entry itself at cost 0."""

    def __init__(self, corpus, decay, distance: str = "duplication"):
        if distance not in ("swap", "duplication"):
            raise ValueError("distance must be 'swap' or 'duplication'")
        corpus = list(corpus)
        if not corpus:
            raise ValueError("corpus is empty")
        if any(freq <= 0 for _, freq in corpus):
            raise ValueError("corpus frequencies must be positive")
        if not 0 < decay < 1:
            raise ValueError("decay factor must be in (0, 1)")
        for tree, _ in corpus:
            if not tree.binary:
                raise ValueError(f"corpus trees must be binary: {tree.text}")
        total = ordered_sum(freq for _, freq in corpus)
        self.corpus = [(tree, Fraction(freq, total) if is_exact(freq) and is_exact(total)
                        else freq / total) for tree, freq in corpus]
        self.decay = decay
        self.distance = distance
        self._spine = _swap_spine if distance == "swap" else _dup_spine
        positions: dict[str, SkeletalTree] = {}
        for entry, _ in corpus:
            for s in unknown_subtrees(entry, positions):
                positions[s.text] = s
        # the binary positions (p1 p2), by p1's text: [(p2's text, their text)]
        self._by_left: dict[str, list] = {}
        # a leaf's support, by its token: the leaf position itself for swap,
        # the token's right chains for duplication
        self._leaves: dict[str, list] = {}
        for text, s in positions.items():
            if isinstance(s, Node):
                p1, p2 = s.children
                self._by_left.setdefault(p1.text, []).append((p2.text, text))
            shape = right_chain_shape(s)
            if shape is not None and (distance == "duplication" or isinstance(s, Leaf)):
                self._leaves.setdefault(shape[0], []).append((text, shape[1] - 1))
        self._supports: dict[str, dict] = {}  # trees' supports, by text
        self._columns: dict[str, list] = {}  # contexts' columns, by text
        self._terms = [{} for _ in corpus]  # each entry's freq * q^d, by d

    def smq(self, tree: SkeletalTree, context: Context = IDENTITY_CONTEXT):
        support = self._supports.get(tree.text)
        if support is None:
            support = self._support(tree)
        if not support:
            return 0
        column = self._columns.get(context.text)
        if column is None:
            column = self._columns[context.text] = self._column(context)
        total = 0
        for freq, terms, aligned in column:
            d = INF
            for cost, p, exact in aligned:
                e = support.get(p)
                # an exact alignment needs t to be p: d(t, p) = 0
                if e is not None and cost + e < d and not (exact and e):
                    d = cost + e
            if d != INF:
                term = terms.get(d)
                if term is None:
                    term = terms[d] = freq * self.decay ** d
                total = total + term
        return total

    def _distance(self, t: SkeletalTree, p: SkeletalTree):
        """d(t, p) for an entry position p, read off t's support."""
        return self._support(t).get(p.text, INF)

    def _support(self, t: SkeletalTree) -> dict:
        """t's distances to the corpus positions, finite ones only, by the
        position's text; built bottom-up, the subtrees not yet kept in
        `unknown_subtrees` order.  The dict is the memo's own: do not
        change it.
        - duplication: a leaf a is k - 1 from a position that is a right
          chain of k a's; a binary node is d1 + d2 from each position
          (p1 p2) over its children's supports, and 1 + d from the leaf
          position a when its left child is the leaf a and its right
          child is d from a.
        - swap: a leaf is 0 from its own position; a binary node is the
          least of d1 + d2 over (p1 p2) and d1 + d2 + 1 over (p2 p1)."""
        memo = self._supports
        support = memo.get(t.text)
        if support is not None:
            return support
        todo = [t]
        if t.__class__ is Node:
            for c in t.children:
                if c.text not in memo:
                    todo = unknown_subtrees(t, memo)
                    break
        swap, by_left = self.distance == "swap", self._by_left
        for s in todo:
            if s.text in memo:  # a repeated subtree, built at its first occurrence
                continue
            support = {}
            if s.__class__ is Leaf:
                support.update(self._leaves.get(s.token, ()))
            elif len(s.children) == 2:
                left, right = s.children
                s1, s2 = memo[left.text], memo[right.text]
                if s1 and s2:
                    for p1, d1 in s1.items():
                        for p2, pos in by_left.get(p1, ()):
                            d2 = s2.get(p2)
                            if d2 is not None:
                                support[pos] = d1 + d2
                    if swap:
                        for p2, d2 in s2.items():
                            for p1, pos in by_left.get(p2, ()):
                                d1 = s1.get(p1)
                                if d1 is not None and d1 + d2 + 1 < support.get(pos, INF):
                                    support[pos] = d1 + d2 + 1
                    elif left.__class__ is Leaf and left.text in s2:
                        support[left.text] = 1 + s2[left.text]
            memo[s.text] = support
        return support

    def _column(self, c: Context) -> list:
        """c's alignments with the corpus entries, in corpus order: for each
        entry with one, (its frequency, its kept terms, [(cost, the entry
        position's text, exact)])."""
        column = []
        for (entry, freq), terms in zip(self.corpus, self._terms):
            aligned = [(cost, p.text, exact)
                       for cost, p, exact in self._spine(c, entry, self._distance)]
            if aligned:
                column.append((freq, terms, aligned))
        return column

    def is_exact(self) -> bool:
        """True iff the decay and every frequency are exact."""
        return is_exact(self.decay) and all(is_exact(freq) for _, freq in self.corpus)

    def alphabet(self, max_rank: int = 2) -> RankedAlphabet:
        tokens = []
        for entry, _ in self.corpus:
            for tok in tree_yield(entry):
                if tok not in tokens:
                    tokens.append(tok)
        return RankedAlphabet(tokens, max_rank)


def load_corpus(path, max_rank: int = 2):
    """Corpus file: lines of "<frequency><TAB><structured string>", each
    frequency read exactly (`parse_scalar`)."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        raw = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)
               if line.strip() and not line.strip().startswith("#")]
    token_pool: list[str] = []
    texts = []
    for lineno, line in raw:
        if "\t" not in line:
            raise ValueError(f"line {lineno}: expected '<frequency>\\t<structured string>'")
        freq_text, tree_text = line.split("\t", 1)
        texts.append((lineno, freq_text, tree_text))
        for tok in tree_text.replace("(", " ").replace(")", " ").split():
            if tok not in token_pool:
                token_pool.append(tok)
    if not texts:
        raise ValueError("corpus is empty")
    alphabet = RankedAlphabet(token_pool, max_rank)
    for lineno, freq_text, tree_text in texts:
        freq = parse_scalar(freq_text)
        tree = parse_structured_string(tree_text, alphabet)
        entries.append((tree, freq))
    return entries, alphabet
