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
import sys

from .equivalence import difference_witness
from .geneclusters import INF, _dup, _swap, parse_gene_string, right_chain
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


def _yield(t) -> tuple:
    """tree_yield with interned tokens, which the oracle's kept keys share
    (a list, not map(): see duplication_key)."""
    return tuple([sys.intern(tok) for tok in tree_yield(t)])


def duplication_key(t: SkeletalTree) -> tuple:
    """The run-compressed yield: equal for trees at finite duplication
    distance, since matched chains compress to one token each and the
    compressed yield of a node depends only on its children's."""
    runs, last = [], None
    for tok in _yield(t):
        if tok != last:
            runs.append(tok)
            last = tok
    # a list, not a generator: tuple() over a generator resizes its result,
    # and the resized tuples pile up in CPython's tuple free lists (about
    # 1 MB more peak memory in a learn-corpus benchmark job)
    return tuple(runs)


def swap_key(t: SkeletalTree) -> tuple:
    """Size and sorted yield: a swap keeps both."""
    return t.size, tuple(sorted(_yield(t)))


def _dup_spine(c: Context, entry: SkeletalTree, memo: dict) -> list:
    """c's spine walked top-down against entry, as _dup walks c∘t: no
    alignment when the walk meets inf, else one, (the distances summed, the
    entry position at the hole, exact).  At an entry node the arities must
    match; the siblings' distances are added and the walk goes on at the
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
                acc += 1 + _dup(right[0], p, memo)
                exact = True
            else:
                return []
        elif len(p.children) != len(left) + 1 + len(right):
            return []
        else:
            h = len(left)
            for sib, q in zip(left + right, p.children[:h] + p.children[h + 1:]):
                acc += _dup(sib, q, memo)
            p = p.children[h]
        if acc == INF:
            return []
    return [(acc, p, exact)]


def _swap_spine(c: Context, entry: SkeletalTree, memo: dict) -> list:
    """Every alignment of c's spine, walked top-down against entry as _swap
    walks c∘t, as (swaps and sibling distances summed, the entry position
    at the hole, False); the ones that meet inf are dropped, and so are the
    ones that reach an entry leaf above the hole, since a leaf is inf from
    any node."""
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
            d = _swap(sib, beside, memo)
            if d != INF:
                below.append((cost + d, under, False))
            d = _swap(sib, under, memo)
            if d != INF:
                below.append((cost + d + 1, beside, False))
        aligned = below
    return aligned


class CorpusOracle:
    """smq by decayed edit distance to a weighted tree corpus:
    sum over corpus entries of freq * q^distance(t, entry), q^inf = 0.

    smq(t, c) builds no c∘t.  Once per context, `_column` walks c's spine
    against every entry, in corpus order, down to the entry positions at
    the hole: for duplication, one alignment, the distances summed, where
    an entry leaf meets the spine only as a right chain of its token
    (_dup_spine); for swap, every alignment of the hole with an entry
    position (_swap_spine).  Each surviving alignment is filed under its
    position's key (`duplication_key`, `swap_key`), which any two trees at
    finite distance share, so d(c∘t, entry) is finite only through an
    alignment filed under t's own key.  A cell is then one lookup of t's
    key, kept by text, and the memoized d(t, position) of each alignment
    found; the entries found keep corpus order, so float sums add in the
    same order as over the whole corpus.  A plain query is the cell of the
    identity context, whose only alignment with an entry is the entry
    itself at cost 0.  Subtree distances are memoized by the subtree's
    text and the entry position's text."""

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
        self.corpus = [(tree, freq / total) for tree, freq in corpus]
        self.decay = decay
        self.distance = distance
        # corpus trees are checked above; a non-binary query is infinitely
        # distant from each (both distances are inf on unequal arities)
        self._key, self._distance, self._spine = (
            (swap_key, _swap, _swap_spine) if distance == "swap" else
            (duplication_key, _dup, _dup_spine))
        self._keys: dict[str, tuple] = {}  # trees' keys, by text
        self._columns: dict[str, dict] = {}  # contexts' columns, by text
        self._memo: dict[tuple, object] = {}  # subtree distances, by both texts

    def smq(self, tree: SkeletalTree, context: Context = IDENTITY_CONTEXT):
        column = self._columns.get(context.text)
        if column is None:
            column = self._columns[context.text] = self._column(context)
        found = column.get(self._tree_key(tree))
        if found is None:
            return 0
        total, distance, memo = 0, self._distance, self._memo
        for aligned, freq in found:
            d = min([cost + distance(tree, p, memo) for cost, p, exact in aligned
                     if not exact or tree.text == p.text], default=INF)
            if d != INF:
                total = total + freq * self.decay ** int(d)
        return total

    def _tree_key(self, t: SkeletalTree) -> tuple:
        """t's key, kept by its text."""
        key = self._keys.get(t.text)
        if key is None:
            key = self._keys[t.text] = self._key(t)
        return key

    def _column(self, c: Context) -> dict:
        """c's alignments with the corpus entries, by the key of the entry
        position at the hole: for each key, [(the entry's alignments filed
        under it, the entry's frequency)], in corpus order."""
        column: dict[tuple, list] = {}
        for entry, freq in self.corpus:
            by_key: dict[tuple, list] = {}
            for alignment in self._spine(c, entry, self._memo):
                by_key.setdefault(self._tree_key(alignment[1]), []).append(alignment)
            for key, aligned in by_key.items():
                column.setdefault(key, []).append((aligned, freq))
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
