"""String-to-tree pipeline for gene-cluster data, plus two tree edit
distances tailored to gene-order evolution events.

A gene string is parsed into the binary tree maximizing the total weight of
its substrings; maximal runs of one token are merged before parsing and
expanded back to right chains afterwards, so tandem duplications stay
confined to one subtree.
"""
from __future__ import annotations

import math

from .trees import Leaf, Node, SkeletalTree

INF = math.inf


class SubstringFrequencyWeight:
    """Default scorer: a substring of length >= 2 scores the number of corpus
    strings containing it contiguously; single tokens score 0."""

    def __init__(self, corpus_strings):
        self.corpus = [tuple(s) for s in corpus_strings]

    def __call__(self, piece) -> int:
        piece = tuple(piece)
        if len(piece) < 2:
            return 0
        count = 0
        for s in self.corpus:
            n, m = len(s), len(piece)
            if any(s[i:i + m] == piece for i in range(n - m + 1)):
                count += 1
        return count


RUN_SEP = "#"


def preprocess_runs(tokens) -> list[str]:
    """Merge maximal runs sigma^k (k >= 2) into the fresh token "sigma#k".

    A token that itself contains "#" is encoded as "sigma#1", so that
    split_run_token gives it back unchanged.
    """
    tokens = list(tokens)
    out = []
    i = 0
    while i < len(tokens):
        j = i
        while j < len(tokens) and tokens[j] == tokens[i]:
            j += 1
        run = j - i
        tok = tokens[i]
        out.append(f"{tok}{RUN_SEP}{run}" if run > 1 or RUN_SEP in tok else tok)
        i = j
    return out


def split_run_token(token: str):
    """(base, count) for a merged run token, or (token, 1)."""
    if RUN_SEP in token:
        base, _, count = token.rpartition(RUN_SEP)
        if base and count.isdigit():
            return base, int(count)
    return token, 1


def lift_weight(w, merged_tokens):
    """Wrap a weight function so merged run tokens score as their expansions:
    w(u sigma#k v) = w(u sigma..sigma v)."""
    def lifted(piece):
        flat = []
        for tok in piece:
            base, count = split_run_token(tok)
            flat.extend([base] * count)
        return w(flat)
    return lifted


def optimal_tree(tokens, w) -> tuple[SkeletalTree, object]:
    """Best binary parse of the token string under the additive score

        score(s) = w(s)                       for |s| <= 2
        score(s) = w(s) + max over splits of (score(left) + score(right))

    Ties break on the smallest split index.  Returns (tree, score).
    """
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        raise ValueError("empty string has no parse")
    best_score = {}
    best_split = {}
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span
            base = w(tokens[i:j])
            if span <= 2:
                best_score[(i, j)] = base
                best_split[(i, j)] = None
            else:
                score, split = None, None
                for k in range(i + 1, j):
                    cand = best_score[(i, k)] + best_score[(k, j)]
                    if score is None or cand > score:
                        score, split = cand, k
                best_score[(i, j)] = base + score
                best_split[(i, j)] = split

    def build(i, j):
        if j - i == 1:
            return Leaf(tokens[i])
        if j - i == 2:
            return Node((Leaf(tokens[i]), Leaf(tokens[i + 1])))
        k = best_split[(i, j)]
        return Node((build(i, k), build(k, j)))

    return build(0, n), best_score[(0, n)]


def right_chain(token: str, count: int) -> SkeletalTree:
    """A right chain of `count` identically tagged leaves."""
    if count < 1:
        raise ValueError("chain needs at least one leaf")
    tree = Leaf(token)
    for _ in range(count - 1):
        tree = Node((Leaf(token), tree))
    return tree


def expand_chains(t: SkeletalTree) -> SkeletalTree:
    """Replace every merged run leaf sigma#k by a right chain of k sigmas."""
    if isinstance(t, Leaf):
        return right_chain(*split_run_token(t.token))
    return Node(tuple(expand_chains(c) for c in t.children))


def parse_gene_string(tokens, w) -> tuple[SkeletalTree, object]:
    """preprocess -> optimal parse -> chain expansion; yield is preserved."""
    merged = preprocess_runs(tokens)
    tree, score = optimal_tree(merged, lift_weight(w, merged))
    return expand_chains(tree), score


# -- edit distances (binary trees) ------------------------------------------


def is_binary(t: SkeletalTree) -> bool:
    """Every internal node of t has exactly two children."""
    stack = [t]
    while stack:
        n = stack.pop()
        if isinstance(n, Node):
            if len(n.children) != 2:
                return False
            stack.extend(n.children)
    return True


def _require_binary(*trees):
    if not all(map(is_binary, trees)):
        raise ValueError("edit distances are defined on binary trees")


def _incompatible(t, s) -> bool:
    if isinstance(t, Leaf) and isinstance(s, Leaf):
        return t.token != s.token
    return isinstance(t, Leaf) != isinstance(s, Leaf)


def swap_distance(t: SkeletalTree, s: SkeletalTree):
    """Count of subtree swaps turning t into s, or inf when incompatible."""
    _require_binary(t, s)
    return _swap(t, s)


def _swap(t, s):
    if isinstance(t, Leaf) and isinstance(s, Leaf):
        return 0 if t.token == s.token else INF
    if _incompatible(t, s):
        return INF
    t1, t2 = t.children
    s1, s2 = s.children
    straight = _swap(t1, s1) + _swap(t2, s2)
    crossed = _swap(t1, s2) + _swap(t2, s1) + 1
    return min(straight, crossed)


def is_right_chain(t: SkeletalTree) -> bool:
    """Leaf, or leaf-left-child chains with all leaves identically tagged."""
    label = chain_label(t)
    while isinstance(t, Node):
        if len(t.children) != 2:
            return False
        left, t = t.children
        if not isinstance(left, Leaf) or left.token != label:
            return False
    return t.token == label


def chain_label(t: SkeletalTree):
    while isinstance(t, Node):
        t = t.children[0]
    return t.token


def duplication_distance(t: SkeletalTree, s: SkeletalTree):
    """Copy-number difference between right-homologous trees, else inf."""
    _require_binary(t, s)
    return _dup(t, s)


def _dup(t, s):
    total = 0
    pairs = [(t, s)]
    while pairs:
        t, s = pairs.pop()
        if is_right_chain(t) and is_right_chain(s) and chain_label(t) == chain_label(s):
            total += abs(_leaf_count(t) - _leaf_count(s))
        elif _incompatible(t, s):
            return INF
        else:
            # both internal (leaf pairs are either chain-homologous or
            # incompatible): the distance is the sum over child pairs
            pairs.extend(zip(t.children, s.children))
    return total


def _leaf_count(t: SkeletalTree) -> int:
    return (t.size + 1) // 2 if isinstance(t, Node) else 1
