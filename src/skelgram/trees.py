"""Ranked skeletal trees, one-hole contexts, and their structured-string format.

A skeletal tree is either a leaf carrying an alphabet token or an anonymous
internal node with 1..p ordered children.  The text format is an
s-expression: a leaf is a bare token, a node is "(" + space-separated
children + ")", and the context hole is the token "<>".
"""
from __future__ import annotations

import itertools
import re

HOLE_TOKEN = "<>"


class TreeSyntaxError(ValueError):
    """Malformed structured string (parens, unknown token, or arity)."""


class RankedAlphabet:
    """Leaf tokens plus the anonymous internal symbol at every rank 1..max_rank."""

    __slots__ = ("leaf_symbols", "max_rank")

    def __init__(self, leaf_symbols, max_rank: int = 2):
        symbols = tuple(leaf_symbols)
        if not symbols:
            raise ValueError("alphabet needs at least one leaf symbol")
        if max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate leaf symbols")
        for tok in symbols:
            if not tok or re.search(r"[\s()]", tok) or tok == HOLE_TOKEN:
                raise ValueError(f"bad leaf symbol: {tok!r}")
        self.leaf_symbols = symbols
        self.max_rank = max_rank

    def __contains__(self, token: str) -> bool:
        return token in self.leaf_symbols

    def __repr__(self):
        return f"RankedAlphabet({list(self.leaf_symbols)}, max_rank={self.max_rank})"

    def __eq__(self, other):
        return (isinstance(other, RankedAlphabet)
                and self.leaf_symbols == other.leaf_symbols
                and self.max_rank == other.max_rank)

    def __hash__(self):
        return hash((self.leaf_symbols, self.max_rank))


class SkeletalTree:
    """Base for Leaf and Node.  Instances are immutable and hash by text."""

    __slots__ = ("text", "size", "height")

    def __eq__(self, other):
        return isinstance(other, SkeletalTree) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return self.text


class Leaf(SkeletalTree):
    __slots__ = ("token",)
    binary = True

    def __init__(self, token: str):
        self.token = token
        self.text = token
        self.size = 1
        self.height = 1


class Node(SkeletalTree):
    __slots__ = ("children", "binary")  # binary: each node of the subtree has two children

    def __init__(self, children):
        kids = tuple(children)
        if not kids:
            raise ValueError("internal node needs at least one child")
        self.children = kids
        if len(kids) == 2:  # most nodes: no list and no join
            a, b = kids
            self.text = "(" + a.text + " " + b.text + ")"
            self.size = 1 + a.size + b.size
            self.height = 1 + (a.height if a.height > b.height else b.height)
            self.binary = a.binary and b.binary
            return
        texts, size, height = [], 1, 0
        for c in kids:  # one loop: generator expressions cost a frame each
            texts.append(c.text)
            size += c.size
            if c.height > height:
                height = c.height
        self.text = "(" + " ".join(texts) + ")"
        self.size = size
        self.height = 1 + height
        self.binary = False


class Hole:
    """The unique hole marker of a context; behaves like a leaf structurally."""

    __slots__ = ()
    text = HOLE_TOKEN
    size = 1
    height = 1
    binary = True

    def __repr__(self):
        return HOLE_TOKEN

    def __eq__(self, other):
        return isinstance(other, Hole)

    def __hash__(self):
        return hash(HOLE_TOKEN)


HOLE = Hole()


def canonical_key(t):
    """Deterministic tree/context order: (size, height, serialization)."""
    return (t.size, t.height, t.text)


class Context:
    """A skeletal-tree shape with exactly one hole at a leaf position.

    `levels` holds, root first, one (left, right) pair per node on the path
    from the root down to the hole: that node's children left and right of
    the hole side.  `prefix` and `suffix` are the whole text left and right
    of the hole, so c∘t's text is `prefix + t.text + suffix` with no tree
    built."""

    __slots__ = ("root", "text", "size", "height", "levels", "prefix", "suffix")

    def __init__(self, root):
        holes = []
        stack = [(root, ())]  # (node, path to it as a linked list (index, parent's))
        while stack:
            node, link = stack.pop()
            if isinstance(node, Hole):
                holes.append(link)
            elif isinstance(node, Node):
                for i, c in enumerate(node.children):
                    stack.append((c, (i, link)))
        if len(holes) != 1:
            raise ValueError(f"context must contain exactly one hole, found {len(holes)}")
        path = []
        link = holes[0]
        while link:
            i, link = link
            path.append(i)
        levels = []
        node = root
        for i in reversed(path):
            kids = node.children
            levels.append((kids[:i], kids[i + 1:]))
            node = kids[i]
        self.root = root
        self.text = root.text
        self.size = root.size
        self.height = root.height
        self.levels = tuple(levels)
        self.prefix = "".join(["(" + "".join([c.text + " " for c in left])
                               for left, _ in levels])
        self.suffix = "".join(["".join([" " + c.text for c in right]) + ")"
                               for _, right in reversed(levels)])

    def __eq__(self, other):
        return isinstance(other, Context) and self.text == other.text

    def __hash__(self):
        return hash(("ctx", self.text))

    def __repr__(self):
        return self.text


IDENTITY_CONTEXT = Context(HOLE)


def compose(c: Context, t: SkeletalTree) -> SkeletalTree:
    """Plug tree t into the hole of context c: the nodes on the path to the
    hole are built anew, bottom-up; every other subtree is c's own."""
    for left, right in reversed(c.levels):
        t = Node(left + (t,) + right)
    return t


def compose_contexts(outer: Context, inner: Context) -> Context:
    """Plug context `inner` into the hole of `outer` (hole of the result is inner's)."""
    return Context(compose(outer, inner.root))


_TOKENIZE = re.compile(r"\(|\)|[^\s()]+")


def _parse_nodes(text: str, alphabet: RankedAlphabet, allow_hole: bool):
    tokens = _TOKENIZE.findall(text)
    if not tokens:
        raise TreeSyntaxError("empty structured string")
    open_nodes = []  # children parsed so far, one list per unclosed "("
    root = None
    for tok in tokens:
        if root is not None:
            raise TreeSyntaxError(f"trailing input after tree: {tok!r}")
        if tok == "(":
            open_nodes.append([])
            continue
        if tok == ")":
            if not open_nodes:
                raise TreeSyntaxError("unbalanced parentheses: stray ')'")
            children = open_nodes.pop()
            if not children:
                raise TreeSyntaxError("empty node '()'")
            if len(children) > alphabet.max_rank:
                raise TreeSyntaxError(
                    f"node arity {len(children)} exceeds max rank {alphabet.max_rank}")
            tree = Node(children)
        elif tok == HOLE_TOKEN:
            if not allow_hole:
                raise TreeSyntaxError("hole marker not allowed in a tree")
            tree = HOLE
        elif tok not in alphabet:
            raise TreeSyntaxError(f"unknown token: {tok!r}")
        else:
            tree = Leaf(tok)
        if open_nodes:
            open_nodes[-1].append(tree)
        else:
            root = tree
    if open_nodes:
        raise TreeSyntaxError("unbalanced parentheses: missing ')'")
    return root


def parse_structured_string(text: str, alphabet: RankedAlphabet) -> SkeletalTree:
    """Parse a structured string into a skeletal tree."""
    return _parse_nodes(text, alphabet, allow_hole=False)


def parse_context(text: str, alphabet: RankedAlphabet) -> Context:
    """Parse a structured string with one "<>" marker into a context."""
    root = _parse_nodes(text, alphabet, allow_hole=True)
    try:
        return Context(root)
    except ValueError as exc:
        raise TreeSyntaxError(str(exc)) from None


def tree_yield(t: SkeletalTree) -> tuple:
    """Leaf tokens left to right, read off the serialization (a token holds
    no whitespace or parenthesis)."""
    return tuple(t.text.replace("(", " ").replace(")", " ").split())


def subtrees(t: SkeletalTree) -> list:
    """All distinct subtrees of t (including t), in canonical order."""
    return sorted({s.text: s for s in unknown_subtrees(t, ())}.values(), key=canonical_key)


def unknown_subtrees(t: SkeletalTree, known) -> list:
    """The subtrees of t whose text is not in `known`, each occurrence, in
    the order bottom-up evaluation weighs them: post-order, rightmost first.
    A pre-order walk down an explicit stack, reversed."""
    order, stack = [], [t]
    while stack:
        s = stack.pop()
        if s.text not in known:
            order.append(s)
            if s.__class__ is Node:
                stack += s.children[::-1]
    return order[::-1]


def sigma_contexts(trees, alphabet: RankedAlphabet) -> list:
    """All one-level contexts whose non-hole children are drawn from `trees`."""
    base = sorted(set(trees), key=canonical_key)
    out = set()
    for k in range(1, alphabet.max_rank + 1):
        for hole_at in range(k):
            slots = [base] * k
            slots[hole_at] = [HOLE]
            out.update(Context(Node(combo)) for combo in itertools.product(*slots))
    return sorted(out, key=canonical_key)


def tuples_holding(new, old: list, max_rank: int):
    """Each tuple of 1..max_rank members of `old + [new]` that holds `new`,
    once, grouped by the first slot `new` fills: members of `old` before
    it, of `old + [new]` after it."""
    every = old + [new]
    for k in range(1, max_rank + 1):
        for first in range(k):
            slots = [old] * first + [[new]] + [every] * (k - first - 1)
            yield from itertools.product(*slots)


def full_trees(tokens, max_leaves: int, max_rank: int = 2):
    """Yield the trees with <= max_leaves leaves where every node has
    2..max_rank children (no unary chains), in canonical order, one size at
    a time: a consumer that stops early never builds the larger sizes.
    With max_rank >= 3, trees with different leaf counts share a size.
    """
    leaves = sorted((Leaf(tok) for tok in tokens), key=canonical_key)
    yield from leaves
    # pools[size][n]: the trees of that size with n < max_leaves leaves, the
    # only ones a larger tree can hold as a child
    pools = {1: {1: leaves}}
    for size in range(3, 2 * max_leaves):  # a binary tree has 2n - 1 nodes
        found, pool = [], {}
        for k in range(2, max_rank + 1):
            for sizes in _compositions(size - 1, k):
                if not all(s in pools for s in sizes):
                    continue
                for parts in itertools.product(*[pools[s].items() for s in sizes]):
                    n = sum(m for m, _ in parts)
                    if n > max_leaves:
                        continue
                    shapes = [Node(combo) for combo in
                              itertools.product(*[trees for _, trees in parts])]
                    found += shapes
                    if n < max_leaves:
                        pool.setdefault(n, []).extend(shapes)
        if pool:
            pools[size] = pool
        found.sort(key=canonical_key)
        yield from found


def enumerate_full_trees(tokens, max_leaves: int, max_rank: int = 2) -> list:
    """Every tree `full_trees` yields, as a list.  With max_rank = 2 this is
    every binary bracketing of every token string."""
    return list(full_trees(tokens, max_leaves, max_rank))


def _compositions(n: int, k: int):
    """Ordered ways to write n as a sum of k positive integers."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest
