"""String-to-tree pipeline for gene-cluster data, plus two tree edit
distances tailored to gene-order evolution events.

A gene string is parsed into the binary tree maximizing the total weight of
its substrings; each maximal run of one token is parsed as one unit and
built as a right chain, so tandem duplications stay confined to one subtree.
"""
from __future__ import annotations

import math
from collections import Counter
from operator import add

from .trees import Leaf, Node, SkeletalTree

INF = math.inf


class SubstringFrequencyWeight:
    """Default scorer: a substring of length >= 2 scores the number of corpus
    strings containing it contiguously (a repeated string counts each time);
    single tokens score 0.

    The corpus is indexed by its generalized suffix automaton over whole
    tokens (Blumer et al., JACM 1987): one state per class of substrings
    that end at the same positions, each keeping how many corpus strings
    hold its substrings.  A call walks the piece's tokens from the root, so
    it costs one dict lookup per token whatever the corpus size.  There are
    at most 2N + 1 states for N corpus tokens, each a dict of transitions:
    about 0.2-0.4 KB per corpus token, less where strings repeat."""

    def __init__(self, corpus_strings):
        self._next, self._count = _suffix_automaton(Counter(map(tuple, corpus_strings)))

    def __call__(self, piece) -> int:
        nxt, state, n = self._next, 0, 0
        for tok in piece:
            state = nxt[state].get(tok)
            if state is None:
                return 0  # no corpus string holds the piece
            n += 1
        return self._count[state] if n > 1 else 0


def _suffix_automaton(strings):
    """The generalized suffix automaton of the token strings (a Counter of
    them), as per-state transition dicts, state 0 the root, and per-state
    counts of the strings that hold the state's substrings, each counted as
    often as the Counter holds it.  Each string is added from the root in
    turn; a transition already there is followed, or split when it skips a
    length (the clone below)."""
    nxt, link, length = [{}], [-1], [0]

    def split(p, tok, q):
        # q's substrings no longer than length[p] + 1 move to a clone of q,
        # which takes over the transitions into q on tok from p's suffixes
        clone = len(nxt)
        nxt.append(dict(nxt[q]))
        link.append(link[q])
        length.append(length[p] + 1)
        while p != -1 and nxt[p].get(tok) == q:
            nxt[p][tok] = clone
            p = link[p]
        link[q] = clone
        return clone

    for s in strings:
        last = 0
        for tok in s:
            q = nxt[last].get(tok)
            if q is not None:  # last's longest substring + tok is already one
                last = q if length[q] == length[last] + 1 else split(last, tok, q)
                continue
            cur = len(nxt)
            nxt.append({})
            link.append(0)
            length.append(length[last] + 1)
            p = last
            while p != -1 and tok not in nxt[p]:
                nxt[p][tok] = cur
                p = link[p]
            if p != -1:
                q = nxt[p][tok]
                link[cur] = q if length[q] == length[p] + 1 else split(p, tok, q)
            last = cur

    # a string adds its multiplicity once to each state holding one of its
    # substrings: those on the suffix links up from its prefixes' states
    count, seen = [0] * len(nxt), [-1] * len(nxt)
    for i, (s, times) in enumerate(strings.items()):
        state = 0
        for tok in s:
            state = up = nxt[state][tok]
            while up > 0 and seen[up] != i:
                seen[up] = i
                count[up] += times
                up = link[up]
    return nxt, count


def optimal_tree(tokens, w) -> tuple[SkeletalTree, object]:
    """Best binary parse of the token string under the additive score

        score(s) = w(s)                       for |s| <= 2
        score(s) = w(s) + max over splits of (score(left) + score(right))

    Ties break on the smallest split index.  Returns (tree, score).
    """
    tokens = list(tokens)
    return _best_parse(tokens, range(len(tokens) + 1), w)


def parse_gene_string(tokens, w) -> tuple[SkeletalTree, object]:
    """optimal_tree over the maximal runs of one token, each run one unit
    built as a right chain; w scores the runs expanded, and yield is preserved."""
    tokens = list(tokens)
    cuts = [i for i in range(len(tokens)) if i == 0 or tokens[i] != tokens[i - 1]]
    return _best_parse(tokens, cuts + [len(tokens)], w)


def _best_parse(tokens, cuts, w):
    """The optimal_tree DP over units tokens[cuts[u]:cuts[u + 1]], each a
    run of one token built as a right chain; w gets the token slice (a list)
    that a span of units covers, shortest spans first.  Span (i, j)'s best
    score is starts[i][j - i - 1] and ends[j][j - i - 1], so its splits' sums
    pair starts[i] with ends[j] reversed, and max() and index() in C pick the
    first largest: the smallest split."""
    if not tokens:
        raise ValueError("empty string has no parse")
    n = len(cuts) - 1
    # splits[i][j - i - 1] is span (i, j)'s best split, as in starts
    starts, ends, splits = ([[] for _ in range(n + 1)] for _ in range(3))
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span
            score = w(tokens[cuts[i]:cuts[j]])
            k = i + 1  # one unit, or two joined at i + 1: no choice of split
            if span > 2:
                cands = list(map(add, starts[i], reversed(ends[j])))
                best = max(cands)
                k += cands.index(best)
                score = score + best
            starts[i].append(score)
            ends[j].append(score)
            splits[i].append(k)

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
            k = splits[i][j - i - 1]
            stack += [(None, None), (k, j), (i, k)]
    return built[0], starts[0][n - 1]


def right_chain(token: str, count: int) -> SkeletalTree:
    """A right chain of `count` identically tagged leaves."""
    if count < 1:
        raise ValueError("chain needs at least one leaf")
    tree = Leaf(token)
    for _ in range(count - 1):
        tree = Node((Leaf(token), tree))
    return tree


# -- edit distances (binary trees) ------------------------------------------


def _require_binary(t, s):
    if not (t.binary and s.binary):
        raise ValueError("edit distances are defined on binary trees")


def swap_distance(t: SkeletalTree, s: SkeletalTree):
    """Count of subtree swaps turning t into s, or inf when incompatible."""
    _require_binary(t, s)
    return _swap(t, s, {})


def _swap(t, s, memo):
    # Within one walk each pair of positions is reached once, from its
    # parents' pair; the memo (a dict the caller keeps) carries node pairs'
    # distances, by their texts, across walks.  A swap keeps subtree sizes
    # and arities, so unequal ones are inf.
    done = []
    stack = [(t, s)]  # (None, (t, s)) combines the last four distances done
    while stack:
        t, s = stack.pop()
        if t is None:
            t2s1, t1s2, t2s2, t1s1 = done[-4:]
            del done[-4:]
            done.append(min(t1s1 + t2s2, t1s2 + t2s1 + 1))
            memo[s[0].text, s[1].text] = done[-1]
        elif t.size != s.size:
            done.append(INF)
        elif isinstance(t, Leaf):
            done.append(0 if t.token == s.token else INF)
        elif len(t.children) != len(s.children):
            done.append(INF)
        else:
            d = memo.get((t.text, s.text))
            if d is None:
                (t1, t2), (s1, s2) = t.children, s.children
                stack += [(None, (t, s)), (t1, s1), (t2, s2), (t1, s2), (t2, s1)]
            else:
                done.append(d)
    return done[0]


def right_chain_shape(t: SkeletalTree):
    """(token, leaf count) when t is a leaf or a right chain of identically
    tagged leaves (binary nodes with a leaf left child), else None."""
    token, leaves = None, 1
    while isinstance(t, Node):
        if len(t.children) != 2:
            return None
        left, t = t.children
        if not isinstance(left, Leaf) or token not in (None, left.token):
            return None
        token, leaves = left.token, leaves + 1
    return (t.token, leaves) if token in (None, t.token) else None


def duplication_distance(t: SkeletalTree, s: SkeletalTree):
    """Copy-number difference between right-homologous trees, else inf:

        d(leaf a, leaf b)  = 0 if a == b, else inf
        d(leaf a, node u)  = k - 1 if u is a right chain of k a's, else inf
        d(node u, node v)  = the sum over child pairs if the arities match,
                             else inf

    and d(u, leaf a) = d(leaf a, u).  A right chain of a's is (a chain), so
    chains of n and m a's split pair by pair down to a leaf against a chain:
    they are |n - m| apart."""
    _require_binary(t, s)
    return _dup(t, s, {})


def _dup(t, s, memo):
    # The distance is a sum over the pairs reached from (t, s), so the
    # first inf ends the walk.  The memo (a dict the caller keeps) holds, by
    # the pair's texts, the distance of (t, s) and of each node pair whose
    # children's are summed, and inf for every pair still summing when an
    # inf is met; later walks read them back.
    d = memo.get((t.text, s.text))
    if d is not None:
        return d
    done = []
    stack = [(None, (t, s, 1)), (t, s)]  # (None, (t, s, k)) sums the last k done
    while stack:
        t, s = stack.pop()
        if t is None:
            t, s, k = s
            d = memo[t.text, s.text] = sum(done[-k:])
            del done[-k:]
            done.append(d)
            continue
        d = memo.get((t.text, s.text))
        if d is None:
            if isinstance(t, Leaf) and isinstance(s, Leaf):
                d = 0 if t.token == s.token else INF
            elif isinstance(t, Leaf) or isinstance(s, Leaf):
                leaf, node = (t, s) if isinstance(t, Leaf) else (s, t)
                shape = right_chain_shape(node)
                d = shape[1] - 1 if shape and shape[0] == leaf.token else INF
            elif len(t.children) != len(s.children):
                d = INF
            else:
                stack.append((None, (t, s, len(t.children))))
                stack.extend(zip(t.children, s.children))
                continue
        if d == INF:
            for t, s in stack:
                if t is None:
                    memo[s[0].text, s[1].text] = INF
            return INF
        done.append(d)
    return done[0]
