"""Seeded input generators.

Every generator takes a `random.Random` built from the benchmark seed and
returns plain inputs (token tuples, trees, grammar text).  Sizes are fixed
(counts, lengths, leaf bounds); the seed changes only the arrangement, so
runs on different seeds do comparable work.
"""
from __future__ import annotations

# The learn-corpus templates: four genes, four distinct strings of six
# tokens.  The seed renames the genes and permutes the frequencies, which
# keeps the learning problem the same size (one shape, relabelled) while the
# trees, the table order and the queries asked all change with the seed.
CORPUS_GENES = ("fimA", "fimC", "fimD", "citB")
CORPUS_TEMPLATES = ((0, 1, 2, 2, 3, 3), (0, 0, 1, 2, 3, 3),
                    (1, 0, 2, 2, 3, 3), (0, 1, 1, 2, 2, 3))
CORPUS_FREQUENCIES = (8, 3, 2, 1)

# The batch-tools gene strings: families of one base gene order, each string
# mutated by a fixed number of adjacent swaps and tandem duplications and
# cut to a fixed length.
BATCH_GENES = ("acrR", "acrA", "acrB", "tolC", "marA", "soxS", "robA", "emrE")
BATCH_FAMILIES = 5
BATCH_PER_FAMILY = 20
BATCH_TOKENS = 20
BATCH_SWAPS = 2
BATCH_DUPLICATIONS = 3

# The critical PCFG S -> S S [1/2], S -> a [1/2]: normalized, Z = 1.
CRITICAL_GRAMMAR = "start: S\nS -> S S [1/2]\nS -> a [1/2]\n"


def gene_corpus(rng):
    """[(token tuple, frequency)] for learn-corpus."""
    names = list(CORPUS_GENES)
    rng.shuffle(names)
    freqs = list(CORPUS_FREQUENCIES)
    rng.shuffle(freqs)
    return [(tuple(names[i] for i in template), freq)
            for template, freq in zip(CORPUS_TEMPLATES, freqs)]


def gene_families(rng):
    """[(base string, [mutated strings])], every string BATCH_TOKENS long."""
    families = []
    for _ in range(BATCH_FAMILIES):
        order = list(BATCH_GENES)
        rng.shuffle(order)
        base = tuple((order * (BATCH_TOKENS // len(order) + 1))[:BATCH_TOKENS])
        strings = []
        for _ in range(BATCH_PER_FAMILY):
            s = list(base)
            for _ in range(BATCH_SWAPS):
                i = rng.randrange(len(s) - 1)
                s[i], s[i + 1] = s[i + 1], s[i]
            for _ in range(BATCH_DUPLICATIONS):
                i = rng.randrange(len(s))
                s.insert(i, s[i])
            strings.append(tuple(s[:BATCH_TOKENS]))
        families.append((base, strings))
    return families


def derivation_trees(rng, grammar, trees, count, max_leaves):
    """`count` draws of skeletal trees from the grammar's derivations, each
    rule picked with probability proportional to its weight; draws with
    more than `max_leaves` leaves are thrown away and drawn again."""
    rules = {}
    for (lhs, rhs), w in sorted(grammar.weights.items()):
        rules.setdefault(lhs, []).append((rhs, float(w)))
    terminals = set(grammar.terminals)
    out = []
    while len(out) < count:
        tree = _expand(rng, rules, terminals, grammar.start, trees, [max_leaves])
        if tree is not None:
            out.append(tree)
    return out


def _expand(rng, rules, terminals, symbol, trees, budget):
    if symbol in terminals:
        budget[0] -= 1
        return trees.Leaf(symbol) if budget[0] >= 0 else None
    options = rules[symbol]
    x = rng.random() * sum(w for _, w in options)
    for rhs, w in options:
        x -= w
        if x < 0:
            break
    if len(rhs) == 1 and rhs[0] in terminals:
        budget[0] -= 1
        return trees.Leaf(rhs[0]) if budget[0] >= 0 else None
    kids = []
    for sym in rhs:
        kid = _expand(rng, rules, terminals, sym, trees, budget)
        if kid is None:
            return None
        kids.append(kid)
    return trees.Node(kids)


def random_tree(rng, tokens, trees, leaves, unary_share):
    """A random bracketing of `leaves` random tokens; each node is wrapped
    in a unary node with probability `unary_share`."""
    return _shape(rng, [rng.choice(tokens) for _ in range(leaves)], trees,
                  unary_share)


def _shape(rng, tokens, trees, unary_share):
    if len(tokens) == 1:
        node = trees.Leaf(tokens[0])
    else:
        split = rng.randint(1, len(tokens) - 1)
        node = trees.Node((_shape(rng, tokens[:split], trees, unary_share),
                           _shape(rng, tokens[split:], trees, unary_share)))
    if rng.random() < unary_share:
        node = trees.Node((node,))
    return node


def held_out_sample(rng, grammar, trees, size):
    """Held-out trees for checking a learned grammar: a third binary trees
    of 6-7 leaves, a third trees of 1-7 leaves with unary nodes, and a third
    drawn from the target's derivations."""
    tokens = list(grammar.terminals)
    third = size // 3
    out = [random_tree(rng, tokens, trees, rng.randint(6, 7), 0.0)
           for _ in range(third)]
    out += [random_tree(rng, tokens, trees, rng.randint(1, 7), 0.2)
            for _ in range(third)]
    out += derivation_trees(rng, grammar, trees, size - 2 * third, 9)
    return out


def chain_lengths(rng):
    """Leaf counts of the long right chains: three, each 500 to 700."""
    return sorted(rng.randint(500, 700) for _ in range(3))
