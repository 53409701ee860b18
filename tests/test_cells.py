"""A table cell answered from its parts, smq(t, c), equals the membership
query on the composed tree, smq(c∘t), in value and in type.  Exact
grammars and automata answer through `MTA.eval(t, c)`, by the pulled-back
output vector, and corpus targets by the spine walks each column files
under the key of the entry position at the hole; neither builds c∘t.
Float grammars and automata weigh c∘t itself.  Corpus cells are also
checked against a reference that shares no code with the oracle:
conftest's reference distances on c∘t."""
import itertools
import random
import sys
from fractions import Fraction

import pytest

from skelgram import learner, trees as trees_module
from skelgram.geneclusters import INF, right_chain, right_chain_shape
from skelgram.grammar import GrammarError, load_wcfg, wcfg_to_pmta
from skelgram.learner import learn
from skelgram.mta import MTA
from skelgram.multilinear import MultilinearMap
from skelgram.table import CapExceeded, ObservationTable
from skelgram.teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                              SimulatedTeacher)
from skelgram.trees import (HOLE, IDENTITY_CONTEXT, Context, Leaf, Node, RankedAlphabet,
                            compose, parse_context, parse_structured_string, subtrees)

from conftest import (FIXTURES, learn_corpus_entries, random_cmta, random_tree,
                      reference_duplication_distance, reference_swap_distance)

FIXTURE_NAMES = ("acrab", "chain", "colinearity3", "fimacd", "smalldup", "trivial")


def hole_at_each_leaf(tree) -> list:
    """The roots of every context made by putting the hole at one of
    tree's leaves."""
    if isinstance(tree, Leaf):
        return [HOLE]
    roots = []
    for i, child in enumerate(tree.children):
        for sub in hole_at_each_leaf(child):
            kids = list(tree.children)
            kids[i] = sub
            roots.append(Node(kids))
    return roots


def random_contexts(rng, alphabet, count, max_depth=6) -> list:
    return [Context(root) for _ in range(count)
            for root in hole_at_each_leaf(random_tree(rng, alphabet, max_depth))]


def assert_cell(teacher, tree, ctx):
    factored, composed = teacher.smq(tree, ctx), teacher.smq(compose(ctx, tree))
    assert factored == composed and type(factored) is type(composed), (tree.text, ctx.text)


def library_compose(monkeypatch, refuse: bool) -> list:
    """Patch compose in every library module that imports it: with refuse
    it raises, else it builds c∘t and logs the context's text, which the
    returned list collects."""
    built = []

    def watched(context, tree):
        if refuse:
            raise AssertionError(f"composed {context.text} with {tree.text}")
        built.append(context.text)
        return compose(context, tree)

    for name, module in list(sys.modules.items()):
        if (name.startswith("skelgram.") and module is not trees_module
                and getattr(module, "compose", None) is compose):
            monkeypatch.setattr(module, "compose", watched)
    return built


def learned_table(monkeypatch, teacher, alphabet, cap=60) -> ObservationTable:
    """The table of a learn of at most `cap` steps, also when the cap ends it."""
    made = []

    def table(*args, **kwargs):
        made.append(ObservationTable(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(learner, "ObservationTable", table)
    try:
        learn(teacher, alphabet, max_iterations=cap)
    except CapExceeded:
        pass
    return made[-1]


def check_target(monkeypatch, teacher, alphabet, seed, strategy=None):
    """Every cell of a learned table, then random contexts around its rows.
    Exact grammar and automaton targets are learned with the exact SEQ,
    which learns fimacd, others with the given strategy or all trees."""
    if strategy is None and teacher.exact_automaton(alphabet) is None:
        strategy = AllTreesStrategy(alphabet, 4)
    learner_teacher = SimulatedTeacher(teacher.target, strategy, teacher.epsilon)
    table = learned_table(monkeypatch, learner_teacher, alphabet)
    for tree in table._order:
        for ctx in table.columns:
            assert_cell(teacher, tree, ctx)
    rng = random.Random(seed)
    trees = table._order[:: max(1, len(table._order) // 12)]
    for ctx in random_contexts(rng, alphabet, 6):
        for tree in trees:
            assert_cell(teacher, tree, ctx)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_grammar_cells_match_composed(monkeypatch, name, exact):
    g = load_wcfg(FIXTURES / f"{name}.wcfg", exact)
    teacher = SimulatedTeacher(g, epsilon=0 if exact else 1e-6)
    built = library_compose(monkeypatch, refuse=exact)
    check_target(monkeypatch, teacher, g.alphabet(2), seed=len(name))
    assert exact or built  # float cells weigh c∘t


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_converted_automaton_cells_match_composed(monkeypatch, name, exact):
    a = wcfg_to_pmta(load_wcfg(FIXTURES / f"{name}.wcfg", exact))
    teacher = SimulatedTeacher(a, epsilon=0 if exact else 1e-6)
    built = library_compose(monkeypatch, refuse=exact)
    check_target(monkeypatch, teacher, a.alphabet, seed=len(name) + 7)
    assert exact or built


def test_random_cmta_cells_match_composed(monkeypatch):
    rng = random.Random(2718)
    alphabet = RankedAlphabet(["a", "b"], 2)
    library_compose(monkeypatch, refuse=True)
    for i in range(30):
        target = random_cmta(rng, alphabet, rng.randint(0, 3))
        check_target(monkeypatch, SimulatedTeacher(target), alphabet, seed=i)


def random_signed_mta(rng, alphabet, dim) -> MTA:
    """Random exact automaton with coefficients in {-1, 0, 1}, about half of
    them non-zero, so columns hold several entries and sums often cancel."""
    def value():
        return Fraction(rng.choice((-1, 0, 0, 1)))

    leaf_maps = {tok: [value() for _ in range(dim)] for tok in alphabet.leaf_symbols}
    node_maps = {}
    for k in range(1, alphabet.max_rank + 1):
        m = node_maps[k] = MultilinearMap(k, dim)
        for col in itertools.product(range(dim), repeat=k):
            for i in range(dim):
                if c := value():
                    m.columns.setdefault(col, {})[i] = c
    return MTA(alphabet, dim, leaf_maps, node_maps, [value() for _ in range(dim)])


def test_signed_automaton_cells_match_composed(monkeypatch):
    """Signed, non-co-linear exact automata answer every cell from its
    parts, a cancelling sum included: both paths give 0."""
    rng = random.Random(31)
    alphabet = RankedAlphabet(["a", "b"], 2)
    library_compose(monkeypatch, refuse=True)
    cancelled = 0
    for i in range(12):
        target = random_signed_mta(rng, alphabet, rng.randint(2, 3))
        assert not target.is_positive() and not target.is_colinear_mta()
        teacher = SimulatedTeacher(target)
        check_target(monkeypatch, teacher, alphabet, seed=i)
        for ctx in random_contexts(rng, alphabet, 4):
            for _ in range(4):
                tree = random_tree(rng, alphabet, 4)
                assert_cell(teacher, tree, ctx)
                whole = compose(ctx, tree)
                terms = [target.output[j] * x for j, x in target.eval_support(whole)
                         if target.output[j] != 0]
                cancelled += len(terms) > 1 and sum(terms) == 0
    assert cancelled >= 5


def random_sparse_mta(rng, alphabet, dim, scalar, fill_late) -> MTA:
    """Random exact automaton with about one column in three and leaf
    entries in two, all of one type, int or Fraction, so that no path's
    sums mix types.  With fill_late its maps are filled after MTA(...),
    before its first evaluation."""
    def value():
        x = scalar(rng.choice((-2, -1, 1, 1, 3)))
        return x / rng.choice((1, 2)) if scalar is Fraction else x

    leaf_maps = {tok: [value() if rng.random() < 0.5 else scalar(0) for _ in range(dim)]
                 for tok in alphabet.leaf_symbols}
    columns = {k: {col: {i: value() for i in rng.sample(range(dim), rng.randint(1, dim))}
                   for col in itertools.product(range(dim), repeat=k) if rng.random() < 0.35}
               for k in range(1, alphabet.max_rank + 1)}
    output = [value() for _ in range(dim)]
    if not fill_late:
        return MTA(alphabet, dim, leaf_maps,
                   {k: MultilinearMap(k, dim, cols) for k, cols in columns.items()}, output)
    a = MTA(alphabet, dim, leaf_maps, {}, output)
    for k, cols in columns.items():
        a.node_maps[k].columns.update(cols)
    return a


def test_sparse_rank3_pullbacks_match_composed():
    """Rank-3 automata with missing columns, unary levels and zero siblings:
    a cell pulled back equals the composed tree's weight, in value and type,
    with the hole at every slot, and a map filled after MTA(...) counts."""
    rng = random.Random(3003)
    alphabet = RankedAlphabet(["a", "b", "c"], 3)
    slots, zero_siblings, late_nonzero = set(), 0, 0
    for i in range(24):
        scalar, fill_late = (int, Fraction)[i % 2], i % 4 >= 2
        a = random_sparse_mta(rng, alphabet, rng.randint(1, 4), scalar, fill_late)
        for ctx in random_contexts(rng, alphabet, 3, max_depth=4):
            for _ in range(3):
                tree = random_tree(rng, alphabet, 3)
                factored, composed = a.eval(tree, ctx), a.eval(compose(ctx, tree))
                assert factored == composed and type(factored) is type(composed), \
                    (i, tree.text, ctx.text)
                late_nonzero += fill_late and factored != 0
            for left, right in ctx.levels:
                slots.add((len(left) + 1 + len(right), len(left)))
                zero_siblings += not all(a.eval_support(s) for s in left + right)
    assert slots == {(k, h) for k in (1, 2, 3) for h in range(k)}
    assert zero_siblings and late_nonzero


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("distance", ["duplication", "swap"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_corpus_cells_match_composed(monkeypatch, seed, distance, exact):
    entries = learn_corpus_entries(seed)
    corpus = [(t, f if exact else float(f)) for t, f in entries]
    oracle = CorpusOracle(corpus, Fraction(1, 5) if exact else 0.2, distance)
    teacher = SimulatedTeacher(oracle, epsilon=0 if exact else 1e-6)
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    check_target(monkeypatch, teacher, oracle.alphabet(), seed, strategy)


# -- corpus cells against geneclusters' distances ------------------------------


def corpus_reference(corpus, decay, distance, tree):
    """Sum of freq * decay^d(tree, entry) over the whole corpus in corpus
    order, d by the reference distances of conftest (inf on a non-binary
    tree, since every entry is binary)."""
    dist = (reference_duplication_distance if distance == "duplication"
            else reference_swap_distance)
    total = sum(freq for _, freq in corpus)
    out = 0
    for entry, freq in corpus:
        d = dist(tree, entry)
        if d != INF:
            out = out + freq / total * decay ** int(d)
    return out


class CorpusCase:
    """A corpus oracle over one distance and scalar type, checked cell by
    cell against corpus_reference on the composed tree."""

    def __init__(self, entries, distance, exact):
        self.corpus = [(t, f if exact else float(f)) for t, f in entries]
        self.decay = Fraction(1, 5) if exact else 0.2
        self.distance = distance
        self.oracle = CorpusOracle(self.corpus, self.decay, distance)
        self.finite = 0  # cells with an entry at finite distance

    def check(self, tree, ctx=IDENTITY_CONTEXT):
        got = self.oracle.smq(tree, ctx)
        want = corpus_reference(self.corpus, self.decay, self.distance, compose(ctx, tree))
        assert got == want and type(got) is type(want), (ctx.text, tree.text)
        self.finite += want != 0


def hole_at_each_node(tree) -> list:
    """(context root, the subtree its hole replaced) for every non-root
    node of tree."""
    out = []
    if isinstance(tree, Node):
        for i, child in enumerate(tree.children):
            for root, sub in [(HOLE, child)] + hole_at_each_node(child):
                kids = list(tree.children)
                kids[i] = root
                out.append((Node(kids), sub))
    return out


def perturbed(rng, t, swaps=0.3, chains=0.4):
    """t with some nodes' children swapped and some right chains (leaves
    too) grown or shrunk: often at finite distance from t."""
    shape = right_chain_shape(t)
    if shape is not None and rng.random() < chains:
        return right_chain(shape[0], rng.randint(1, shape[1] + 2))
    if isinstance(t, Leaf):
        return t
    kids = [perturbed(rng, c, swaps, chains) for c in t.children]
    if rng.random() < swaps:
        kids.reverse()
    return Node(kids)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("distance", ["duplication", "swap"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_corpus_cells_match_the_distance_reference(monkeypatch, seed, distance, exact):
    """Every cell of a learned table, then contexts cut from perturbed
    corpus trees around perturbed copies of the subtree cut out."""
    entries = learn_corpus_entries(seed)
    case = CorpusCase(entries, distance, exact)
    learner_oracle = CorpusOracle(case.corpus, case.decay, distance)
    strategy = DuplicationsStrategy([t for t, _ in entries], max_dup=1)
    table = learned_table(monkeypatch, SimulatedTeacher(learner_oracle, strategy),
                          case.oracle.alphabet())
    for tree in table._order:
        for ctx in table.columns:
            case.check(tree, ctx)
    rng = random.Random(seed)
    # the edits the distance counts, then both
    edits = (0, 0.4) if distance == "duplication" else (0.4, 0)
    for entry, _ in entries:
        for _ in range(4):
            for root, sub in hole_at_each_node(perturbed(rng, entry, *edits)):
                ctx = Context(root)
                for tree in (sub, perturbed(rng, sub, *edits), perturbed(rng, sub)):
                    case.check(tree, ctx)
    assert case.finite > 300


ABC3 = RankedAlphabet(["a", "b", "c"], 3)
TARGETED_CORPUS = ("(a (a (a a)))", "(b (a (a a)))", "((a (a a)) b)", "((c (a b)) (b c))",
                   "((a a) (a (a b)))", "(c (b (a a)))")


def mirrored(t):
    """t with the children of every node reversed: one swap per node."""
    return t if isinstance(t, Leaf) else Node([mirrored(c) for c in reversed(t.children)])


TARGETED_CONTEXTS = {
    # a spine of (a <>) levels: a chain of a's at the hole stays one above
    "chain through the hole": ["(a <>)", "(a (a <>))", "(a (a (a <>)))", "(b (a <>))",
                               "(b (a (a <>)))", "((a <>) b)", "(c (b (a <>)))",
                               "((a (a <>)) b)", "(a (b <>))"],
    # (<> chain of a's): the leaf a at the hole makes a chain one longer;
    # the last two reach below an entry's leaf a, where only that leaf fits
    "left of a chain": ["(<> a)", "(<> (a a))", "(<> (a (a a)))", "(a (<> (a a)))",
                        "(b (<> (a a)))", "((<> (a a)) b)", "(a (a (<> a)))", "(<> (b a))",
                        "(b (a (a (<> a))))", "(c (b (a (<> a))))"],
    "unary and ternary levels": ["(<>)", "(a (<>))", "((a <>))", "(a <> a)", "(a (a <> a))",
                                 "((a <> b) c)", "((<>) (a a))", "(b ((<> a)))"],
    # every node of a mirrored corpus tree holds the hole in turn
    "a swap at every level": [
        Context(root).text for text in TARGETED_CORPUS
        for root, _ in hole_at_each_node(mirrored(parse_structured_string(text, ABC3)))],
    # the spine runs on below the leaves of the small entries of its corpus
    "below a small entry": ["((<> a) b)", "(a (b <>))", "(b ((<> a) b))", "((b <>) a)"],
}
# the corpus of a group, where it is not TARGETED_CORPUS: entries smaller
# than c∘t, whose leaves a swap alignment reaches above the hole, beside
# entries of c∘t's size
TARGETED_CORPORA = {
    "below a small entry": ("(a b)", "((a b) (b a))", "((a a) b)", "(b (a (a b)))",
                            "(a (b (a b)))"),
}
TARGETED_TREES = ["a", "b", "c", "(a a)", "(a (a a))", "(a (a (a a)))", "(a b)", "(b a)",
                  "((a a) a)", "(c (a b))", "((b a) c)", "(b c)", "(c b)", "(a (a b))",
                  "(a)", "((a a))", "(a b a)", "(a (a a) a)", "((a) b)"]


def targeted_case(distance, exact, corpus=TARGETED_CORPUS):
    entries = [(parse_structured_string(text, ABC3), Fraction(i + 1))
               for i, text in enumerate(corpus)]
    return CorpusCase(entries, distance, exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("distance", ["duplication", "swap"])
@pytest.mark.parametrize("group", TARGETED_CONTEXTS)
def test_targeted_corpus_contexts_match_the_distance_reference(group, distance, exact):
    case = targeted_case(distance, exact, TARGETED_CORPORA.get(group, TARGETED_CORPUS))
    for ctx_text in TARGETED_CONTEXTS[group]:
        ctx = parse_context(ctx_text, ABC3)
        for tree_text in TARGETED_TREES:
            case.check(parse_structured_string(tree_text, ABC3), ctx)
    # non-binary levels leave every cell at infinite distance
    assert (case.finite == 0) == (group == "unary and ternary levels")
    if group != "unary and ternary levels":
        assert case.finite >= 4


def test_chain_cells_count_the_copies_through_the_hole():
    case = targeted_case("duplication", True)
    total = sum(range(1, len(TARGETED_CORPUS) + 1))
    a, aa = Leaf("a"), parse_structured_string("(a a)", ABC3)
    for ctx_text, tree, d in [("(a (a <>))", aa, 0), ("(a <>)", a, 2), ("(a (a (a <>)))", aa, 1),
                              ("(<> (a a))", a, 1), ("(<> (a (a a)))", a, 0)]:
        # the 4-chain (a (a (a a))), frequency 1, is the only entry at finite distance
        assert case.oracle.smq(tree, parse_context(ctx_text, ABC3)) == Fraction(1, total) / 5 ** d
    # (b ...) keeps b apart: its a-chain of 3 meets the 3 a's below it
    assert case.oracle.smq(aa, parse_context("(b (a <>))", ABC3)) == Fraction(2, total)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("distance", ["duplication", "swap"])
@pytest.mark.parametrize("plain_first", [False, True], ids=["cells-first", "plain-first"])
def test_plain_queries_and_cells_share_the_memo_in_either_order(plain_first, distance, exact):
    """The oracle memoizes subtree distances for plain queries and cells
    alike; whichever comes first, both match the reference."""
    case = targeted_case(distance, exact)
    contexts = [parse_context(text, ABC3) for group in TARGETED_CONTEXTS.values()
                for text in group]
    trees = [parse_structured_string(text, ABC3) for text in TARGETED_TREES]
    cells = [(tree, ctx) for ctx in contexts for tree in trees]
    plain = [(t, IDENTITY_CONTEXT) for t in dict.fromkeys(
        sub for tree, ctx in cells for sub in subtrees(compose(ctx, tree)))]
    for tree, ctx in (plain + cells if plain_first else cells + plain):
        case.check(tree, ctx)
    assert case.finite > 50


def test_corpus_learn_builds_no_composed_tree(monkeypatch):
    library_compose(monkeypatch, refuse=True)
    for distance in ("duplication", "swap"):
        entries = learn_corpus_entries(3)
        oracle = CorpusOracle(entries, Fraction(1, 5), distance)
        teacher = SimulatedTeacher(oracle, DuplicationsStrategy([t for t, _ in entries], 1))
        report = learn(teacher, oracle.alphabet())
        assert report.smq_count > 1000 and len(report.table.columns) > 1


# -- edge cases ----------------------------------------------------------------

AB = RankedAlphabet(["a", "b"], 2)


@pytest.mark.parametrize("distance", ["duplication", "swap"])
def test_corpus_join_merges_a_single_token_with_both_sides(distance):
    # a's yield ends the left side and starts the right one: a a a is one run
    corpus = [(parse_structured_string("(a (a a))", AB), Fraction(3)),
              (parse_structured_string("(a (b a))", AB), Fraction(1))]
    oracle = CorpusOracle(corpus, Fraction(1, 5), distance)
    for ctx_text, tok in [("(a (<> a))", "a"), ("(a (<> a))", "b"), ("((a <>) a)", "a"),
                          ("(<> (a a))", "a"), ("((a a) <>)", "a"), ("(a <>)", "a")]:
        ctx, tree = parse_context(ctx_text, AB), Leaf(tok)
        value, whole = oracle.smq(tree, ctx), oracle.smq(compose(ctx, tree))
        assert value == whole and type(value) is type(whole), ctx_text
    assert oracle.smq(Leaf("a"), parse_context("(a (<> a))", AB)) == Fraction(3, 4)


def test_corpus_join_keeps_runs_apart_at_the_boundaries():
    oracle = CorpusOracle([(parse_structured_string("(a (b (b a)))", AB), Fraction(1))],
                          Fraction(1, 5), "duplication")
    ctx = parse_context("(a (<> a))", AB)
    for text in ["b", "(b b)", "(a b)", "(b a)", "((a b) (b a))"]:
        tree = parse_structured_string(text, AB)
        value, whole = oracle.smq(tree, ctx), oracle.smq(compose(ctx, tree))
        assert value == whole and type(value) is type(whole), text


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_unknown_terminal_raises_the_same_grammar_error(exact):
    g = load_wcfg(FIXTURES / "acrab.wcfg", exact)
    alphabet = RankedAlphabet(list(g.terminals) + ["zz"], 2)
    teacher = SimulatedTeacher(g)
    known = Leaf(g.terminals[0])
    for tree, ctx in [(known, parse_context("(zz <>)", alphabet)),
                      (known, parse_context("((zz zz) (<> zz))", alphabet)),
                      (Leaf("zz"), parse_context(f"({g.terminals[0]} <>)", alphabet))]:
        with pytest.raises(GrammarError, match="unknown terminal 'zz'"):
            teacher.smq(tree, ctx)
        with pytest.raises(GrammarError, match="unknown terminal 'zz'"):
            teacher.smq(compose(ctx, tree))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_over_rank_node_weighs_zero(exact):
    g = load_wcfg(FIXTURES / "acrab.wcfg", exact)
    alphabet = g.alphabet(3)
    x, y = g.terminals[:2]
    teacher = SimulatedTeacher(g)
    zero = Fraction(0) if exact else 0.0
    cases = [(Leaf(x), parse_context(f"({x} {y} <>)", alphabet)),
             (Leaf(x), parse_context(f"(({x} {y} {x}) <>)", alphabet)),
             (parse_structured_string(f"({x} {y} {x})", alphabet),
              parse_context(f"({y} <>)", alphabet))]
    for tree, ctx in cases:
        assert_cell(teacher, tree, ctx)
        value = teacher.smq(tree, ctx)
        assert value == zero and type(value) is type(zero)


def test_automaton_over_rank_or_unknown_leaf_fails_as_eval_does():
    a = wcfg_to_pmta(load_wcfg(FIXTURES / "smalldup.wcfg"))
    teacher = SimulatedTeacher(a)
    wide = RankedAlphabet(["a", "zz"], 3)
    for tree, ctx in [(Leaf("a"), parse_context("(a a <>)", wide)),
                      (Leaf("a"), parse_context("(zz <>)", wide)),
                      (Leaf("zz"), parse_context("(a <>)", wide))]:
        with pytest.raises(ValueError) as factored:
            teacher.smq(tree, ctx)
        with pytest.raises(ValueError) as composed:
            a.eval(compose(ctx, tree))
        assert str(factored.value) == str(composed.value)


def test_identity_context_is_the_plain_query():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    rng = random.Random(5)
    alphabet = g.alphabet(2)
    for target in [g, wcfg_to_pmta(g), random_cmta(rng, alphabet, 3)]:
        teacher = SimulatedTeacher(target)
        for _ in range(40):
            tree = random_tree(rng, alphabet, 4)
            got, plain = teacher.smq(tree, IDENTITY_CONTEXT), teacher.smq(tree)
            assert got == plain and type(got) is type(plain)


def test_zero_cells_keep_the_evaluators_zero_types():
    g = load_wcfg(FIXTURES / "acrab.wcfg")
    alphabet = g.alphabet(2)
    x = g.terminals[0]
    ctx = parse_context(f"({x} ({x} <>))", alphabet)
    for target, zero in [(g, Fraction(0)), (wcfg_to_pmta(g), 0),
                         (MTA.zero(alphabet), Fraction(0))]:
        value = SimulatedTeacher(target).smq(Leaf(x), ctx)
        assert value == 0 and type(value) is type(zero)
