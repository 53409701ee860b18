"""difference_witness against a brute-force sweep of small trees, and
against the tree-by-tree search it replaced, which must find the same
first witness."""
import itertools
import random
from fractions import Fraction

import pytest

import skelgram.teacher as teacher_module
from skelgram.equivalence import difference_witness
from skelgram.grammar import WCFG, load_wcfg, pmta_to_wcfg, wcfg_to_pmta
from skelgram.learner import learn
from skelgram.mta import MTA
from skelgram.multilinear import MultilinearMap
from skelgram.teacher import SimulatedTeacher
from skelgram.trees import Leaf, Node, RankedAlphabet, tuples_holding

from conftest import FIXTURES, random_cmta

SWEEP_SIZE = 8  # nodes; every tree this small has at most 6 leaves here


def small_trees(alphabet, max_size, max_leaves=6):
    """Every tree of at most max_size nodes and max_leaves leaves, unary and
    up to max-rank nodes included."""
    by_size = {1: [(Leaf(tok), 1) for tok in alphabet.leaf_symbols]}
    for size in range(2, max_size + 1):
        found = []
        for k in range(1, alphabet.max_rank + 1):
            for cut in itertools.combinations(range(1, size - 1), k - 1):
                sizes = [b - a for a, b in zip((0,) + cut, cut + (size - 1,))]
                for combo in itertools.product(*[by_size[s] for s in sizes]):
                    n = sum(leaves for _, leaves in combo)
                    if n <= max_leaves:
                        found.append((Node([t for t, _ in combo]), n))
        by_size[size] = found
    return [t for trees in by_size.values() for t, _ in trees]


def reference_witness(a, b):
    """The search as it was: each tree tried is built and weighed by both
    automata's eval, then its joint vector is reduced by echelon rows that
    keep their lead entry."""
    offset, full = a.dim, a.dim + b.dim
    rows = {}

    def independent(t):
        v = dict(a.eval_support(t))
        v.update((offset + i, x) for i, x in b.eval_support(t))
        while v:
            lead = min(v)
            c = Fraction(v[lead])
            row = rows.get(lead)
            if row is None:
                rows[lead] = {i: x / c for i, x in v.items()}
                return True
            for i, x in row.items():
                y = v.get(i, 0) - c * x
                if y:
                    v[i] = y
                else:
                    del v[i]
        return False

    basis = []
    trees = iter([Leaf(tok) for tok in a.alphabet.leaf_symbols])
    done = 0
    while True:
        for t in trees:
            if a.eval(t) != b.eval(t):
                return t
            if independent(t):
                basis.append(t)
                if len(rows) == full:
                    return None
        if done == len(basis):
            return None
        trees = (Node(combo) for combo in
                 tuples_holding(basis[done], basis[:done], a.alphabet.max_rank))
        done += 1


def text(tree):
    return None if tree is None else tree.text


def first_difference(a, b, trees):
    return next((t for t in trees if a.eval(t) != b.eval(t)), None)


def check_against_sweep(a, b, trees):
    """The witness is the reference search's and differs; no witness means
    no swept tree differs; a swept difference means there is a witness.
    Returns the witness."""
    witness = difference_witness(a, b)
    assert text(witness) == text(reference_witness(a, b))
    swept = first_difference(a, b, trees)
    if witness is None:
        assert swept is None, swept
    else:
        assert a.eval(witness) != b.eval(witness)
    if swept is not None:
        assert witness is not None
    return witness


def rescaled(a, scale):
    """The automaton with state i multiplied by scale[i]: the same series."""
    d = a.dim
    leaf_maps = {tok: [scale[i] * x for i, x in enumerate(v)] for tok, v in a.leaf_maps.items()}
    node_maps = {}
    for k, m in a.node_maps.items():
        columns = {}
        for col, entries in m.columns.items():
            inv = Fraction(1)
            for j in col:
                inv /= scale[j]
            columns[col] = {i: scale[i] * c * inv for i, c in entries.items()}
        node_maps[k] = MultilinearMap(k, d, columns)
    output = [x / scale[i] for i, x in enumerate(a.output)]
    return MTA(a.alphabet, d, leaf_maps, node_maps, output)


def perturbed(a, rng):
    """The automaton with one node-map coefficient changed."""
    k = rng.randint(1, a.alphabet.max_rank)
    m = a.node_maps[k]
    col = tuple(rng.randrange(a.dim) for _ in range(k))
    columns = {c: dict(e) for c, e in m.columns.items()}
    entries = columns.setdefault(col, {})
    i = next(iter(entries), rng.randrange(a.dim))
    entries[i] = entries.get(i, 0) + 1
    node_maps = dict(a.node_maps)
    node_maps[k] = MultilinearMap(k, a.dim, columns)
    return MTA(a.alphabet, a.dim, a.leaf_maps, node_maps, a.output)


@pytest.mark.parametrize("seed", range(30))
def test_random_cmta_pairs_match_the_sweep(seed):
    rng = random.Random(seed)
    alphabet = RankedAlphabet(["a", "b"], 3)
    trees = small_trees(alphabet, SWEEP_SIZE)
    a = random_cmta(rng, alphabet, rng.randint(1, 3))
    b = random_cmta(rng, alphabet, rng.randint(0, 3))
    check_against_sweep(a, b, trees)
    assert check_against_sweep(a, a, trees) is None
    scale = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
             for _ in range(a.dim)]
    assert check_against_sweep(a, rescaled(a, scale), trees) is None
    check_against_sweep(a, perturbed(a, rng), trees)


def test_difference_only_under_unary_and_ternary_nodes():
    # a weighs exactly the trees ((x)) and (x x x) with a leaf x; b is zero
    alphabet = RankedAlphabet(["x"], 3)
    unary = MultilinearMap(1, 3, {(0,): {1: Fraction(1)}, (1,): {2: Fraction(1)}})
    ternary = MultilinearMap(3, 3, {(0, 0, 0): {2: Fraction(1)}})
    a = MTA(alphabet, 3, {"x": [Fraction(1), Fraction(0), Fraction(0)]},
            {1: unary, 3: ternary}, [0, 0, Fraction(1)])
    trees = small_trees(alphabet, SWEEP_SIZE)
    witness = check_against_sweep(a, MTA.zero(alphabet), trees)
    assert witness.text in ("((x))", "(x x x)")


@pytest.mark.parametrize("name", ["acrab", "chain", "colinearity3", "fimacd",
                                  "smalldup", "trivial"])
def test_fixture_pairs_match_the_sweep(name):
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    a = wcfg_to_pmta(g, 2)
    trees = small_trees(a.alphabet, 6, 4)
    # the same series through pmta_to_wcfg, in another dimension
    assert check_against_sweep(a, wcfg_to_pmta(pmta_to_wcfg(a), 2), trees) is None
    # one rule reweighted
    rule = min(g.weights)
    weights = dict(g.weights)
    weights[rule] = weights[rule] * 2
    changed = WCFG(g.nonterminals, g.terminals, weights)
    assert check_against_sweep(a, wcfg_to_pmta(changed, 2), trees) is not None


def test_zero_automaton_differs_from_fimacd():
    # every fimacd tree of non-zero weight has a unary root, with > 6 nodes
    g = load_wcfg(FIXTURES / "fimacd.wcfg")
    a = wcfg_to_pmta(g, 2)
    witness = difference_witness(MTA.zero(a.alphabet), a)
    assert witness is not None and g.skeletal_weight(witness) != 0


def test_different_alphabets_are_refused():
    a = MTA.zero(RankedAlphabet(["a"], 2))
    with pytest.raises(ValueError, match="different alphabets"):
        difference_witness(a, MTA.zero(RankedAlphabet(["a"], 3)))


def test_inexact_automata_are_refused():
    # the same grammar, so no tree differs; float sums made one seem to
    exact = wcfg_to_pmta(load_wcfg(FIXTURES / "acrab.wcfg"), 2)
    inexact = wcfg_to_pmta(load_wcfg(FIXTURES / "acrab.wcfg", exact=False), 2)
    for a, b in [(inexact, exact), (exact, inexact)]:
        with pytest.raises(ValueError, match="must be exact"):
            difference_witness(a, b)


@pytest.mark.parametrize("name", ["acrab", "fimacd"])
def test_learn_queries_get_the_reference_witness(monkeypatch, name):
    asked = []

    def recorded(a, b):
        witness = difference_witness(a, b)
        asked.append((a, b, witness))
        return witness

    monkeypatch.setattr(teacher_module, "difference_witness", recorded)
    g = load_wcfg(FIXTURES / f"{name}.wcfg")
    report = learn(SimulatedTeacher(g), g.alphabet(2))
    assert len(asked) == report.seq_count > 1
    for a, b, witness in asked:
        assert text(witness) == text(reference_witness(a, b))
