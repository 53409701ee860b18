"""Exact sums start at their first term and exact ones are not multiplied.

The references below are the formulas these replaced: every sum from int 0,
every factor multiplied.  The new arithmetic must give the same values,
scalar types and float bits, zeros' signs included, on random automata,
grammars and tables: exact, float, mixed, and with int coefficients, with
exact ones among the coefficients, outputs and partition values.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

import skelgram.grammar as grammar
from skelgram.extract import extract_cmta
from skelgram.grammar import (GrammarError, WCFG, load_wcfg, partition_functions,
                              wcfg_to_pcfg)
from skelgram.learner import learn
from skelgram.mta import MTA
from skelgram.multilinear import MultilinearMap, apply
from skelgram.teacher import SimulatedTeacher
from skelgram.trees import Leaf, RankedAlphabet, full_trees

from conftest import (FIXTURES, binary_rational, enumerate_contexts, enumerate_trees,
                      random_cmta, with_weights)

# per kind: the non-zero coefficients drawn (ones twice as often) and the
# zeros; 1e-200 squared underflows to a signed zero
POOLS = {
    "exact": ([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)],
              [Fraction(0)]),
    "int": ([1, 1, 2, -1, 3], [0]),
    "exact-mixed": ([1, Fraction(1), Fraction(1, 2), -1, Fraction(3)], [0, Fraction(0)]),
    "float": ([1.0, 1.0, 0.5, -0.75, 3.0, 1e-200, -1e-200], [0.0]),
    "mixed": ([1, Fraction(1), 1.0, Fraction(1, 2), 0.5, -0.75, 1e-200, -1e-200],
              [0, Fraction(0), 0.0]),
}
EXACT_KINDS = ("exact", "int", "exact-mixed")
ALPHABET = RankedAlphabet(["a", "b"], 2)


def same(a, b):
    """Equal in value, type and, for floats, the sign of a zero."""
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return (type(a) is type(b) and a == b
            and (type(a) is not float or math.copysign(1.0, a) == math.copysign(1.0, b)))


# -- the old formulas --------------------------------------------------------


def old_apply(m, args):
    out = {}
    for combo in itertools.product(*args):
        col = m.columns.get(tuple(j for j, _ in combo))
        if col:
            for i, c in col.items():
                for _, x in combo:
                    c = c * x
                y = out.get(i)
                out[i] = c if y is None else y + c
    return sorted((i, y) for i, y in out.items() if y)


def old_support(a, t):
    if not hasattr(t, "children"):
        return [(j, x) for j, x in enumerate(a.leaf_maps[t.token]) if x]
    args = [old_support(a, c) for c in t.children]
    return old_apply(a.node_maps[len(args)], args) if all(args) else []


def old_dot(lam, support, dim):
    acc = 0
    for i, x in support:
        w = lam[i]
        if w:
            acc = acc + w * x
    if acc or acc.__class__ is float:
        return acc
    return 0 if dim else Fraction(0)


def old_pullback(a, c):
    lam = a.output
    for left, right in c.levels:
        k, h = len(left) + 1 + len(right), len(left)
        sides = [old_support(a, s) for s in left + right]
        lam = [sum(lam[i] * x for i, x in
                   old_apply(a.node_maps[k], sides[:h] + [[(j, 1)]] + sides[h:])
                   if lam[i]) or 0
               for j in range(a.dim)]
    return lam


def old_eval(a, t, c=None):
    if c is None or not c.levels:
        return old_dot(a.output, old_support(a, t), a.dim)
    return old_dot(old_pullback(a, c), old_support(a, t), a.dim)


# -- random inputs -----------------------------------------------------------


def value(rng, kind, density=1.0):
    values, zeros = POOLS[kind]
    return rng.choice(values) if rng.random() < density else rng.choice(zeros)


def random_mta(rng, kind):
    d = rng.randint(1, 3)
    leaf_maps = {tok: [value(rng, kind, 0.6) for _ in range(d)] for tok in ALPHABET.leaf_symbols}
    node_maps = {}
    for k in (1, 2):
        m = node_maps[k] = MultilinearMap(k, d, zero_scalar=POOLS[kind][1][0])
        for col in itertools.product(range(d), repeat=k):
            for i in range(d):
                if rng.random() < 0.4:
                    m.columns.setdefault(col, {})[i] = value(rng, kind)
    return MTA(ALPHABET, d, leaf_maps, node_maps, [value(rng, kind, 0.7) for _ in range(d)])


TREES = enumerate_trees(ALPHABET, 3)
CONTEXTS = enumerate_contexts(ALPHABET, 3)


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_eval_pullback_and_apply_match_the_old_formulas(kind):
    rng = random.Random(kind)
    zero_signs = set()
    for _ in range(30):
        a = random_mta(rng, kind)
        for t in TREES:
            got = a.eval(t)
            assert same(got, old_eval(a, t)), (t.text, got)
            if got == 0 and type(got) is float:
                zero_signs.add(math.copysign(1.0, got))
        for c, t in zip(rng.sample(CONTEXTS, 40), rng.sample(TREES, 40)):
            got, want = a.eval(t, c), old_eval(a, t, c)
            if kind in EXACT_KINDS:
                assert same(got, want), (c.text, t.text)
                assert same(a.pullback(c), old_pullback(a, c)), c.text
            else:  # a float pullback multiplies in another order than the old one
                assert type(got) is type(want), (c.text, t.text)
                assert math.isclose(got, want, rel_tol=1e-12), (c.text, t.text)
        for k in (1, 2):
            for _ in range(10):
                args = [[(j, value(rng, kind)) for j in range(a.dim) if rng.random() < 0.7]
                        for _ in range(k)]
                args[0] = args[0] or [(0, 1)]  # an int 1 entry, which apply does not multiply by
                assert same(apply(a.node_maps[k], args), old_apply(a.node_maps[k], args))
    if kind in ("float", "mixed"):
        assert zero_signs == {1.0}  # float sums that cancel read +0.0


def test_a_float_product_that_underflows_still_weighs_plus_zero():
    # 1e-200 * -1e-200 is -0.0; summed from int 0 it read +0.0, and still does
    a = MTA(RankedAlphabet(["a"], 1), 1, {"a": [-1e-200]}, {}, [1e-200])
    leaf = Leaf("a")
    assert same(old_eval(a, leaf), 0.0) and same(a.eval(leaf), 0.0)


# -- tables ------------------------------------------------------------------


@pytest.mark.parametrize("target", ["colinearity3", "smalldup", "trivial", "acrab",
                                    "colinearity3 float", "smalldup float",
                                    "cmta 0", "cmta 1", "cmta 2"])
def test_hypothesis_value_matches_the_old_formulas(target):
    """On the final table of a learn: fixtures, exact and with the exact
    values of their float weights, and random co-linear automata."""
    name, _, mode = target.partition(" ")
    if name == "cmta":
        alphabet = ALPHABET
        teacher = SimulatedTeacher(random_cmta(random.Random(mode), alphabet, 3))
    else:
        g = load_wcfg(FIXTURES / f"{name}.wcfg")
        if mode:
            g = with_weights(g, binary_rational)
        alphabet = g.alphabet(2)
        teacher = SimulatedTeacher(g)
    table = learn(teacher, alphabet).table
    hypothesis = extract_cmta(table)
    for t in full_trees(table.alphabet.leaf_symbols, 4):
        assert same(table.hypothesis_value(t), old_eval(hypothesis, t)), t.text


# -- partition functions and PCFGs -------------------------------------------


# the weight of a recursive rule, small enough that Z stays finite
RECURSIVE = {"exact": [Fraction(1, 8)], "exact-mixed": [Fraction(1, 8)], "float": [0.125],
             "mixed": [Fraction(1, 8), 0.125]}


def random_grammar(rng, kind):
    """S, A and B over a and b; B's rules use only terminals, A's also B, and
    S's anything, with a small weight on each recursive rule.  Every other
    grammar is normalized, so that every Z is an exact or float 1."""
    nts = ["S", "A", "B"]
    weights = {}
    for depth, nt in enumerate(nts):
        below = nts[depth + 1:] + ["a", "b"]
        weights[(nt, (rng.choice("ab"),))] = value(rng, kind)
        for _ in range(rng.randint(0, 2)):
            rhs = tuple(rng.choice(below) for _ in range(rng.randint(1, 2)))
            weights[(nt, rhs)] = abs(value(rng, kind))
        if kind != "int" and rng.random() < 0.5:
            rhs = tuple(rng.sample([nt, rng.choice(below)], 2))
            weights[(nt, rhs)] = rng.choice(RECURSIVE[kind])
    weights = {r: abs(w) for r, w in weights.items() if w}
    if rng.random() < 0.5 and kind in ("exact", "float"):
        totals = {}
        for (lhs, _), w in weights.items():
            totals[lhs] = totals.get(lhs, 0) + w
        weights = {(lhs, rhs): w / totals[lhs] for (lhs, rhs), w in weights.items()}
    return WCFG(nts, ["a", "b"], weights)


def old_arithmetic(monkeypatch):
    """The grammar module with every factor multiplied and every divisor
    divided by: `times` multiplies and nothing `is_unit`."""
    monkeypatch.setattr(grammar, "times", lambda a, b: a * b)
    monkeypatch.setattr(grammar, "is_unit", lambda x, other: False)


def outcome(fn, g):
    try:
        result = fn(g)
    except GrammarError as exc:
        return "error", str(exc)
    return result if isinstance(result, dict) else result.weights


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_partition_functions_and_pcfgs_match_the_old_formulas(kind, monkeypatch):
    rng = random.Random(kind)
    grammars = [random_grammar(rng, kind) for _ in range(60)]
    new = [(outcome(partition_functions, g), outcome(wcfg_to_pcfg, g)) for g in grammars]
    with monkeypatch.context() as patch:
        old_arithmetic(patch)
        old = [(outcome(partition_functions, g), outcome(wcfg_to_pcfg, g)) for g in grammars]
    units = 0
    for g, (z, pcfg), (old_z, old_pcfg) in zip(grammars, new, old):
        for got, want in ((z, old_z), (pcfg, old_pcfg)):
            if isinstance(want, dict):
                assert list(got) == list(want), g.weights
                assert all(same(got[key], want[key]) for key in want), (g.weights, got, want)
            else:
                assert got == want
        units += isinstance(z, dict) and any(v == 1 for v in z.values())
    assert units  # some Z is an exact or float 1
