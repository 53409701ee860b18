"""The sign and range tests of the conversions decide as the comparisons
they replaced.

`scalars.is_nonnegative` and `scalars.exceeds_one` read a Fraction's
numerator and denominator instead of comparing it with 0 and 1, totals in
`WCFG.is_normalized` start at their first weight, and the zero filters of
`partition_functions` and `wcfg_to_pcfg` test truthiness.  The references
below are the formulas these replaced: `w < 0`, `w > 1 and not
scalar_eq(w, 1)`, totals from the grammar's zero, `!= 0` filters.  They run
on seeded random grammars and automata with exact, int, float and mixed
weights, and must decide alike and give the same PCFG weights, value and
type.  (The order of float sums is checked by the CLI pins.)
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

import skelgram.grammar as grammar
from skelgram.grammar import (GrammarError, WCFG, partition_functions, wcfg_to_pcfg,
                              wcfg_to_pmta)
from skelgram.mta import MTA
from skelgram.multilinear import MultilinearMap
from skelgram.scalars import exceeds_one, is_nonnegative, scalar_eq
from skelgram.trees import RankedAlphabet

# per kind, the weights drawn: zeros, ones, a negative, and values just above
# one, inside and outside the float tolerance
POOLS = {
    "exact": [Fraction(0), Fraction(1), Fraction(-1, 7), 1 + Fraction(1, 10 ** 30),
              Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3)],
    "int": [0, 1, 1, -1, 2],
    "float": [0.0, -0.0, 1.0, -1 / 7, 1.0 + 1e-12, 1.0 + 1e-8, 0.5, 1 / 3, 0.1, 3.0],
    "mixed": [0, 1, Fraction(0), Fraction(1), 0.0, 1.0, Fraction(-1, 7), -1 / 7,
              1 + Fraction(1, 10 ** 30), 1.0 + 1e-12, Fraction(1, 2), 0.5, Fraction(1, 3),
              0.1, 3],
}
NONTERMINALS = ["S", "A", "B"]
TERMINALS = ["a", "b"]


def same(a, b):
    """Equal in value, type and, for floats, the sign of a zero."""
    return (type(a) is type(b) and a == b
            and (type(a) is not float or math.copysign(1.0, a) == math.copysign(1.0, b)))


# -- the old formulas --------------------------------------------------------


def old_is_normalized(g):
    totals = {}
    for (lhs, _), w in g.weights.items():
        if w < 0 or (w > 1 and not scalar_eq(w, 1)):
            return False
        totals[lhs] = totals.get(lhs, g._zero) + w
    return all(scalar_eq(tot, 1) for tot in totals.values())


def old_partition_functions(g):
    if any(w < 0 for w in g.weights.values()):
        raise GrammarError("grammar has a negative weight")
    rules = [(lhs, [s for s in rhs if s in g._nt_set], w)
             for (lhs, rhs), w in g.weights.items() if w != 0]
    productive = grammar._productive(rules)
    by_lhs = {nt: [] for nt in g.nonterminals if nt in productive}
    for lhs, nts, w in rules:
        if all(s in productive for s in nts):
            by_lhs[lhs].append((nts, w))
    graph = {nt: list(dict.fromkeys(s for nts, _ in rs for s in nts))
             for nt, rs in by_lhs.items()}
    z = {nt: g._zero for nt in g.nonterminals}
    for comp in grammar._sccs(graph):
        z.update(zip(comp, grammar._solve_component(comp, by_lhs, z)))
    return z


def old_wcfg_to_pcfg(g):
    """(nonterminals, weights) of the PCFG, or raises as wcfg_to_pcfg did."""
    z = old_partition_functions(g)
    if z[g.start] == 0:
        raise GrammarError("start symbol derives nothing; cannot normalize")
    weights = {}
    for (lhs, rhs), w in g.weights.items():
        zl = z[lhs]
        if zl == 0:
            continue
        term = w
        for sym in rhs:
            if sym in g._nt_set:
                term = grammar.times(term, z[sym])
        weights[(lhs, rhs)] = (term if term.__class__ is not int
                               and grammar.is_unit(zl, term) else term / zl)
    weights = {r: w for r, w in weights.items() if w != 0}
    kept_nts = [nt for nt in g.nonterminals if z[nt] != 0]
    pcfg = WCFG(kept_nts, list(g.terminals), weights)
    if not old_is_normalized(pcfg):
        raise GrammarError("weights do not satisfy per-nonterminal normalization")
    return kept_nts, pcfg.weights


# -- random inputs -----------------------------------------------------------


def random_grammar(rng, kind):
    """S, A and B over a and b, each with a terminal rule and up to two
    rules over anything, recursive ones included; half of them are then
    divided by each nonterminal's total, so that many are normalized."""
    pool = POOLS[kind]
    weights = {}
    for nt in NONTERMINALS:
        weights[(nt, (rng.choice(TERMINALS),))] = rng.choice(pool)
        for _ in range(rng.randint(0, 2)):
            rhs = tuple(rng.choice(NONTERMINALS + TERMINALS) for _ in range(rng.randint(1, 2)))
            weights[(nt, rhs)] = rng.choice(pool)
    if rng.random() < 0.5:
        totals = {}
        for (lhs, _), w in weights.items():
            totals[lhs] = totals.get(lhs, 0) + w
        weights = {(lhs, rhs): w / totals[lhs] if totals[lhs] else w
                   for (lhs, rhs), w in weights.items()}
    return WCFG(NONTERMINALS, TERMINALS, weights)


def random_mta(rng, kind, extra=()):
    pool = POOLS[kind] + list(extra)
    alphabet = RankedAlphabet(TERMINALS, 2)
    d = rng.randint(1, 3)
    leaf_maps = {tok: [rng.choice(pool) for _ in range(d)] for tok in TERMINALS}
    node_maps = {}
    for k in (1, 2):
        m = node_maps[k] = MultilinearMap(k, d)
        for col in itertools.product(range(d), repeat=k):
            if rng.random() < 0.5:
                m.columns[col] = {rng.randrange(d): rng.choice(pool)}
    return MTA(alphabet, d, leaf_maps, node_maps, [rng.choice(pool) for _ in range(d)])


def outcome(fn, g):
    try:
        return fn(g)
    except GrammarError as exc:
        return "error", str(exc)


# -- the tests ---------------------------------------------------------------


def test_helpers_match_the_comparisons():
    values = [v for pool in POOLS.values() for v in pool] + [
        Fraction(-1, 10 ** 40), Fraction(10 ** 40 + 1, 10 ** 40), Fraction(7, 7),
        Fraction(10 ** 400, 3), -(10 ** 400), 1 + 1e-9, 1 + 2e-9, 2.5e300, -math.inf,
        math.inf, math.nan]
    for x in values:
        assert is_nonnegative(x) == (x >= 0), x
        assert exceeds_one(x) == (x > 1 and not scalar_eq(x, 1)), x


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_grammar_checks_and_pcfgs_match_the_old_formulas(kind):
    rng = random.Random(f"sign range {kind}")
    decided = set()
    results = set()
    for _ in range(150):
        g = random_grammar(rng, kind)
        normalized = g.is_normalized()
        assert normalized == old_is_normalized(g), g.weights
        decided.add(normalized)
        negative = not all(map(is_nonnegative, g.weights.values()))
        assert negative == any(w < 0 for w in g.weights.values())
        for fn in (partition_functions, wcfg_to_pmta):
            got = outcome(fn, g)
            assert (got == ("error", "grammar has a negative weight")) == negative
        got, want = outcome(wcfg_to_pcfg, g), outcome(old_wcfg_to_pcfg, g)
        if isinstance(want, tuple) and want[0] == "error":
            assert got == want, g.weights
            results.add(want[1])
            continue
        kept_nts, weights = want
        assert got.nonterminals == kept_nts
        assert list(got.weights) == list(weights), g.weights
        assert all(same(got.weights[r], weights[r]) for r in weights), (got.weights, weights)
        results.add("pcfg")
    assert decided == {True, False}
    assert {"pcfg", "grammar has a negative weight"} <= results


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_is_positive_matches_the_old_formula(kind):
    rng = random.Random(f"positive {kind}")
    extra = [math.nan] if kind in ("float", "mixed") else []
    decided = set()
    for _ in range(200):
        a = random_mta(rng, kind, extra)
        positive = a.is_positive()
        assert positive == all(x >= 0 for x in a._coefficients())
        decided.add(positive)
    assert decided == {True, False}
