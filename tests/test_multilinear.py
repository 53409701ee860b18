import itertools
import random
from fractions import Fraction

import pytest

from skelgram import mta as mta_module
from skelgram.grammar import load_wcfg
from skelgram.mta import parse_mta
from skelgram.multilinear import MultilinearMap, apply, colinear_witness
from skelgram.scalars import is_unit
from skelgram.trees import RankedAlphabet

from conftest import FIXTURES, random_cmta, random_pmta, random_tree

# c^i_{j1 j2} = 4i + 2j1 + j2 + 1: the dense rows 1 2 3 4 / 5 6 7 8
COUNTING = {(0, 0): {0: 1, 1: 5}, (0, 1): {0: 2, 1: 6},
            (1, 0): {0: 3, 1: 7}, (1, 1): {0: 4, 1: 8}}
# the leaf-count node: row 0 adds the children's coordinate 0, row 1 keeps 1
LEAF_COUNT = {(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}}


def kron_apply(m, args):
    """Oracle: apply via explicit Kronecker product of the arguments, which
    varies the last argument's index fastest, as the columns are listed."""
    vecs = [list(v) for v in args]
    kron = [Fraction(1)]
    for v in vecs:
        kron = [x * y for x in kron for y in v]
    cols = itertools.product(range(m.dim), repeat=m.arity)
    coeffs = [m.columns.get(col, {}) for col in cols]
    return [sum(c.get(i, 0) * k for c, k in zip(coeffs, kron)) for i in range(m.dim)]


def support(v):
    """The sparse form apply takes: non-zero entries as (index, value)."""
    return [(j, x) for j, x in enumerate(v) if x]


def dense_apply(m, args):
    """apply on dense vectors, its result filled out with the zero scalar."""
    out = [m.zero_scalar] * m.dim
    for i, y in apply(m, [support(v) for v in args]):
        out[i] = y
    return out


def test_apply_leaf_count_node():
    m = MultilinearMap(2, 2, LEAF_COUNT)
    assert dense_apply(m, [[1, 1], [1, 1]]) == [2, 1]
    assert apply(m, [[(0, 1), (1, 1)], [(0, 1), (1, 1)]]) == [(0, 2), (1, 1)]


def test_apply_zero_map():
    m = MultilinearMap(2, 3)
    assert dense_apply(m, [[1, 2, 3], [4, 5, 6]]) == [0, 0, 0]
    assert apply(m, [support([1, 2, 3]), support([4, 5, 6])]) == []


def test_apply_scalar_multiplication():
    m = MultilinearMap(2, 1, {(0, 0): {0: Fraction(7)}})
    assert dense_apply(m, [[Fraction(2)], [Fraction(3)]]) == [Fraction(42)]


def test_apply_shape_errors():
    m = MultilinearMap(2, 2)
    with pytest.raises(ValueError):
        dense_apply(m, [[1, 2]])
    with pytest.raises(ValueError):
        dense_apply(m, [[1, 2], [1, 2, 3]])


@pytest.mark.parametrize("arg", [[(2, 1)], [(0, 1), (5, 2)], [(-1, 1)], [(-1, 1), (1, 1)]])
def test_apply_rejects_index_outside_dimension(arg):
    m = MultilinearMap(2, 2, COUNTING)
    with pytest.raises(ValueError):
        apply(m, [arg, [(0, 1)]])
    with pytest.raises(ValueError):
        apply(m, [[(1, 1)], arg])


def test_apply_drops_a_sum_that_cancels_to_zero():
    # row 0 gets 2*1*1 from column (0, 1) and -1*2*1 from column (1, 1)
    m = MultilinearMap(2, 2, {(0, 1): {0: 2}, (1, 1): {0: -1, 1: 3}})
    for one in (1, Fraction(1), 1.0):
        args = [[(0, one), (1, 2 * one)], [(1, one)]]
        assert apply(m, args) == [(1, 6)]
    assert dense_apply(m, [[1, 2], [0, 1]]) == [0, 6]


def test_apply_on_dimension_zero():
    for k in (1, 2, 3):
        m = MultilinearMap(k, 0)
        assert apply(m, [[]] * k) == []
    with pytest.raises(ValueError):
        apply(MultilinearMap(1, 0), [[(0, 1)]])


def test_column_order_is_lexicographic():
    # a .mta row lists the columns (j1, j2) as 11, 12, 21, 22
    text = "mta d=2 p=2\nlambda: 1 0\nleaf a: 1 0\nrank 1:\n  0 0\n  0 0\n"
    m = parse_mta(text + "rank 2:\n  1 2 3 4\n  5 6 7 8\n").node_maps[2]
    assert m == MultilinearMap(2, 2, COUNTING)
    assert m.columns[0, 1] == {0: 2, 1: 6}
    assert m.columns[1, 0] == {0: 3, 1: 7}
    e1, e2 = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    assert dense_apply(m, [e1, e2]) == [2, 6]
    assert dense_apply(m, [e2, e1]) == [3, 7]


def rand_map(rng, k, d):
    """Random coefficients, drawn row by row with the columns in order."""
    m = MultilinearMap(k, d)
    for i in range(d):
        for col in itertools.product(range(d), repeat=k):
            if c := Fraction(rng.randint(-4, 4), rng.randint(1, 3)):
                m.columns.setdefault(col, {})[i] = c
    return m


def rand_vec(rng, d):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]


def test_apply_matches_kronecker_oracle():
    rng = random.Random(21)
    for _ in range(60):
        k = rng.randint(1, 3)
        d = rng.randint(1, 3)
        m = rand_map(rng, k, d)
        args = [rand_vec(rng, d) for _ in range(k)]
        assert dense_apply(m, args) == kron_apply(m, args)


def test_sparse_fast_path_matches_dense():
    rng = random.Random(22)
    for _ in range(60):
        k = rng.randint(1, 2)
        d = rng.randint(1, 4)
        m = rand_map(rng, k, d)
        args = []
        for _ in range(k):
            v = [Fraction(0)] * d
            if rng.random() < 0.8:
                v[rng.randrange(d)] = Fraction(rng.randint(1, 5))
            args.append(v)
        assert dense_apply(m, args) == kron_apply(m, args)


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_sparse_apply_matches_kronecker_oracle(scalar):
    rng = random.Random(24)
    for _ in range(80):
        k = rng.randint(1, 3)
        d = rng.randint(1, 4)
        m = rand_map(rng, k, d)
        if scalar is float:
            m = MultilinearMap(k, d, {col: {i: float(c) for i, c in entries.items()}
                                      for col, entries in m.columns.items()}, 0.0)
        args = [[scalar(x) if rng.random() < 0.6 else scalar(0) for x in rand_vec(rng, d)]
                for _ in range(k)]
        got = apply(m, [support(v) for v in args])
        want = kron_apply(m, args)
        assert [i for i, _ in got] == sorted({i for i, _ in got})
        assert all(y != 0 for _, y in got)
        assert dense_apply(m, args) == pytest.approx(want, rel=1e-9, abs=1e-9)
        if scalar is Fraction:
            assert got == support(want)


def test_multilinearity_in_each_slot():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 3)
        d = rng.randint(1, 3)
        m = rand_map(rng, k, d)
        slot = rng.randrange(k)
        args = [rand_vec(rng, d) for _ in range(k)]
        x, xp = rand_vec(rng, d), rand_vec(rng, d)
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        mixed = [alpha * a + beta * b for a, b in zip(x, xp)]
        lhs = dense_apply(m, args[:slot] + [mixed] + args[slot + 1:])
        f_x = dense_apply(m, args[:slot] + [x] + args[slot + 1:])
        f_xp = dense_apply(m, args[:slot] + [xp] + args[slot + 1:])
        rhs = [alpha * a + beta * b for a, b in zip(f_x, f_xp)]
        assert lhs == rhs


def test_colinear_witness_examples():
    assert colinear_witness([2, 4], [1, 2]) == 2
    assert colinear_witness([1, 0], [0, 1]) is None
    assert colinear_witness([0, 0], [0, 0]) == 1
    assert colinear_witness([0, 0], [1, 2]) is None
    assert colinear_witness([1, 2], [0, 0]) is None


def test_colinear_witness_fractions():
    v = [Fraction(1, 3), Fraction(2, 3)]
    w = [Fraction(1, 2), Fraction(1)]
    assert colinear_witness(v, w) == Fraction(2, 3)


def test_colinear_witness_float_tolerance():
    assert colinear_witness([2.0, 4.0 + 1e-13], [1.0, 2.0]) == pytest.approx(2.0)
    assert colinear_witness([2.0, 4.1], [1.0, 2.0]) is None
    # one float vector is enough to compare with the tolerance
    assert colinear_witness([2, 4], [1.0, 2.0 + 1e-13]) == pytest.approx(2.0)


# -- zero-skipping arithmetic against the formulas it replaced -----------------


def dense_colinear_witness(v, w):
    """The reference: colinear_witness's exact branch as it was before it
    skipped zero cells, multiplying alpha into every cell of w."""
    w_zero = all(x == 0 for x in w)
    v_zero = all(x == 0 for x in v)
    if w_zero:
        return 1 if v_zero else None
    if v_zero:
        return None
    pivot = next(j for j, x in enumerate(w) if x != 0)
    alpha = Fraction(v[pivot]) / Fraction(w[pivot])
    if alpha == 0:
        return None
    return alpha if all(v[j] == alpha * w[j] for j in range(len(v))) else None


def apply_from_zero(m, args):
    """The reference: apply as it was before it summed each y[i] from its
    first term, starting from the map's zero scalar instead."""
    out = {}
    for combo in itertools.product(*args):
        col = m.columns.get(tuple([j for j, _ in combo]))
        if col:
            for i, c in col.items():
                for _, x in combo:
                    c = c * x
                out[i] = out.get(i, m.zero_scalar) + c
    return sorted((i, y) for i, y in out.items() if y)


def exact_zero(rng):
    return rng.choice([0, Fraction(0)])


def sparse_exact_vec(rng, d, density=0.2):
    """Mostly zeros, int 0 and Fraction(0) mixed; the rest ints or Fractions."""
    return [rng.choice([rng.randint(-3, 3) or 1, Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))])
            if rng.random() < density else exact_zero(rng) for _ in range(d)]


def test_colinear_witness_skipping_zeros_matches_the_dense_formula():
    rng = random.Random(25)
    outcomes = set()
    for _ in range(3000):
        d = rng.randint(1, 12)
        w = sparse_exact_vec(rng, d)
        shape = rng.random()
        if shape < 0.5:  # a multiple of w, perhaps 0, with zeros of either type
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            v = [alpha * x if x else exact_zero(rng) for x in w]
            if shape < 0.25:  # one cell changed: a zero made non-zero, or the reverse
                j = rng.randrange(d)
                v[j] = exact_zero(rng) if v[j] else Fraction(rng.randint(1, 5), rng.randint(1, 3))
        else:
            v = sparse_exact_vec(rng, d)
        got, want = colinear_witness(v, w), dense_colinear_witness(v, w)
        assert got == want and type(got) is type(want), (v, w)
        outcomes.add(type(want))
    assert outcomes == {type(None), int, Fraction}


def rand_sparse_map(rng, k, d, scalar):
    m = MultilinearMap(k, d, zero_scalar=scalar(0))
    for col in itertools.product(range(d), repeat=k):
        for i in range(d):
            if rng.random() < 0.3:
                m.columns.setdefault(col, {})[i] = scalar(Fraction(rng.randint(-4, 4) or 1,
                                                                   rng.randint(1, 3)))
    return m


def typed(support):
    """A support with each value's type and exact digits, so that 0.5 and
    Fraction(1, 2), or two floats a bit apart, never compare equal."""
    return [(i, type(y), repr(y)) for i, y in support]


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_apply_from_the_first_term_matches_the_sum_from_zero(scalar):
    rng = random.Random(26)
    for _ in range(400):
        k, d = rng.randint(1, 3), rng.randint(1, 4)
        m = rand_sparse_map(rng, k, d, scalar)
        if scalar is Fraction:  # exact arguments mix int and Fraction values
            args = [support(sparse_exact_vec(rng, d, 0.7)) for _ in range(k)]
        else:
            args = [support([rng.uniform(-2, 2) if rng.random() < 0.7 else 0.0
                             for _ in range(d)]) for _ in range(k)]
        assert typed(apply(m, args)) == typed(apply_from_zero(m, args))


def test_apply_from_the_first_term_drops_float_sums_that_cancel_to_signed_zero():
    # with both arguments 1e-200: row 0 sums 2.5e-201 - 2.5e-201 = 0.0; row 1
    # is one product that underflows to -0.0, which the sum from zero made
    # 0.0; row 3 starts from such a product and ends non-zero
    m = MultilinearMap(1, 4, {(0,): {0: 0.25, 1: -1e-200, 2: 1.0, 3: -1e-200},
                              (1,): {0: -0.25, 3: 2.0}}, 0.0)
    args = [[(0, 1e-200), (1, 1e-200)]]
    assert typed(apply(m, args)) == typed(apply_from_zero(m, args))
    assert typed(apply(m, args)) == typed([(2, 1e-200), (3, 2e-200)])


def apply_over_every_product(m, args):
    """The reference: apply before it read one column for one-entry
    arguments, every combination taken through itertools.product."""
    out = {}
    for combo in itertools.product(*args):
        col = m.columns.get(tuple([j for j, _ in combo]))
        if col:
            for i, c in col.items():
                for _, x in combo:  # times(c, x), inlined
                    if x.__class__ is not float and x == 1 and is_unit(x, c):
                        continue
                    c = x if c.__class__ is not float and c == 1 and is_unit(c, x) else c * x
                y = out.get(i)
                out[i] = c if y is None else y + c
    support = [(i, y) for i, y in out.items() if y]
    support.sort()
    return support


def bits(support):
    """A support with each value's type and its float bits or exact value."""
    return [(i, type(y), y.hex() if isinstance(y, float) else y) for i, y in support]


# exact ones of every type, which `apply` does not multiply by where they
# would keep the other factor, among ordinary factors
FACTORS = [1, Fraction(1), 1.0, -1, Fraction(-1), 2, Fraction(3, 7), Fraction(-5, 2),
           0.1, -0.7, 3.0, 1e-200, 1e200]


def test_one_column_apply_keeps_every_product_bit_for_bit():
    rng = random.Random(31)
    single = multi = 0
    for _ in range(4000):
        k, d = rng.randint(0, 3), rng.randint(1, 4)
        m = MultilinearMap(k, d, zero_scalar=rng.choice([Fraction(0), 0.0]))
        for col in itertools.product(range(d), repeat=k):
            if rng.random() < 0.7:  # a co-linear column, or one of two or more rows
                rows = rng.sample(range(d), 1 if rng.random() < 0.5 else rng.randint(1, d))
                m.columns[col] = {i: rng.choice(FACTORS) for i in rows}
        args = []
        for _ in range(k):
            size = 1 if rng.random() < 0.8 else rng.randint(0, d)
            args.append(sorted((j, rng.choice(FACTORS)) for j in rng.sample(range(d), size)))
        if all(len(v) == 1 for v in args):
            single += 1
            col = m.columns.get(tuple(v[0][0] for v in args), {})
            multi += len(col) > 1
        assert bits(apply(m, args)) == bits(apply_over_every_product(m, args)), (m.columns, args)
    assert single > 1000 and multi > 300


@pytest.mark.parametrize("name", ["acrab", "fimacd", "colinearity3", "random"])
def test_automata_weigh_every_tree_as_with_every_product(name, monkeypatch):
    # exact and float automata of grammars, and random CMTAs and PMTAs
    rng = random.Random(32)
    if name == "random":
        alphabet = RankedAlphabet(["a", "b", "c"], 3)
        automata = [lambda: random_cmta(random.Random(7), alphabet, 4),
                    lambda: random_pmta(random.Random(8), alphabet, 3)]
    else:
        alphabet = load_wcfg(FIXTURES / f"{name}.wcfg").alphabet(3)
        automata = [lambda exact=exact: load_wcfg(FIXTURES / f"{name}.wcfg", exact).automaton(3)
                    for exact in (True, False)]
    trees = [random_tree(rng, alphabet, 5) for _ in range(1500)]
    for make in automata:
        got = [bits(a.eval_support(t)) for a in [make()] for t in trees]
        with monkeypatch.context() as patch:
            patch.setattr(mta_module, "apply", apply_over_every_product)
            expected = [bits(a.eval_support(t)) for a in [make()] for t in trees]
        assert got == expected
        assert sum(map(bool, got)) > 100
