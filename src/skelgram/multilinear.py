"""Sparse multilinear maps V^k -> V stored column by column.

A column is a 0-based child-index tuple (j1..jk); it maps to its non-zero
rows {i: c^i_{j1..jk}}.  A co-linear map is one whose columns each hold at
most one entry.  Sums, here and in `dot`, start from their first term, so
each coordinate keeps its products' scalar type, and a factor that is an
exact one is not multiplied where the product would keep the other factor's
value and type (`scalars.is_unit`): grammar automata hold a Fraction(1) in
their output vector, in each embedded-terminal flag and in every rule of
weight 1.  Values, types and float bits are those of every factor
multiplied and every sum started from int 0, but for the sign of a float
zero sum, which callers drop or read as +0.0.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import is_unit


class MultilinearMap:
    """A k-linear map on d-vectors; k=0 degenerates to a constant d-vector."""

    __slots__ = ("arity", "dim", "columns", "zero_scalar")

    def __init__(self, arity: int, dim: int, columns=None, zero_scalar=Fraction(0)):
        """columns: {(j1..jk): {i: non-zero coefficient}}; empty by default."""
        if arity < 0 or dim < 0:
            raise ValueError("arity and dim must be non-negative")
        self.arity = arity
        self.dim = dim
        self.columns: dict[tuple, dict] = {} if columns is None else columns
        self.zero_scalar = zero_scalar

    def __eq__(self, other):
        return (isinstance(other, MultilinearMap) and self.arity == other.arity
                and self.dim == other.dim and self.columns == other.columns)


def apply(m: MultilinearMap, args) -> list:
    """Evaluate the map: y[i] = sum over (j1..jk) of c^i_{j1..jk} * prod args[u][ju].

    Each argument, and the result, is a support: the vector's non-zero
    entries as (index, value) pairs in ascending index order.  Only columns
    in the product of the arguments' supports are visited; each product is
    taken left to right from the coefficient, each y[i] is summed in column
    order from its first term, and entries that cancel to zero are dropped.
    """
    if len(args) != m.arity:
        raise ValueError(f"expected {m.arity} arguments, got {len(args)}")
    single = True
    for v in args:
        if v and (v[0][0] < 0 or v[-1][0] >= m.dim):
            raise ValueError(f"argument index outside 0..{m.dim - 1}")
        if len(v) != 1:
            single = False
    if single:  # one entry per argument: one column, one product per row
        support = []
        for i, c in m.columns.get(tuple([v[0][0] for v in args]), {}).items():
            for (_, x), in args:  # times(c, x), inlined
                if x.__class__ is not float and x == 1 and is_unit(x, c):
                    continue
                c = x if c.__class__ is not float and c == 1 and is_unit(c, x) else c * x
            if c:
                support.append((i, c))
        return sorted(support) if len(support) > 1 else support
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
    return sorted([(i, y) for i, y in out.items() if y])


def dot(lam, support):
    """Sum of lam[i] * x over a support's (i, x) where lam[i] is non-zero,
    from the first such term, exact ones not multiplied (`times`).  A float
    sum that cancels is +0.0, as a sum from int 0 made it; an exact one that
    cancels, or a sum of no terms, is int 0."""
    acc = None
    for i, x in support:
        w = lam[i]
        if w:  # times(w, x), inlined
            if x.__class__ is not float and x == 1 and is_unit(x, w):
                term = w
            else:
                term = x if w.__class__ is not float and w == 1 and is_unit(w, x) else w * x
            acc = term if acc is None else acc + term
    if acc:
        return acc
    return 0.0 if acc.__class__ is float else 0


def colinear_witness(v, w):
    """Return alpha != 0 with v = alpha*w, or None, for vectors of exact
    scalars.

    Two all-zero vectors are co-linear with the canonical witness alpha = 1.
    The comparison is exact, multiplying only where w is non-zero: where it
    is zero, v must be too.
    """
    if len(v) != len(w):
        raise ValueError("dimension mismatch")
    pivot = next((j for j, x in enumerate(w) if x), None)
    if pivot is None:
        return None if any(v) else 1
    if not v[pivot]:
        return None
    alpha = Fraction(v[pivot]) / Fraction(w[pivot])
    for x, y in zip(v, w):
        if (x != alpha * y) if y else x:
            return None
    return alpha
