"""Build a co-linear automaton from a closed, consistent observation table.

Dimension = basis size.  The output vector reads the basis rows at the
identity column; each leaf and each basis-tuple column gets the class of
its observed row, a support of at most one (basis index, coefficient), so
every column carries at most one non-zero entry.

The automaton maps every basis tree to its unit vector and agrees with
every row at the identity column.  It need not agree with every other
cell: a counterexample's column is not closed under removing its
innermost level, and its siblings need not be in T, so no consistency
check covers it.  Only the equivalence query certifies the automaton.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .multilinear import MultilinearMap
from .mta import MTA
from .scalars import is_exact
from .table import ObservationTable, TableError


def extract_cmta(table: ObservationTable) -> MTA:
    if not table.is_completed:
        raise TableError("table must be closed and consistent before extraction")
    d = len(table.basis)
    exact = all(is_exact(x) for b in table.basis for x in table.rows[b.text])
    zero = Fraction(0) if exact else 0.0

    def entry(cls, row) -> dict:
        """{basis index: coefficient} of a row's class; {} for a zero row.
        row names it: a leaf token or a tuple of basis indices."""
        if cls is None:
            raise TableError(f"closed table has an independent row: {row}")
        return dict(cls)

    leaf_maps = {}
    for tok in table.alphabet.leaf_symbols:
        found = entry(table.classify(tok), tok)
        leaf_maps[tok] = [found.get(i, zero) for i in range(d)]

    node_maps = {}
    for k in range(1, table.alphabet.max_rank + 1):
        m = node_maps[k] = MultilinearMap(k, d, zero_scalar=zero)
        for col in itertools.product(range(d), repeat=k):
            if found := entry(table.basis_class(col), col):
                m.columns[col] = found

    output = [table.rows[b.text][0] for b in table.basis]  # column 0 is the identity context
    return MTA(table.alphabet, d, leaf_maps, node_maps, output)

