"""Exact equivalence of two multiplicity tree automata.

Each tree t stands for its joint vector, a's vector of t followed by b's.
A breadth-first search grows a basis of these vectors over exact scalars,
after Seidl, *Deciding equivalence of finite tree automata* (SIAM J.
Comput. 1990), and Kiefer, Marusic & Worrell, *Minimisation of
multiplicity tree automata* (FoSSaCS 2015).  The node maps act
multilinearly on joint vectors, so the vector of every tree lies in the
span of the basis trees' vectors and of the nodes built over them; and
a - b is a linear function of the joint vector, so two automata that
agree on the basis trees agree on every tree.
"""
from __future__ import annotations

from fractions import Fraction

from .mta import MTA
from .trees import Leaf, Node, SkeletalTree, tuples_holding


def difference_witness(a: MTA, b: MTA) -> SkeletalTree | None:
    """The first tree, breadth first, on which a.eval and b.eval differ, or
    None when they agree on every tree.

    Both automata must be exact and over the same alphabet.  The search
    starts from the leaves; for each tree whose joint vector is independent
    of the earlier ones, it tries every node over the basis trees that holds
    that tree, up to the alphabet's max rank.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("automata are over different alphabets")
    offset, full = a.dim, a.dim + b.dim
    rows: dict[int, dict] = {}  # basis rows in echelon form, by leading index

    def independent(t) -> bool:
        """Reduce t's joint vector by the basis; keep it as a row if it is
        not in the basis's span."""
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

    basis = []  # the trees with an independent joint vector, in order found
    trees = iter([Leaf(tok) for tok in a.alphabet.leaf_symbols])
    done = 0  # basis[:done] have been combined with each other
    while True:
        for t in trees:
            if a.eval(t) != b.eval(t):
                return t
            if independent(t):
                basis.append(t)
                if len(rows) == full:  # the basis spans every joint vector
                    return None
        if done == len(basis):
            return None
        # each node holding basis[done] and older basis trees only
        trees = (Node(combo) for combo in
                 tuples_holding(basis[done], basis[:done], a.alphabet.max_rank))
        done += 1
