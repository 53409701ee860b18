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
from .multilinear import apply, dot
from .trees import Leaf, Node, SkeletalTree, tuples_holding


def difference_witness(a: MTA, b: MTA) -> SkeletalTree | None:
    """The first tree, breadth first, on which a.eval and b.eval differ, or
    None when they agree on every tree.

    Both automata must be exact and over the same alphabet, else
    ValueError.  The search starts from the leaves; for each tree whose
    joint vector is independent of the earlier ones, it tries every node
    over the basis trees that holds that tree, up to the alphabet's max
    rank.  A node is weighed from its children's supports and built only
    when its vector is independent: a dependent vector's a - b is a
    combination of the basis trees' differences, each 0, so it is never
    the witness.  Neither automaton's memo learns the nodes tried.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("automata are over different alphabets")
    if not (a.is_exact() and b.is_exact()):
        raise ValueError("automata must be exact")
    offset, full = a.dim, a.dim + b.dim
    rows: dict[int, list] = {}  # by leading index: the row's other entries, its lead 1 implicit

    def independent(va, vb) -> bool:
        """Reduce the joint vector by the basis; keep it as a row if it is
        not in the basis's span."""
        v = dict(va)
        v.update([(offset + i, x) for i, x in vb])
        while v:
            lead = min(v)
            c = v.pop(lead)
            row = rows.get(lead)
            if row is None:
                c = Fraction(c)
                rows[lead] = [(i, x / c) for i, x in v.items()]
                return True
            for i, x in row:
                y = v.get(i, 0) - c * x
                if y:
                    v[i] = y
                else:
                    del v[i]
        return False

    basis = []  # (tree, a's support, b's support) of each independent tree, in order found

    def leaves():
        for tok in a.alphabet.leaf_symbols:
            t = Leaf(tok)
            va, vb = a.eval_support(t), b.eval_support(t)
            if independent(va, vb):
                yield t, va, vb

    def nodes(new):
        """The independent nodes over basis[new] and older basis trees only
        that hold basis[new], each with its supports; a zero child makes a
        node zero, as in eval_support."""
        for combo in tuples_holding(new, list(range(new)), a.alphabet.max_rank):
            k = len(combo)
            args = [basis[i][1] for i in combo]
            va = apply(a.node_maps[k], args) if all(args) else []
            args = [basis[i][2] for i in combo]
            vb = apply(b.node_maps[k], args) if all(args) else []
            if independent(va, vb):
                yield Node([basis[i][0] for i in combo]), va, vb

    found = leaves()
    done = 0  # basis[:done] have been combined with each other
    while True:
        for t, va, vb in found:
            if dot(a.output, va) != dot(b.output, vb):
                return t
            basis.append((t, va, vb))
            if len(rows) == full:  # the basis spans every joint vector
                return None
        if done == len(basis):
            return None
        found = nodes(done)
        done += 1
