"""The learner's observation table: row trees, column contexts, a filled
sub-matrix of the Hankel matrix, and a co-linearly independent basis.

Rows cover T and all one-level extensions of T, and T is kept
subtree-closed.  A counterexample adds one separating column
(`add_counterexample`); the learner adds its subtrees to T too when the
teacher scans.  A consistency check's column, with its innermost level
removed, is a column too; a counterexample's column need not be, and its
siblings need not be in T.  Rows and their classes are keyed by the row
tree's text.  A row's class is a support, as `MTA.eval_support` walks it:
[] for a zero row, [(i, a)] for a times basis row i, None for a row
independent of the basis.
The cell of row t and column c is one structured membership query for
c∘t, put to the oracle as the pair (t, c), so the oracle may answer it
from its parts without building c∘t.  The answers are memoized by the text
of c∘t, `c.prefix + t.text + c.suffix`, so repeated cells cost one query.
Row classes survive a new column whose cell agrees with them (a row
independent of the basis on some columns stays independent on more).
The classes of a completed table weigh a tree as the automaton extracted
from it would (`hypothesis_value`), so the learner need not extract one to
test a counterexample.
"""
from __future__ import annotations

import bisect
from fractions import Fraction

from .mta import EvaluationError
from .multilinear import colinear_witness, dot
from .scalars import is_exact, scalar_eq, scalar_is_zero, times, vector_is_zero
from .trees import (Context, HOLE, IDENTITY_CONTEXT, Leaf, Node, RankedAlphabet,
                    SkeletalTree, canonical_key, compose_contexts, sigma_contexts,
                    subtrees, tuples_holding, unknown_subtrees)


class CapExceeded(RuntimeError):
    """The learning budget ran out; the target may have unbounded rank."""


class TableError(RuntimeError):
    pass


class Budget:
    """Counts rank/column/equivalence progress against a hard cap."""

    def __init__(self, cap: int | None):
        self.cap = cap
        self.used = 0

    def charge(self, what: str = "step"):
        self.used += 1
        if self.cap is not None and self.used > self.cap:
            raise CapExceeded(
                f"iteration cap {self.cap} exceeded at {what}; "
                "target may not have finite co-linear rank")


class ObservationTable:
    def __init__(self, alphabet: RankedAlphabet, oracle, budget: Budget | None = None):
        self.alphabet = alphabet
        self.oracle = oracle
        self.budget = budget or Budget(None)
        self.trees: list[SkeletalTree] = []       # T, canonical order
        self.columns: list[Context] = [IDENTITY_CONTEXT]
        self.basis: list[SkeletalTree] = []       # B, insertion order
        self.rows: dict[str, list] = {}  # T and all one-level extensions, by text
        self._tree_set: set[SkeletalTree] = set()
        self._smq_cache: dict[str, object] = {}  # by text: holds no composed tree
        self._completed = False
        self._classes: dict[str, list] = {}  # zero or basis supports, by text
        self._basis_by_mask: dict[tuple, list[int]] = {}
        self._order: list[SkeletalTree] = []  # the rows' trees, canonical order
        # the one-level contexts over T, canonical order
        self._one_level: list[Context] = sigma_contexts((), alphabet)
        for tok in alphabet.leaf_symbols:
            self._fill_row(Leaf(tok))

    # -- filling -----------------------------------------------------------

    @property
    def smq_count(self) -> int:
        return len(self._smq_cache)

    def _cell(self, tree: SkeletalTree, ctx: Context):
        """The weight of ctx∘tree: one SMQ, memoized by the composed text."""
        key = ctx.prefix + tree.text + ctx.suffix
        value = self._smq_cache.get(key)
        if value is None:
            value = self._smq_cache[key] = self.oracle.smq(tree, ctx)
        return value

    def _fill_row(self, tree: SkeletalTree):
        row = self.rows.get(tree.text)
        if row is None:
            row = self.rows[tree.text] = []
            bisect.insort(self._order, tree, key=canonical_key)
        row.extend([self._cell(tree, ctx) for ctx in self.columns[len(row):]])

    def _add_tree(self, tree: SkeletalTree):
        """Add one tree to T (children must already be in T).  Each tuple
        over T that holds it (`tuples_holding`) is a new one-level extension
        row and, if shorter than the rank, a new one-level context with the
        hole at each slot."""
        if tree in self._tree_set:
            return
        old = self.trees[:]
        self._tree_set.add(tree)
        bisect.insort(self.trees, tree, key=canonical_key)
        self._completed = False
        rank = self.alphabet.max_rank
        for combo in tuples_holding(tree, old, rank):
            self._fill_row(Node(combo))
            if len(combo) < rank:
                for i in range(len(combo) + 1):
                    ctx = Context(Node(combo[:i] + (HOLE,) + combo[i:]))
                    bisect.insort(self._one_level, ctx, key=canonical_key)
        self._fill_row(tree)

    def add_subtree_closed(self, tree: SkeletalTree):
        for sub in subtrees(tree):
            self._add_tree(sub)

    def _add_column(self, ctx: Context):
        """Fill the new column and keep the classes its cells confirm.  A row
        independent of B on the old columns stays so on all (the paper's
        restriction lemma), so one cell decides: a zero class stays if it is
        zero, an exact class (i, a) if it is a times basis row i's.  Other
        classes, float ones too, are dropped for `classify` to recompute."""
        if ctx in self.columns:
            raise TableError(f"context already present: {ctx.text}")
        self.columns.append(ctx)
        self.budget.charge("column addition")
        self._completed = False
        rows = self.rows
        for tree in self._order:
            rows[tree.text].append(self._cell(tree, ctx))
        for text, cls in list(self._classes.items()):
            new = rows[text][-1]
            if not cls:
                keep = scalar_is_zero(new)
            else:
                (i, a), = cls
                base = rows[self.basis[i].text][-1]
                keep = (type(a) is Fraction and is_exact(new) and is_exact(base)
                        and (new == a * base if base else new == 0))
            if not keep:
                del self._classes[text]
        self._basis_by_mask.clear()
        for i in range(len(self.basis)):
            self._index_basis(i)

    # -- classification ----------------------------------------------------

    def classify(self, text: str) -> list | None:
        """The class of the row whose tree has text `text`: [] if zero,
        [(i, a)] for the unique basis index and coefficient, None if
        independent.  A zero or basis class is the table's own list: do not
        change it.

        Zero and basis classes are kept: a new basis row (independent of the
        others) takes no row from a class, and `_add_column` drops only the
        classes its new cell breaks.  Independence is rechecked every call.
        """
        cls = self._classes.get(text)
        if cls is None:
            cls = self._classify_fresh(text)
            if cls is not None:
                self._classes[text] = cls
        return cls

    def basis_class(self, col) -> list | None:
        """The class of the row over basis trees (j1 .. jk), found by its text."""
        return self.classify("(" + " ".join([self.basis[j].text for j in col]) + ")")

    def _classify_fresh(self, text: str) -> list | None:
        row = self.rows[text]
        if vector_is_zero(row):
            return []
        if all(map(is_exact, row)):
            # co-linear exact rows share the non-zero support pattern
            candidates = self._basis_by_mask.get(tuple(x != 0 for x in row), ())
        else:
            candidates = range(len(self.basis))
        matches = []
        for i in candidates:
            alpha = colinear_witness(row, self.rows[self.basis[i].text])
            if alpha is not None:
                matches.append((i, alpha))
        if not matches:
            return None
        if len(matches) > 1:
            raise TableError(f"row {text} is co-linear to several basis rows; "
                             "basis rows must be pairwise co-linearly independent")
        return matches

    def _index_basis(self, i: int):
        mask = tuple(x != 0 for x in self.rows[self.basis[i].text])
        self._basis_by_mask.setdefault(mask, []).append(i)

    # -- the table procedures ----------------------------------------------

    def close(self):
        """Move co-linearly independent one-level rows into T and B until none
        remain; each pass adds exactly one basis row."""
        classes = self._classes
        while True:
            candidate = next((t for t in self._order if t.text not in classes
                              and self.classify(t.text) is None), None)
            if candidate is None:
                return
            self.budget.charge("basis addition")
            self.basis.append(candidate)
            self._index_basis(len(self.basis) - 1)
            self._add_tree(candidate)

    def check_zero_consistency(self) -> Context | None:
        """A zero row must stay zero under every one-level context; on
        violation return the separating composed context."""
        for t in self.trees:
            if self.classify(t.text) != []:
                continue
            for ctx in self._one_level:
                for ci, value in enumerate(self.rows[ctx.prefix + t.text + ctx.suffix]):
                    if not scalar_is_zero(value):
                        return compose_contexts(self.columns[ci], ctx)
        return None

    def check_colinear_consistency(self) -> Context | None:
        """A row co-linear to basis row b with coefficient a must stay so
        under every one-level context; on violation return the separating
        context.  Co-linearity is transitive, so checking each member of a
        class against its basis tree covers every pair.

        Basis rows are non-zero and pairwise independent, so for exact rows
        row(c∘t) == a·row(c∘b) holds exactly when both rows are zero, or both
        are co-linear to one basis row with coeff(c∘t) == a·coeff(c∘b).  The
        closed table has classified both, so that comparison settles a pair;
        the column loop runs only on a disagreement, to find the separating
        column, or on float rows, whose tolerance it alone applies."""
        groups: dict[int, list] = {}
        for t in self.trees:
            for i, alpha in self.classify(t.text) or ():  # a basis class only
                if t != self.basis[i]:
                    groups.setdefault(i, []).append((t, alpha))
        for i in sorted(groups):
            b = self.basis[i].text
            for t, alpha in groups[i]:
                for ctx in self._one_level:
                    ct = ctx.prefix + t.text + ctx.suffix  # the rows of c∘t, c∘b
                    cb = ctx.prefix + b + ctx.suffix
                    if self._colinear_by_class(ct, cb, alpha):
                        continue
                    row, basis_row = self.rows[ct], self.rows[cb]
                    for ci, value in enumerate(row):
                        if not scalar_eq(value, alpha * basis_row[ci]):
                            return compose_contexts(self.columns[ci], ctx)
        return None

    def _colinear_by_class(self, ct: str, cb: str, alpha) -> bool:
        """row(ct) == alpha·row(cb), rows named by text, shown from the
        classifications alone; False when they disagree or do not settle it
        (float rows)."""
        c1, c2 = self.classify(ct), self.classify(cb)
        if c1 == [] == c2:
            # zero rows of exact zeros, whatever their type, match exactly
            return not any(self.rows[ct]) and not any(self.rows[cb])
        if not (c1 and c2):
            return False
        (i1, a1), = c1
        (i2, a2), = c2
        return (i1 == i2 and type(alpha) is type(a1) is type(a2) is Fraction
                and a1 == alpha * a2)

    def complete(self, new_trees=()):
        """Add the given trees (subtree-closed) and alternate closing with the
        two consistency checks until both hold."""
        for t in new_trees:
            self.add_subtree_closed(t)
        while True:
            self.close()
            violation = self.check_zero_consistency()
            if violation is not None:
                self._add_column(violation)
                continue
            violation = self.check_colinear_consistency()
            if violation is not None:
                self._add_column(violation)
                continue
            break
        self._completed = True

    def separating_context(self, tree: SkeletalTree) -> Context:
        """The one column a counterexample calls for, by Rivest & Schapire's
        analysis (Inf. Comput. 1993) lifted to trees (Marušić & Worrell,
        JMLR 2015), on a completed table.

        Go through tree in post-order and replace each subtree s, whose
        children are by then basis trees (so s is a row), with its class's
        basis tree b, scaled by the class coefficient a.  The scaled values
        run from f(tree) to the extracted hypothesis's value, and a zero
        class ends them at 0.  Where those two differ, some step has
        f(c∘s) != a·f(c∘b), or f(c∘s) != 0 for a zero class, with c the rest
        of the tree at that step; the first such c is returned.  Made a
        column, it leaves s independent of the basis.  Every cell goes
        through the memo.  When no step is found, or only one at a column
        the table has, the hypothesis already weighs tree as the table does:
        TableError."""
        if not self._completed:
            raise TableError("table must be closed and consistent before a counterexample walk")
        frames = []  # per node above s: [its children as replaced so far, s's index]
        s, fresh = tree, True  # fresh: s's children are still tree's own
        while True:
            if fresh and isinstance(s, Node):
                frames.append([list(s.children), 0])
                s = s.children[0]
                continue
            root = HOLE  # s's children are basis trees, so s is a row
            for kids, i in reversed(frames):
                root = Node(kids[:i] + [root] + kids[i + 1:])
            ctx = Context(root)
            cls = self.classify(s.text)
            b = self.basis[cls[0][0]] if cls else None
            value = self._cell(s, ctx)
            scaled = 0 if b is None else cls[0][1] * self._cell(b, ctx)
            if not scalar_eq(value, scaled):
                if ctx not in self.columns:
                    return ctx
                break
            if b is None or not frames:
                break
            kids, i = frames[-1]
            kids[i] = b
            if i + 1 < len(kids):
                frames[-1][1] = i + 1
                s, fresh = kids[i + 1], True
            else:
                frames.pop()
                s, fresh = Node(kids), False
        raise TableError(f"counterexample {tree.text} calls for no new column: "
                         "the hypothesis already weighs it as the table does")

    def hypothesis_value(self, tree: SkeletalTree):
        """`extract_cmta(self).eval(tree)`, read off the classes without
        building the automaton.

        Each subtree maps to its support, walked as `MTA.eval_support` walks
        it, with its EvaluationErrors: a leaf to its class, which is a
        support; a node whose children map to basis trees b1..bk to the
        class of the row (b1 .. bk) (`basis_class`), its coefficient times
        the children's, left to right, as `apply` multiplies; a zero child
        or class to [].  The value is the identity cell of the root's basis
        tree times its coefficient, as `MTA.eval` adds it up."""
        if not self._completed:
            raise TableError("table must be closed and consistent before it weighs a tree")
        memo: dict[str, list] = {}
        for s in unknown_subtrees(tree, memo):
            if s.text in memo:
                continue
            if isinstance(s, Leaf):
                if s.token not in self.alphabet:
                    raise EvaluationError(f"unknown leaf token {s.token!r}")
                support = memo[s.text] = self.classify(s.text)
                continue
            args = [memo[c.text] for c in s.children]
            k = len(args)
            if k > self.alphabet.max_rank:
                raise EvaluationError(f"rank {k} exceeds max rank {self.alphabet.max_rank}")
            support = memo[s.text] = []
            if all(args):
                cls = self.basis_class([v[0][0] for v in args])
                if cls:
                    (i, c), = cls
                    for v in args:
                        c = times(c, v[0][1])
                    if c:
                        support.append((i, c))
        if not self.basis:
            return Fraction(0)
        return dot([self.rows[b.text][0] for b in self.basis], support)

    def add_counterexample(self, tree: SkeletalTree):
        """Add the counterexample's separating column and complete the table."""
        self._add_column(self.separating_context(tree))
        self.complete()

    @property
    def is_completed(self) -> bool:
        return self._completed

    # -- helpers -----------------------------------------------------------

    def dump_tsv(self) -> str:
        """Debug dump: rows x columns with serialized titles."""
        lines = ["\t" + "\t".join(c.text for c in self.columns)]
        for tree in self._order:
            row = self.rows[tree.text]
            mark = "*" if tree in self.basis else ("T" if tree in self._tree_set else "")
            lines.append(tree.text + mark + "\t"
                         + "\t".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
