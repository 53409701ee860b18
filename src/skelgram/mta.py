"""Multiplicity tree automata over skeletal alphabets.

An automaton of dimension d assigns every leaf token a d-vector, every rank
k an arity-k multilinear map, and carries an output vector; a tree evaluates
bottom-up to a d-vector and the automaton value is the dot product with the
output vector.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .multilinear import MultilinearMap, apply, dot
from .scalars import (TooLargeToWrite, format_scalar, is_exact, is_nonnegative, parse_scalar,
                      times)
from .trees import Context, Leaf, Node, RankedAlphabet, SkeletalTree, compose, unknown_subtrees


class EvaluationError(ValueError):
    """Tree uses a token or rank the automaton does not define."""


# format_mta writes d**(k+1) coefficients for each rank k, zeros included;
# 10**7 of them take a few seconds and tens of MB of text
MAX_DENSE_COEFFICIENTS = 10 ** 7


class MTA:
    """dim-d automaton: per-token leaf vectors, per-rank node maps, output vector.

    Subtree vectors are memoized sparsely, as supports, for the automaton's
    lifetime, so its maps must not change once it has evaluated a tree.
    The memo is keyed by a tree's text, whose str hash is cached, so a
    lookup calls no Python-level __hash__ or __eq__.  Pulled-back output
    vectors are memoized the same way, by context text, and whether the
    coefficients are exact on the first evaluation in a context; each
    rank's columns are indexed by hole slot on its first pullback.
    """

    __slots__ = ("alphabet", "dim", "leaf_maps", "node_maps", "output", "_memo",
                 "_pullbacks", "_holes", "_exact")

    def __init__(self, alphabet: RankedAlphabet, dim: int, leaf_maps, node_maps, output):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        leaf_maps = {tok: list(v) for tok, v in leaf_maps.items()}
        for tok in alphabet.leaf_symbols:
            if tok not in leaf_maps:
                raise ValueError(f"missing leaf vector for {tok!r}")
            if len(leaf_maps[tok]) != dim:
                raise ValueError(f"leaf vector for {tok!r} has wrong length")
        node_maps = dict(node_maps)
        for k in range(1, alphabet.max_rank + 1):
            m = node_maps.get(k)
            if m is None:
                node_maps[k] = MultilinearMap(k, dim)
            elif m.arity != k or m.dim != dim:
                raise ValueError(f"rank-{k} map has wrong shape")
        output = list(output)
        if len(output) != dim:
            raise ValueError("output vector has wrong length")
        self.alphabet = alphabet
        self.dim = dim
        self.leaf_maps = leaf_maps
        self.node_maps = node_maps
        self.output = output
        self._memo: dict[str, list] = {}
        self._pullbacks: dict[str, list] = {}
        self._holes: dict[int, list] = {}  # rank -> _hole_columns of its map
        self._exact = None  # is_exact(), read by eval(t, c) on first use

    @classmethod
    def zero(cls, alphabet: RankedAlphabet) -> "MTA":
        """The dimension-0 automaton mapping every tree to 0."""
        return cls(alphabet, 0, {tok: [] for tok in alphabet.leaf_symbols}, {}, [])

    def eval_support(self, t: SkeletalTree) -> list:
        """Bottom-up vector of t as its support, the non-zero entries as
        (index, value) pairs in ascending index order.  The subtrees not yet
        memoized are weighed in `unknown_subtrees` order, so a tree with
        several faults raises its rightmost, children before their parent; a
        root whose children are memoized is weighed with no walk.  The list
        is the memo's own: do not change it."""
        memo = self._memo
        support = memo.get(t.text)
        if support is not None:
            return support
        todo = [t]
        if t.__class__ is Node:
            for c in t.children:
                if c.text not in memo:
                    todo = unknown_subtrees(t, memo)
                    break
        for s in todo:
            if s.text in memo:  # a repeated subtree, weighed at its first occurrence
                continue
            if s.__class__ is Leaf:
                if (vec := self.leaf_maps.get(s.token)) is None:
                    raise EvaluationError(f"unknown leaf token {s.token!r}")
                support = memo[s.text] = [(j, x) for j, x in enumerate(vec) if x]
                continue
            args = [memo[c.text] for c in s.children]
            k = len(args)
            if k > self.alphabet.max_rank:
                raise EvaluationError(f"rank {k} exceeds max rank {self.alphabet.max_rank}")
            # a zero child makes every product, so the node, zero
            support = memo[s.text] = apply(self.node_maps[k], args) if all(args) else []
        return support

    def pullback(self, c: Context) -> list:
        """λ_c, the output vector pulled back through context c, dense like
        `output`: c∘t's value is its dot product with t's vector (Bailly,
        Habrard & Denis, ALT 2010).  One walk down c's spine, the siblings'
        vectors fixed.  At each level, each combination of the siblings'
        support entries selects, through `_hole_columns`, the columns
        whose other coordinates it fixes; each adds λ · column times the
        siblings' values to λ'_j at its hole coordinate j.  A λ'_j that
        no column reaches, or that cancels, is int 0.  EvaluationError as
        eval_support's."""
        lam = self._pullbacks.get(c.text)
        if lam is None:
            lam = self.output
            for left, right in c.levels:
                k, h = len(left) + 1 + len(right), len(left)
                if k > self.alphabet.max_rank:
                    raise EvaluationError(f"rank {k} exceeds max rank {self.alphabet.max_rank}")
                holes = self._holes.get(k)
                if holes is None:
                    holes = self._holes[k] = _hole_columns(self.node_maps[k])
                columns = holes[h]
                sides = [self.eval_support(s) for s in left + right]
                new = [0] * self.dim
                for combo in itertools.product(*sides):
                    for j, entries in columns.get(tuple([i for i, _ in combo]), ()):
                        y = dot(lam, entries)
                        if y:
                            for _, x in combo:
                                y = times(y, x)
                            new[j] += y
                lam = [y or 0 for y in new]
            self._pullbacks[c.text] = lam
        return lam

    def eval_vector(self, t: SkeletalTree) -> list:
        """Dense bottom-up vector of t: a leaf's own vector, or its support
        with the node map's zero scalar in the gaps."""
        support = self.eval_support(t)
        if isinstance(t, Leaf):
            return list(self.leaf_maps[t.token])
        vec = [self.node_maps[len(t.children)].zero_scalar] * self.dim
        for i, x in support:
            vec[i] = x
        return vec

    def eval(self, t: SkeletalTree, c: Context | None = None):
        """Automaton value of t, or with a context c of c∘t: t's vector
        dotted with the output vector, or for an exact automaton with c's
        pullback, so that no c∘t is built.  The dot product starts at its
        first term and does not multiply by an exact one (`dot`): a grammar
        automaton's output is a Fraction(1) at the start symbol, so its value
        is the start coordinate itself.  A float automaton, or a cell whose
        parts fail to evaluate, weighs c∘t itself, so float sums add in one
        order and errors are the composed tree's.  An exact zero is 0,
        Fraction(0) at dimension 0; a float zero is +0.0."""
        if c is None or not c.levels:
            lam, support = self.output, self.eval_support(t)
        else:
            if self._exact is None:
                self._exact = self.is_exact()
            if not self._exact:
                return self.eval(compose(c, t))
            try:
                lam, support = self.pullback(c), self.eval_support(t)
            except EvaluationError:
                return self.eval(compose(c, t))
        return dot(lam, support) if self.dim else Fraction(0)

    def _coefficients(self):
        """Every stored coefficient: output, leaf vectors, map entries."""
        yield from self.output
        for vec in self.leaf_maps.values():
            yield from vec
        for m in self.node_maps.values():
            for col in m.columns.values():
                yield from col.values()

    def is_positive(self) -> bool:
        """True iff every stored coefficient (maps and output) is >= 0."""
        return all(map(is_nonnegative, self._coefficients()))

    def is_exact(self) -> bool:
        """True iff every stored coefficient (maps and output) is exact."""
        return all(map(is_exact, self._coefficients()))

    def is_colinear_mta(self) -> bool:
        """True iff every transition-matrix column has at most one non-zero
        entry; leaf vectors count as single columns."""
        return (all(sum(1 for x in vec if x != 0) <= 1 for vec in self.leaf_maps.values())
                and all(len(col) <= 1 for m in self.node_maps.values()
                        for col in m.columns.values()))


def _hole_columns(m: MultilinearMap) -> list:
    """For each hole slot h of m, its non-empty columns by their other
    coordinates: {col[:h] + col[h+1:]: [(col[h], col's (i, c) entries)]},
    in column order."""
    holes = [{} for _ in range(m.arity)]
    for col, entries in m.columns.items():
        if entries:
            items = list(entries.items())
            for h, by_rest in enumerate(holes):
                by_rest.setdefault(col[:h] + col[h + 1:], []).append((col[h], items))
    return holes


def format_mta(a: MTA) -> str:
    """Text form: header, output vector, leaf vectors, then each rank-k map
    as d rows of d^k coefficients, columns (j1..jk) in lexicographic order
    with jk varying fastest and the map's zero scalar in the gaps.  Raises
    TooLargeToWrite, before writing anything, when those maps hold more than
    MAX_DENSE_COEFFICIENTS coefficients."""
    count = sum(a.dim ** (k + 1) for k in range(1, a.alphabet.max_rank + 1))
    if count > MAX_DENSE_COEFFICIENTS:
        raise TooLargeToWrite(
            f"the automaton's .mta form would hold {count} coefficients "
            f"(d={a.dim}, p={a.alphabet.max_rank}), more than {MAX_DENSE_COEFFICIENTS}")
    lines = [f"mta d={a.dim} p={a.alphabet.max_rank}"]
    lines.append("lambda: " + " ".join(format_scalar(x) for x in a.output))
    for tok in a.alphabet.leaf_symbols:
        lines.append(f"leaf {tok}: " + " ".join(format_scalar(x) for x in a.leaf_maps[tok]))
    for k in range(1, a.alphabet.max_rank + 1):
        lines.append(f"rank {k}:")
        m = a.node_maps[k]
        cols = [m.columns.get(col, {}) for col in itertools.product(range(a.dim), repeat=k)]
        for i in range(a.dim):
            lines.append("  " + " ".join(format_scalar(col.get(i, m.zero_scalar))
                                         for col in cols))
    return "\n".join(lines) + "\n"


def parse_mta(text: str, exact: bool = True) -> MTA:
    """Parse the format produced by format_mta; zeros are Fraction(0) when
    exact, else 0.0."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    kind, _, rest = (lines or [""])[0].partition(" ")
    header = dict(part.split("=") for part in rest.split()) if kind == "mta" else {}
    if not header.keys() >= {"d", "p"}:
        raise ValueError("missing 'mta d=<d> p=<p>' header")
    dim, p = int(header["d"]), int(header["p"])

    output = None
    leaf_maps = {}
    rank_rows: dict[int, list] = {}
    current_rank = None
    for ln in lines[1:]:
        if ln.startswith("lambda:"):
            output = [parse_scalar(s, exact) for s in ln.split(":", 1)[1].split()]
            current_rank = None
        elif ln.startswith("leaf "):
            head, _, rest = ln.partition(":")
            tok = head[len("leaf "):].strip()
            if not tok:
                raise ValueError(f"line {ln!r} names no leaf token")
            leaf_maps[tok] = [parse_scalar(s, exact) for s in rest.split()]
            current_rank = None
        elif ln.startswith("rank "):
            current_rank = int(ln.split()[1].rstrip(":"))
            rank_rows[current_rank] = []
        elif current_rank is not None:
            rank_rows[current_rank].append([parse_scalar(s, exact) for s in ln.split()])
        else:
            raise ValueError(f"unexpected line in automaton file: {ln!r}")
    if output is None:
        raise ValueError("missing lambda line")
    if not leaf_maps:
        raise ValueError("automaton defines no leaf symbols")
    alphabet = RankedAlphabet(tuple(leaf_maps), max_rank=p)
    node_maps = {}
    for k in range(1, p + 1):
        rows = rank_rows.get(k, [])
        if dim and len(rows) != dim:
            raise ValueError(f"rank {k}: expected {dim} rows, got {len(rows)}")
        if len(rows) != dim or any(len(row) != dim ** k for row in rows):
            raise ValueError(f"coefficient matrix must be {dim} x {dim ** k}")
        columns = {}
        for i, row in enumerate(rows):
            for col, c in zip(itertools.product(range(dim), repeat=k), row):
                if c != 0:
                    columns.setdefault(col, {})[i] = c
        node_maps[k] = MultilinearMap(k, dim, columns, Fraction(0) if exact else 0.0)
    return MTA(alphabet, dim, leaf_maps, node_maps, output)
