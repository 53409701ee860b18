"""Weighted and probabilistic context-free grammars over skeletal trees.

Rule right-hand sides mix nonterminals and terminals.  A rule whose rhs is
a single terminal tags a bare leaf; every other rule consumes one anonymous
internal node whose children match the rhs symbols in order (a terminal in
the rhs matches exactly that leaf).  The weight of a skeletal tree from a
nonterminal N sums the rule-weight products over all taggings rooted at N.
"""
from __future__ import annotations

from fractions import Fraction

from .multilinear import MultilinearMap
from .mta import MTA, EvaluationError
from .scalars import DEFAULT_TOL, format_scalar, is_exact, parse_scalar, scalar_eq
from .trees import RankedAlphabet, SkeletalTree, tree_yield

Rule = tuple[str, tuple[str, ...]]


class GrammarError(ValueError):
    pass


class WCFG:
    """Rules with real weights; nonterminals are ordered with the start first."""

    def __init__(self, nonterminals, terminals, weights: dict):
        self.nonterminals = list(nonterminals)
        self.terminals = list(terminals)
        if not self.nonterminals:
            raise GrammarError("grammar needs at least one nonterminal")
        if set(self.nonterminals) & set(self.terminals):
            raise GrammarError("nonterminals and terminals overlap")
        self.weights = {}
        for (lhs, rhs), w in weights.items():
            rhs = tuple(rhs)
            if lhs not in self.nonterminals:
                raise GrammarError(f"rule lhs {lhs!r} is not a declared nonterminal")
            if not rhs:
                raise GrammarError("empty rule right-hand sides are not allowed")
            for sym in rhs:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise GrammarError(f"undeclared symbol {sym!r} in rule rhs")
            if w != w or w in (float("inf"), float("-inf")):
                raise GrammarError(f"non-finite weight on {lhs} -> {' '.join(rhs)}")
            self.weights[(lhs, rhs)] = w
        self._nt_set = set(self.nonterminals)
        self._zero = Fraction(0) if self.is_exact() else 0.0
        self._automaton = None  # built on first weight query, memoizes subtrees

    @property
    def start(self) -> str:
        return self.nonterminals[0]

    def is_exact(self) -> bool:
        return all(map(is_exact, self.weights.values()))

    def max_rhs_len(self) -> int:
        return max((len(rhs) for _, rhs in self.weights), default=1)

    def alphabet(self, max_rank: int | None = None) -> RankedAlphabet:
        p = max(2, self.max_rhs_len()) if max_rank is None else max_rank
        return RankedAlphabet(self.terminals, p)

    # -- tree weights ------------------------------------------------------

    def _vector(self, s: SkeletalTree) -> list:
        """s's vector under the grammar's automaton; it starts with the
        per-nonterminal weights, in nonterminal order."""
        if self._automaton is None:
            self._automaton = _grammar_automaton(self)
        try:
            return self._automaton.eval_vector(s)
        except EvaluationError:  # a rank longer than every rule, or an unknown leaf
            return [self._zero] * len(self.nonterminals)

    def weight_from(self, nt: str, s: SkeletalTree):
        """Total weight of taggings of s whose root is tagged nt."""
        return self.derivation_weights(s).get(nt, self._zero)

    def skeletal_weight(self, s: SkeletalTree):
        """Weight of s over all taggings rooted at the start symbol."""
        for tok in set(tree_yield(s)):
            if tok not in self.terminals:
                raise GrammarError(f"unknown terminal {tok!r}")
        return self._vector(s)[0]

    def derivation_weights(self, s: SkeletalTree) -> dict:
        """Per-nonterminal weight vector of s."""
        return dict(zip(self.nonterminals, self._vector(s)))

    # -- structure checks --------------------------------------------------

    def is_invertible(self) -> bool:
        """No two rules with distinct left-hand sides share a right-hand side."""
        owner: dict[tuple, str] = {}
        for lhs, rhs in self.weights:
            if owner.setdefault(rhs, lhs) != lhs:
                return False
        return True

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        totals: dict[str, object] = {}
        for (lhs, _), w in self.weights.items():
            if w < 0 or (w > 1 and not scalar_eq(w, 1, tol)):
                return False
            totals[lhs] = totals.get(lhs, self._zero) + w
        return all(scalar_eq(tot, 1, tol) for tot in totals.values())

    def __repr__(self):
        return f"WCFG({len(self.nonterminals)} nonterminals, {len(self.weights)} rules)"


class PCFG(WCFG):
    """A WCFG whose weights normalize to 1 per nonterminal."""

    def __init__(self, nonterminals, terminals, weights):
        super().__init__(nonterminals, terminals, weights)
        if not self.is_normalized():
            raise GrammarError("weights do not satisfy per-nonterminal normalization")


# -- conversions -----------------------------------------------------------


def pmta_to_wcfg(a: MTA) -> WCFG:
    """Positive automaton -> weighted grammar with the same skeletal weights.

    Dimension i becomes nonterminal Vi with a rule per non-zero coefficient;
    the output vector is folded into the start symbol's rules, so S carries
    the weighted union of the Vi rule sets.
    """
    if not a.is_positive():
        raise GrammarError("automaton has a negative weight")
    d = a.dim
    names = ["S"] + [f"V{i}" for i in range(1, d + 1)]
    if set(names) & set(a.alphabet.leaf_symbols):
        raise GrammarError("leaf tokens collide with generated nonterminal names")

    v_rules: list[dict] = [dict() for _ in range(d)]  # per-dimension rhs -> weight
    for tok in a.alphabet.leaf_symbols:
        vec = a.leaf_maps[tok]
        for i in range(d):
            if vec[i] != 0:
                v_rules[i][(tok,)] = vec[i]
    for m in a.node_maps.values():
        for col, entries in sorted(m.columns.items()):
            rhs = tuple(f"V{j + 1}" for j in col)
            for i, c in entries.items():
                v_rules[i][rhs] = c

    weights: dict = {}
    for i in range(d):
        for rhs, w in v_rules[i].items():
            weights[(f"V{i + 1}", rhs)] = w
            if a.output[i] != 0:
                key = ("S", rhs)
                weights[key] = weights.get(key, 0) + a.output[i] * w
    weights = {r: w for r, w in weights.items() if w != 0}
    return WCFG(names, list(a.alphabet.leaf_symbols), weights)


def wcfg_to_pmta(g: WCFG, max_rank: int | None = None) -> MTA:
    """Non-negative grammar -> positive automaton of dimension |V| + |terminals|.

    Nonterminal coordinates carry per-nonterminal tree weights; a terminal
    coordinate flags "this subtree is exactly that leaf" and is only switched
    on for terminals that occur inside a longer right-hand side.
    """
    if any(w < 0 for w in g.weights.values()):
        raise GrammarError("grammar has a negative weight")
    return _grammar_automaton(g, max_rank)


def _grammar_automaton(g: WCFG, max_rank: int | None = None) -> MTA:
    """The automaton of wcfg_to_pmta, built for weights of either sign."""
    nts = g.nonterminals
    toks = g.terminals
    iota = {sym: i for i, sym in enumerate(nts + toks)}
    n = len(iota)
    zero, one = g._zero, g._zero + 1

    structural = [(lhs, rhs, w) for (lhs, rhs), w in g.weights.items()
                  if not (len(rhs) == 1 and rhs[0] in toks)]
    alphabet = g.alphabet(max_rank)
    p = alphabet.max_rank
    embedded = {sym for _, rhs, _ in structural if len(rhs) >= 2
                for sym in rhs if sym in toks}

    leaf_maps = {tok: [zero] * n for tok in toks}
    for tok in embedded:
        leaf_maps[tok][iota[tok]] = one
    for (lhs, rhs), w in g.weights.items():
        if len(rhs) == 1 and rhs[0] in toks:
            leaf_maps[rhs[0]][iota[lhs]] = w

    node_maps = {k: MultilinearMap.zero(k, n, zero) for k in range(1, p + 1)}
    for lhs, rhs, w in structural:
        k = len(rhs)
        if k > p:
            raise GrammarError(f"rule length {k} exceeds requested max rank {p}")
        if w != 0:
            col = node_maps[k].columns.setdefault(tuple(iota[sym] for sym in rhs), {})
            col[iota[lhs]] = w

    output = [zero] * n
    output[iota[g.start]] = one
    return MTA(alphabet, n, leaf_maps, node_maps, output)


PARTITION_TOL = 1e-12
PARTITION_MAX_ITERATIONS = 10 ** 6
PARTITION_DIVERGENCE_BOUND = 1e15


def partition_functions(g: WCFG) -> dict:
    """Least fixed point of Z_V = sum over rules of theta * prod Z_rhs.

    Exact grammars with acyclic nonterminal dependencies stabilize exactly;
    otherwise iterate in floats to PARTITION_TOL.  Raises GrammarError on
    divergence.
    """
    if g.is_exact():
        z = {nt: Fraction(0) for nt in g.nonterminals}
        for _ in range(len(g.nonterminals) + 2):
            nxt = _partition_step(g, z, Fraction(0))
            if nxt == z:
                return z
            z = nxt
    zf = {nt: 0.0 for nt in g.nonterminals}
    for _ in range(PARTITION_MAX_ITERATIONS):
        nxt = _partition_step(g, zf, 0.0, as_float=True)
        if any(v > PARTITION_DIVERGENCE_BOUND for v in nxt.values()):
            raise GrammarError("partition function diverges")
        if all(abs(nxt[nt] - zf[nt]) <= PARTITION_TOL for nt in zf):
            if g.is_exact():
                snapped = _snap_to_exact_fixed_point(g, nxt)
                if snapped is not None:
                    return snapped
            return nxt
        zf = nxt
    raise GrammarError("partition function did not converge")


def _snap_to_exact_fixed_point(g: WCFG, zf: dict):
    """Guess nearby rationals for a float fixed point and keep them only if
    they satisfy the equations exactly."""
    guess = {nt: Fraction(v).limit_denominator(10 ** 9) for nt, v in zf.items()}
    if any(abs(float(guess[nt]) - zf[nt]) > 1e-6 for nt in zf):
        return None
    return guess if _partition_step(g, guess, Fraction(0)) == guess else None


def _partition_step(g: WCFG, z: dict, zero, as_float: bool = False):
    nxt = {nt: zero for nt in g.nonterminals}
    for (lhs, rhs), w in g.weights.items():
        term = float(w) if as_float else w
        for sym in rhs:
            if sym in g._nt_set:
                term = term * z[sym]
                if term == 0:
                    break
        nxt[lhs] = nxt[lhs] + term
    return nxt


def wcfg_to_pcfg(g: WCFG) -> PCFG:
    """Renormalize a convergent non-negative grammar into a PCFG.

    Each complete derivation tree keeps probability W(t)/Z where Z is the
    grammar's total weight; already-normalized grammars come back unchanged.
    """
    if any(w < 0 for w in g.weights.values()):
        raise GrammarError("grammar has a negative weight")
    z = partition_functions(g)
    if z[g.start] == 0:
        raise GrammarError("start symbol derives nothing; cannot normalize")
    weights = {}
    for (lhs, rhs), w in g.weights.items():
        zl = z[lhs]
        if zl == 0:
            continue  # unproductive nonterminal: rule never fires
        term = w  # an exact w times a float z is float(w) * z
        for sym in rhs:
            if sym in g._nt_set:
                term = term * z[sym]
        weights[(lhs, rhs)] = term / zl
    weights = {r: w for r, w in weights.items() if w != 0}
    kept_nts = [nt for nt in g.nonterminals if z[nt] != 0]
    return PCFG(kept_nts, list(g.terminals), weights)


# -- text format -----------------------------------------------------------


def parse_wcfg(text: str, exact: bool = True) -> WCFG:
    """Grammar file: optional "start: <N>" line, then "<N> -> <sym>... [<w>]"."""
    start = None
    raw_rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start:"):
            start = line.split(":", 1)[1].strip()
            continue
        if "->" not in line or not line.endswith("]") or "[" not in line:
            raise GrammarError(f"line {lineno}: expected '<N> -> <syms> [<weight>]'")
        head, rest = line.split("->", 1)
        body, weight_part = rest.rsplit("[", 1)
        lhs = head.strip()
        rhs = tuple(body.split())
        if not lhs or not rhs:
            raise GrammarError(f"line {lineno}: empty rule side")
        if len(lhs.split()) != 1:
            raise GrammarError(f"line {lineno}: rule head must be one symbol")
        w = parse_scalar(weight_part.rstrip("]"), exact)
        raw_rules.append((lhs, rhs, w))
    if not raw_rules:
        raise GrammarError("no rules in grammar")

    nts = []
    for lhs, _, _ in raw_rules:
        if lhs not in nts:
            nts.append(lhs)
    if start is not None:
        if start not in nts:
            raise GrammarError(f"start symbol {start!r} has no rules")
        nts.remove(start)
        nts.insert(0, start)
    terminals = []
    for _, rhs, _ in raw_rules:
        for sym in rhs:
            if sym not in nts and sym not in terminals:
                terminals.append(sym)
    weights: dict = {}
    for lhs, rhs, w in raw_rules:
        key = (lhs, rhs)
        weights[key] = weights.get(key, Fraction(0) if exact else 0.0) + w
    return WCFG(nts, terminals, weights)


def load_wcfg(path, exact: bool = True) -> WCFG:
    with open(path, encoding="utf-8") as fh:
        return parse_wcfg(fh.read(), exact)


def format_wcfg(g: WCFG) -> str:
    lines = [f"start: {g.start}"]
    order = {nt: i for i, nt in enumerate(g.nonterminals)}
    for (lhs, rhs) in sorted(g.weights, key=lambda r: (order[r[0]], r[1])):
        w = g.weights[(lhs, rhs)]
        lines.append(f"{lhs} -> {' '.join(rhs)} [{format_scalar(w)}]")
    return "\n".join(lines) + "\n"
