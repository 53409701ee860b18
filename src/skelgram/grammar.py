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
from .scalars import (exceeds_one, format_scalar, is_exact, is_nonnegative, is_unit,
                      ordered_sum, parse_scalar, scalar_eq, scalar_is_zero, times)
from .trees import Context, RankedAlphabet, SkeletalTree

class GrammarError(ValueError):
    pass


class WCFG:
    """Rules with real weights; nonterminals are ordered with the start first."""

    def __init__(self, nonterminals, terminals, weights: dict):
        self.nonterminals = list(nonterminals)
        self.terminals = list(terminals)
        if not self.nonterminals:
            raise GrammarError("grammar needs at least one nonterminal")
        self._nt_set = set(self.nonterminals)
        if not self._nt_set.isdisjoint(self.terminals):
            raise GrammarError("nonterminals and terminals overlap")
        symbols = self._nt_set.union(self.terminals)
        self.weights = {}
        exact = True
        for (lhs, rhs), w in weights.items():
            rhs = tuple(rhs)
            if lhs not in self._nt_set:
                raise GrammarError(f"rule lhs {lhs!r} is not a declared nonterminal")
            if not rhs:
                raise GrammarError("empty rule right-hand sides are not allowed")
            for sym in rhs:
                if sym not in symbols:
                    raise GrammarError(f"undeclared symbol {sym!r} in rule rhs")
            if not is_exact(w):  # only a float can be NaN or infinite
                exact = False
                if w != w or w in (float("inf"), float("-inf")):
                    raise GrammarError(f"non-finite weight on {lhs} -> {' '.join(rhs)}")
            self.weights[(lhs, rhs)] = w
        self._zero = Fraction(0) if exact else 0.0
        self._rank = max(2, self.max_rhs_len())  # the default max rank
        self._automata: dict[int, MTA] = {}  # by max rank, built on first use

    @property
    def start(self) -> str:
        return self.nonterminals[0]

    def is_exact(self) -> bool:
        return all(map(is_exact, self.weights.values()))

    def max_rhs_len(self) -> int:
        return max((len(rhs) for _, rhs in self.weights), default=1)

    def alphabet(self, max_rank: int | None = None) -> RankedAlphabet:
        return RankedAlphabet(self.terminals, self._rank if max_rank is None else max_rank)

    # -- tree weights ------------------------------------------------------

    def automaton(self, max_rank: int | None = None) -> MTA:
        """The automaton of wcfg_to_pmta at max_rank (default: the
        alphabet's), for weights of either sign.  One is built per rank and
        kept, with the subtree vectors it memoizes; a rule longer than
        max_rank weighs no tree of that rank and is left out."""
        p = self._rank if max_rank is None else max_rank
        automaton = self._automata.get(p)
        if automaton is None:
            automaton = self._automata[p] = _grammar_automaton(self, p)
        return automaton

    def skeletal_weight(self, s: SkeletalTree, c: Context | None = None):
        """Weight of s, or with a context c of c∘s, over all taggings rooted
        at the start symbol: the start coordinate of s's vector, or the
        automaton's eval(s, c).  GrammarError on an unknown terminal."""
        # every table cell and weighed tree lands here: skip automaton()'s call
        automaton = self._automata.get(self._rank) or self.automaton()
        try:
            if c is not None and c.levels:
                return automaton.eval(s, c) or self._zero
            support = automaton.eval_support(s)
        except EvaluationError:
            self._check_terminals(s.text if c is None else c.prefix + s.text + c.suffix)
            return self._zero  # a node wider than every rule
        return support[0][1] if support and support[0][0] == 0 else self._zero

    def _check_terminals(self, text: str):
        """GrammarError naming the leftmost token of a tree's text that is
        not a terminal.  The automaton memoizes only trees that evaluate, so
        an unknown leaf always fails the evaluation: the text is read only
        then."""
        for tok in text.replace("(", " ").replace(")", " ").split():
            if tok not in self.terminals:
                raise GrammarError(f"unknown terminal {tok!r}") from None

    # -- structure checks --------------------------------------------------

    def is_invertible(self) -> bool:
        """No two rules with distinct left-hand sides share a right-hand side."""
        owner: dict[tuple, str] = {}
        for lhs, rhs in self.weights:
            if owner.setdefault(rhs, lhs) != lhs:
                return False
        return True

    def is_normalized(self) -> bool:
        """Every weight in [0, 1] and every nonterminal's weights sum to 1,
        up to the float tolerance; each sum starts at its first weight."""
        totals: dict[str, object] = {}
        for (lhs, _), w in self.weights.items():
            if not is_nonnegative(w) or exceeds_one(w):
                return False
            acc = totals.get(lhs)
            totals[lhs] = w if acc is None else acc + w
        return all(scalar_eq(tot, 1) for tot in totals.values())

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
        for i, x in enumerate(a.leaf_maps[tok]):
            if x != 0:
                v_rules[i][(tok,)] = x
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
    on for terminals that occur inside a longer right-hand side.  Rules
    longer than max_rank weigh no tree of that rank and are left out.
    """
    if not all(map(is_nonnegative, g.weights.values())):
        raise GrammarError("grammar has a negative weight")
    return _grammar_automaton(g, max_rank)


def _grammar_automaton(g: WCFG, max_rank: int | None = None) -> MTA:
    """The automaton of wcfg_to_pmta, built for weights of either sign."""
    nts = g.nonterminals
    toks = g.terminals
    iota = {sym: i for i, sym in enumerate(nts + toks)}
    n = len(iota)
    zero, one = g._zero, g._zero + 1

    alphabet = g.alphabet(max_rank)
    p = alphabet.max_rank
    # a rule longer than p weighs no tree of rank p: leave it out
    structural = [(lhs, rhs, w) for (lhs, rhs), w in g.weights.items()
                  if len(rhs) <= p and not (len(rhs) == 1 and rhs[0] in toks)]
    embedded = {sym for _, rhs, _ in structural if len(rhs) >= 2
                for sym in rhs if sym in toks}

    leaf_maps = {tok: [zero] * n for tok in toks}
    for tok in embedded:
        leaf_maps[tok][iota[tok]] = one
    for (lhs, rhs), w in g.weights.items():
        if len(rhs) == 1 and rhs[0] in toks:
            leaf_maps[rhs[0]][iota[lhs]] = w

    node_maps = {k: MultilinearMap(k, n, zero_scalar=zero) for k in range(1, p + 1)}
    for lhs, rhs, w in structural:
        if w != 0:
            col = node_maps[len(rhs)].columns.setdefault(tuple(iota[sym] for sym in rhs), {})
            col[iota[lhs]] = w

    output = [zero] * n
    output[iota[g.start]] = one
    return MTA(alphabet, n, leaf_maps, node_maps, output)


PARTITION_TOL = 1e-12  # relative residual at which float Newton has converged
SNAP_TOL = 1e-6  # how far a snapped rational may sit from Newton's float value


def partition_functions(g: WCFG) -> dict:
    """Least fixed point of Z_V = sum over rules of theta * prod Z_rhs.

    Nonterminals that derive no tree get 0.  The rest are solved one
    strongly connected component (SCC) of the dependency graph at a time,
    bottom-up, with the values below multiplied in as constants (Etessami &
    Yannakakis, JACM 2009): an SCC without a cycle in one pass, a linear one
    (no rule has two rhs symbols inside it) by elimination in the grammar's
    own arithmetic, a nonlinear one by Newton's method in floats from 0,
    snapped back to rationals when they satisfy its equations exactly.
    Raises GrammarError when a Z is infinite.
    """
    if not all(map(is_nonnegative, g.weights.values())):
        raise GrammarError("grammar has a negative weight")
    rules = [(lhs, [s for s in rhs if s in g._nt_set], w)
             for (lhs, rhs), w in g.weights.items() if w]
    productive = _productive(rules)
    by_lhs = {nt: [] for nt in g.nonterminals if nt in productive}
    for lhs, nts, w in rules:
        if all(s in productive for s in nts):
            by_lhs[lhs].append((nts, w))
    graph = {nt: list(dict.fromkeys(s for nts, _ in rs for s in nts))
             for nt, rs in by_lhs.items()}
    z = {nt: g._zero for nt in g.nonterminals}
    for comp in _sccs(graph):
        z.update(zip(comp, _solve_component(comp, by_lhs, z)))
    return z


def _productive(rules) -> set:
    """Nonterminals that derive a tree: a rule fires once all of its rhs
    nonterminals are known to derive one."""
    missing = [len(nts) for _, nts, _ in rules]
    users: dict[str, list] = {}
    for i, (_, nts, _) in enumerate(rules):
        for s in nts:
            users.setdefault(s, []).append(i)
    todo = [lhs for (lhs, _, _), m in zip(rules, missing) if m == 0]
    done = set()
    while todo:
        nt = todo.pop()
        if nt in done:
            continue
        done.add(nt)
        for i in users.get(nt, ()):
            missing[i] -= 1
            if missing[i] == 0:
                todo.append(rules[i][0])
    return done


def _sccs(graph: dict) -> list:
    """Tarjan's strongly connected components, without recursion; each comes
    after every component it reaches."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp[::-1])
    return out


def _solve_component(comp: list, by_lhs: dict, z: dict) -> list:
    """Least solution of one SCC's equations, given the values below it.

    Every member derives a tree and every coefficient is positive, so the
    system is clean in the sense of Esparza, Kiefer & Luttenberger (JACM
    2010): Newton's iterates from 0 are defined and increase to the least
    fixed point when it is finite.
    """
    pos = {nt: i for i, nt in enumerate(comp)}
    eqs = []  # per member: (coefficient, positions of its rhs symbols in comp)
    for nt in comp:
        terms = []
        for nts, w in by_lhs[nt]:
            inside = []
            for s in nts:
                if s in pos:
                    inside.append(pos[s])
                else:
                    w = times(w, z[s])
            terms.append((w, inside))
        eqs.append(terms)
    if len(comp) == 1 and not any(inside for _, inside in eqs[0]):
        return [ordered_sum(c for c, _ in eqs[0])]
    exact = all(is_exact(c) for terms in eqs for c, _ in terms)
    if exact and all(len(inside) <= 1 for terms in eqs for _, inside in terms):
        return _newton(eqs, Fraction(0))  # a linear system: one exact step
    try:
        floats = [[(float(c), inside) for c, inside in terms] for terms in eqs]
    except OverflowError:
        raise GrammarError(f"cannot solve for {comp[0]}: a weight is beyond "
                           "float range") from None
    steps = []
    values = _newton(floats, 0.0, steps)
    if not exact:  # with exact weights, _snap finds a rational double root
        values = _double_step(floats, values, steps)
    # float weights are binary rationals, so they too may have an exact root
    snapped = _snap([[(Fraction(c), inside) for c, inside in terms] for terms in eqs],
                    values, exact and len(eqs) == 1)
    if snapped is None:
        return values
    return snapped if exact else [float(v) for v in snapped]


def _newton(eqs: list, zero, steps: list | None = None) -> list:
    """Newton's method from 0 for z = f(z), f a polynomial per equation.

    Below a finite least fixed point every step is defined and non-negative,
    so a singular Jacobian or a negative step before the residual vanishes
    means the fixed point is infinite.  A float iteration stops when no step
    makes progress; it has converged if every z is positive (as every member
    of a productive SCC is) and each residual is within a relative
    PARTITION_TOL of f(z).  At a critical (double) root that is about
    sqrt(eps) short, which the residual test tolerates.  Each step taken is
    appended to `steps`, if given, as (z, step, relative residual).
    """
    z = [zero] * len(eqs)
    while True:
        fz, rows = _linearize(eqs, z, zero)
        residual = [a - b for a, b in zip(fz, z)]
        if not any(residual):
            return z
        step = _solve_m_matrix(rows, residual)
        nxt = z if step is None or min(step) < 0 else [a + d for a, d in zip(z, step)]
        if nxt == z:  # no usable step, or one too small to change z
            if not is_exact(zero) and all(z) and all(
                    abs(r) <= PARTITION_TOL * a for r, a in zip(residual, fz)):
                return z
            raise GrammarError("partition function diverges")
        if steps is not None:
            steps.append((z, step, max(map(abs, residual)) / max(fz)))
        z = nxt


HALVING_TOL = 0.1  # how far from 1/2 a step ratio may be at a double root
CLEAN_RESIDUAL = 2.0 ** -46  # 64 eps: below it a step is mostly rounding noise
CRITICAL_RESIDUAL = 2.0 ** -50  # 4 eps: a residual that is rounding only


def _double_step(eqs: list, z: list, steps: list) -> list:
    """z, where float Newton stalled, or the double root it was converging
    to, if it is one up to rounding.

    At a double root each Newton step s_j is about half the one before, and
    z stalls about sqrt(eps) short.  The doubled step z_j + 2 s_j, the
    classical correction, lands on the root up to about |s_j| |2 r_j - 1|,
    r_j = |s_{j+1}| / |s_j|, and its rounding error grows as the residual
    shrinks to eps.  So it is taken where that estimate is least, among the
    steps whose residual is clean and whose ratios on both sides are near
    1/2, and kept only if its own residual is rounding only: two roots
    further apart than rounding put it between them, where f(z) < z.
    """
    sizes = [max(map(abs, step)) for _, step, _ in steps]
    best, at = None, None
    for j in range(1, len(steps) - 1):
        before, after = sizes[j] / sizes[j - 1], sizes[j + 1] / sizes[j]
        if (steps[j][2] > CLEAN_RESIDUAL and abs(2 * before - 1) <= HALVING_TOL
                and abs(2 * after - 1) <= HALVING_TOL):
            error = sizes[j] * abs(2 * after - 1)
            if best is None or error <= best:
                best, at = error, j
    if at is None:
        return z
    zj, sj, _ = steps[at]
    doubled = [a + 2 * d for a, d in zip(zj, sj)]
    fz = _linearize(eqs, doubled, 0.0)[0]
    if max(abs(a - b) for a, b in zip(fz, doubled)) > CRITICAL_RESIDUAL * max(fz):
        return z
    return doubled


def _linearize(eqs: list, z: list, zero):
    """f(z), and the sparse rows {column: entry} of I - f'(z)."""
    fz, rows = [], []
    for i, terms in enumerate(eqs):
        total, row = zero, {i: zero + 1}
        for c, inside in terms:
            total += _monomial(c, inside, z)
            for k, j in enumerate(inside):
                others = inside[:k] + inside[k + 1:]
                row[j] = row.get(j, zero) - _monomial(c, others, z)
        fz.append(total)
        rows.append(row)
    return fz, rows


def _monomial(c, inside, z):
    for j in inside:
        c = c * z[j]
    return c


def _eliminate(rows: list, b: list) -> int:
    """Gaussian elimination without pivoting, in place, skipping zero
    entries; rows are sparse {column: entry}.  Stops at the first pivot that
    is not positive (a float within 1e-9 of 0 counts as 0) and returns its
    index, or len(rows) when there is none."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        p = rk.get(k, 0)
        if not p > 0 or scalar_is_zero(p):
            return k
        for i in range(k + 1, n):
            f = rows[i].pop(k, 0)
            if f:
                m = f / p
                ri = rows[i]
                for j, v in rk.items():
                    if j != k:
                        ri[j] = ri.get(j, 0) - m * v
                b[i] -= m * b[k]
    return n


def _solve_m_matrix(rows: list, b: list):
    """Solve M x = b for M = I - J with J >= 0.  Every pivot is positive
    exactly when M is a non-singular M-matrix (J's spectral radius is below
    1); otherwise return None."""
    n = len(rows)
    b = list(b)
    if _eliminate(rows, b) < n:
        return None
    x = [None] * n
    for k in reversed(range(n)):
        acc = b[k]
        for j, v in rows[k].items():
            if j != k:
                acc -= v * x[j]
        x[k] = acc / rows[k][k]
    return x


def _is_least(eqs: list, z: list) -> bool:
    """Whether an exact fixed point z of a nonlinear SCC is its least one.

    f'(z) is irreducible and non-negative.  At the least fixed point its
    spectral radius is at most 1, and at any larger one above 1 (Esparza,
    Kiefer & Luttenberger, JACM 2010).  So I - f'(z) must be an M-matrix:
    every pivot positive, except a zero last one at a critical root."""
    rows = _linearize(eqs, z, Fraction(0))[1]
    k = _eliminate(rows, [Fraction(0)] * len(rows))
    return k == len(rows) or (k == len(rows) - 1 and rows[k].get(k, 0) == 0)


def _snap(eqs: list, values: list, refine: bool):
    """The least solution of exact equations, if it is a rational near the
    float values.

    Tries continued-fraction convergents, smallest denominators first: at a
    critical root the float is only sqrt(eps) close, and a bounded-denominator
    approximation of it is not the root.  A try must solve the equations
    exactly and pass `_is_least`.  With `refine`, exact Newton steps follow,
    each about doubling the correct digits, with a try after each.  A
    rational p/q is a convergent of any value within 1/(2q^2) of it
    (Legendre), and for one equation q has at most `bits`, the coefficients'
    total size, by the rational root theorem.  So the steps end once they
    are below 2^-(2 bits + 1), or fail to shrink by more than half, as at a
    critical root, where Newton only halves the error.  The caller refines
    one equation only: a system has no such bound, and its exact iterates
    double in size each step (a 21-member component ran for minutes).
    """
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length()
               for terms in eqs for c, _ in terms)
    z, tol = [Fraction(v) for v in values], Fraction(SNAP_TOL)
    while True:
        near = [[c for c in _convergents(v, bits) if abs(c - v) <= tol * max(1, abs(v))]
                for v in z]
        for bound in sorted({c.denominator for cs in near for c in cs}):
            guess = [next((c for c in reversed(cs) if c.denominator <= bound), None)
                     for cs in near]
            if None not in guess and all(
                    sum(_monomial(c, inside, guess) for c, inside in terms) == guess[i]
                    for i, terms in enumerate(eqs)) and _is_least(eqs, guess):
                return guess
        if not refine or tol < Fraction(1, 2 ** (2 * bits + 1)):
            return None
        fz, rows = _linearize(eqs, z, Fraction(0))
        step = _solve_m_matrix(rows, [a - b for a, b in zip(fz, z)])
        size = step and max(abs(d) for d in step)
        if not size or 2 * size >= tol:
            return None
        z, tol = [a + d for a, d in zip(z, step)], size


def _convergents(x, max_bits: int) -> list:
    """The continued-fraction convergents of x whose denominators have at
    most max_bits bits, by increasing denominator."""
    f = Fraction(x)
    num, den = f.numerator, f.denominator
    h0, h1, k0, k1 = 0, 1, 1, 0
    out = []
    while den:
        a, rem = divmod(num, den)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if k1.bit_length() > max_bits:
            break
        out.append(Fraction(h1, k1))
        num, den = den, rem
    return out


def wcfg_to_pcfg(g: WCFG) -> PCFG:
    """Renormalize a convergent non-negative grammar into a PCFG.

    Each complete derivation tree keeps probability W(t)/Z where Z is the
    grammar's total weight; already-normalized grammars come back unchanged.
    """
    z = partition_functions(g)
    if not z[g.start]:
        raise GrammarError("start symbol derives nothing; cannot normalize")
    weights = {}
    for (lhs, rhs), w in g.weights.items():
        zl = z[lhs]
        if not zl:
            continue  # unproductive nonterminal: rule never fires
        term = w  # an exact w times a float z is float(w) * z
        for sym in rhs:
            if sym in g._nt_set:
                term = times(term, z[sym])
        # an int over an int 1 is a float, so an int is divided
        weights[(lhs, rhs)] = (term if term.__class__ is not int and is_unit(zl, term)
                               else term / zl)
    weights = {r: w for r, w in weights.items() if w}
    kept_nts = [nt for nt in g.nonterminals if z[nt]]
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
        if "->" in body or any(c in sym for sym in (lhs, *rhs) for c in "[]"):
            raise GrammarError(f"line {lineno}: one rule per line, and no '->', '[' "
                               f"or ']' in a symbol: {line!r}")
        w = parse_scalar(weight_part.rstrip("]"), exact)
        raw_rules.append((lhs, rhs, w))
    if not raw_rules:
        raise GrammarError("no rules in grammar")

    nts = list(dict.fromkeys(lhs for lhs, _, _ in raw_rules))
    if start is not None:
        if start not in nts:
            raise GrammarError(f"start symbol {start!r} has no rules")
        nts.remove(start)
        nts.insert(0, start)
    nt_set = set(nts)
    terminals = list(dict.fromkeys(sym for _, rhs, _ in raw_rules for sym in rhs
                                   if sym not in nt_set))
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
