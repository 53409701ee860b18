"""Top-level query-learning loop: complete the table, extract a hypothesis,
ask a structured equivalence query, and turn its counterexample into one
separating column at a time until the table's classes weigh it right;
against a scanning teacher, its subtrees join T as well.  The hypothesis is
extracted once per equivalence query.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from .extract import extract_cmta
from .mta import MTA
from .table import Budget, ObservationTable
from .trees import IDENTITY_CONTEXT, Context, Leaf, RankedAlphabet, SkeletalTree


class TeacherOracle(Protocol):
    def smq(self, tree: SkeletalTree, context: Context = IDENTITY_CONTEXT):
        """The weight of context∘tree; the table passes each cell's column."""
    def seq(self, hypothesis: MTA) -> Optional[tuple[SkeletalTree, object]]: ...
    def exact_automaton(self, alphabet: RankedAlphabet) -> MTA | None:
        """The target's automaton, by which seq checks equivalence exactly;
        None for a corpus target, whose seq scans candidates."""


@dataclass
class LearnReport:
    hypothesis: MTA
    seq_count: int
    smq_count: int
    basis_size: int
    max_counterexample_size: int
    table: ObservationTable  # the final round's, which --dump-table prints


def default_iteration_cap(alphabet: RankedAlphabet) -> int:
    return 10 * len(alphabet.leaf_symbols) + 1000


def learn(oracle: TeacherOracle, alphabet: RankedAlphabet, *,
          max_iterations: int | None = None) -> LearnReport:
    """Learn a co-linear automaton for the oracle's skeletal tree series.

    While the table's hypothesis weighs a counterexample z wrong, z goes to
    `ObservationTable.add_counterexample`, which adds the one column that
    z's walk finds and completes the table; a walk that finds no new column
    raises TableError.  The hypothesis's value of
    z is read off the table's classes (`ObservationTable.hypothesis_value`),
    so no automaton is built between columns.  When the oracle's
    equivalence query is a scan (a corpus target: `exact_automaton` is
    None), z's subtrees then join T as well: a scan weighs only its
    candidates, and the rows and consistency checks over z's subtrees reach
    states that no candidate may show.  The hypothesis is extracted once per equivalence query, from
    the table as it then stands.

    The cap (default 10*|leaf alphabet| + 1000) counts basis additions,
    column additions, and equivalence queries; the table also holds at most
    table.MAX_ROWS rows.  Targets without finite co-linear rank exhaust
    either and raise CapExceeded.  The oracle's answers must be exact: the
    table compares them exactly.
    """
    cap = default_iteration_cap(alphabet) if max_iterations is None else max_iterations
    budget = Budget(cap)
    table = ObservationTable(alphabet, oracle, budget=budget)
    table.complete([Leaf(tok) for tok in alphabet.leaf_symbols])
    scans = oracle.exact_automaton(alphabet) is None
    seq_count = 0
    max_cex = 0
    while True:
        hypothesis = extract_cmta(table)
        budget.charge("equivalence query")
        seq_count += 1
        answer = oracle.seq(hypothesis)
        if answer is None:
            return LearnReport(hypothesis=hypothesis, seq_count=seq_count,
                               smq_count=table.smq_count,
                               basis_size=len(table.basis),
                               max_counterexample_size=max_cex, table=table)
        counterexample, value = answer
        max_cex = max(max_cex, counterexample.size)
        while table.hypothesis_value(counterexample) != value:
            table.add_counterexample(counterexample)
        if scans:
            table.complete([counterexample])
