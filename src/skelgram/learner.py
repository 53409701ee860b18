"""Top-level query-learning loop: complete the table, extract a hypothesis,
ask a structured equivalence query, fold counterexample subtrees back in.
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

    The cap (default 10*|leaf alphabet| + 1000) counts basis additions,
    column additions, and equivalence queries; targets without finite
    co-linear rank exhaust it and raise CapExceeded.  The arithmetic follows
    the oracle's scalars: load the target with exact=False to learn in floats.
    """
    cap = default_iteration_cap(alphabet) if max_iterations is None else max_iterations
    budget = Budget(cap)
    table = ObservationTable(alphabet, oracle, budget=budget)
    table.complete([Leaf(tok) for tok in alphabet.leaf_symbols])
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
        counterexample, _value = answer
        max_cex = max(max_cex, counterexample.size)
        table.complete([counterexample])
