"""skelgram: learning structurally unambiguous probabilistic grammars over
skeletal trees from structured membership and equivalence queries."""

from .equivalence import difference_witness
from .extract import extract_cmta
from .grammar import (GrammarError, PCFG, WCFG, format_wcfg, load_wcfg,
                      parse_wcfg, partition_functions, pmta_to_wcfg,
                      wcfg_to_pcfg, wcfg_to_pmta)
from .learner import LearnReport, learn
from .mta import MTA, EvaluationError, format_mta, parse_mta
from .multilinear import MultilinearMap, apply, colinear_witness
from .table import Budget, CapExceeded, ObservationTable, TableError
from .teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                      ExhaustiveStrategy, SamplingStrategy, SimulatedTeacher,
                      load_corpus)
from .trees import (Context, Hole, HOLE, IDENTITY_CONTEXT, Leaf, Node,
                    RankedAlphabet, SkeletalTree, TreeSyntaxError,
                    canonical_key, compose, compose_contexts,
                    enumerate_full_trees, full_trees, parse_context,
                    parse_structured_string, sigma_contexts, subtrees,
                    tree_yield)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
