"""Weighted tree automata basics.

Builds a two-dimensional automaton that counts the leaves of a skeletal
tree, evaluates a few trees bottom-up, and converts the automaton into a
weighted grammar with identical tree weights.
"""
from skelgram import (MTA, MultilinearMap, RankedAlphabet, pmta_to_wcfg,
                      parse_structured_string)

alphabet = RankedAlphabet(["a"], max_rank=2)

# the rank-2 map adds the two child counts in coordinate 0 and keeps the
# constant 1 in coordinate 1; leaves start at (1, 1).  Each column (j1, j2)
# maps to its non-zero entries {i: coefficient of x1[j1] * x2[j2] in y[i]}
adder = MultilinearMap(2, 2, {(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}},
                       zero_scalar=0)
counter = MTA(alphabet, dim=2,
              leaf_maps={"a": [1, 1]},
              node_maps={2: adder},
              output=[1, 0])

for text in ["a", "(a a)", "((a a) a)", "((a a) (a a))"]:
    tree = parse_structured_string(text, alphabet)
    print(f"{text:18s} vector={counter.eval_vector(tree)}  leaves={counter.eval(tree)}")

print("\nall weights non-negative:", counter.is_positive())
print("co-linear transition columns:", counter.is_colinear_mta())

grammar = pmta_to_wcfg(counter)
print("\nas a weighted grammar:")
for (lhs, rhs), w in sorted(grammar.weights.items()):
    print(f"  {lhs} -> {' '.join(rhs)} [{w}]")
tree = parse_structured_string("((a a) a)", alphabet)
print("grammar weight of ((a a) a):", grammar.skeletal_weight(tree))
