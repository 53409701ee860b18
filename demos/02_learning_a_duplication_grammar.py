"""Learning a tandem-duplication grammar from queries.

The hidden target assigns a right chain of n identical genes the weight
0.8 * 0.2^(n-2): every extra copy costs a factor 0.2.  A simulated teacher
answers membership queries with exact rationals and equivalence queries by
an exact equivalence check; the learner recovers the series and we read the
geometric decay off the hypothesis.
"""
from fractions import Fraction

from skelgram import (SimulatedTeacher, format_wcfg, learn, parse_wcfg,
                      pmta_to_wcfg, wcfg_to_pcfg)
from skelgram.geneclusters import right_chain

target = parse_wcfg("""
start: N
N -> a N [0.2]
N -> a a [0.8]
""")
alphabet = target.alphabet(2)

teacher = SimulatedTeacher(target)
report = learn(teacher, alphabet)
print(f"learned in {report.seq_count} equivalence and "
      f"{report.smq_count} membership queries; rank {report.basis_size}")

print("\nchain weights under the hypothesis:")
for n in range(2, 9):
    value = report.hypothesis.eval(right_chain("a", n))
    assert value == Fraction(8, 10) * Fraction(2, 10) ** (n - 2)
    print(f"  {n} copies: {value}")

pcfg = wcfg_to_pcfg(pmta_to_wcfg(report.hypothesis))
print("\nrecovered probabilistic grammar:")
print(format_wcfg(pcfg))
