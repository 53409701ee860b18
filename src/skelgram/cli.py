"""Command-line front end.

Subcommands: learn (drive the query learner against a simulated teacher,
which decides a grammar or automaton target's equivalence exactly and
scans --seq's candidates for a --distance corpus), eval (weigh structured
strings under a grammar or automaton), convert (automaton/grammar
transformations), trees (gene-string parsing and distances).  Exit codes:
0 success, 2 input error, 3 iteration or row cap, 4 precondition
violation: a grammar or automaton that the conversion cannot take, an
automaton whose dense .mta form would exceed mta.MAX_DENSE_COEFFICIENTS, a
weight to write with more digits than Python converts to text, or a learn
whose table cannot go on (a counterexample value that the table's own
cells contradict).  Every weight is read exactly; `--float` only prints
the weights learn and convert write as floats.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from .geneclusters import (SubstringFrequencyWeight, duplication_distance,
                           parse_gene_string, swap_distance)
from .grammar import (GrammarError, WCFG, format_wcfg, parse_wcfg, pmta_to_wcfg,
                      wcfg_to_pcfg, wcfg_to_pmta)
from .learner import learn
from .mta import MTA, TooLargeToWrite, format_mta, parse_mta
from .scalars import decimal_text, float_text, format_scalar, parse_scalar
from .table import CapExceeded, TableError
from .teacher import (AllTreesStrategy, CorpusOracle, DuplicationsStrategy,
                      ExhaustiveStrategy, SamplingStrategy, SimulatedTeacher,
                      load_corpus)
from .trees import (RankedAlphabet, TreeSyntaxError, parse_structured_string,
                    tree_yield)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_PRECONDITION = 4
FLOAT_HELP = ("print each weight written as a float: float(x) of its exact value, or "
              "17 significant digits where float(x) overflows or is not a normal float")
DEFAULT_MAX_RANK = 2
MAX_RANK_HELP = (f"largest node arity (default {DEFAULT_MAX_RANK}; "
                 "an automaton only accepts its own p=)")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_target(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"no such file: {path}", EXIT_INPUT)
    text = path.read_text(encoding="utf-8")
    try:
        if text.lstrip().startswith("mta "):
            return parse_mta(text)
        return parse_wcfg(text)
    except (GrammarError, ValueError) as exc:
        raise CliError(f"cannot parse {path}: {exc}", EXIT_INPUT)


def _alphabet(target, max_rank):
    """The alphabet trees are read in: an automaton's own, whose rank a
    given --max-rank must match, or the grammar's at that rank."""
    if isinstance(target, MTA):
        if max_rank is not None and max_rank != target.alphabet.max_rank:
            raise CliError(f"--max-rank {max_rank} differs from the automaton's "
                           f"p={target.alphabet.max_rank}", EXIT_INPUT)
        return target.alphabet
    return target.alphabet(DEFAULT_MAX_RANK if max_rank is None else max_rank)


def _build_strategy(args, alphabet, weight):
    if alphabet.max_rank < 2:
        raise CliError(f"--seq {args.seq} needs --max-rank 2 or more; at --max-rank 1 only "
                       "an automaton or grammar learns", EXIT_INPUT)
    if args.seq == "exhaustive":
        return ExhaustiveStrategy(alphabet, args.max_len, weight)
    if args.seq == "sampling":
        return SamplingStrategy(alphabet, args.count, args.max_len, args.seed, weight)
    if args.seq == "trees":
        return AllTreesStrategy(alphabet, args.max_leaves)
    if args.seq == "duplications":
        if not args.base_trees:
            raise CliError("--seq duplications requires --base-trees", EXIT_INPUT)
        lines = Path(args.base_trees).read_text(encoding="utf-8").splitlines()
        trees = [parse_structured_string(line, alphabet) for line in lines if line.strip()]
        return DuplicationsStrategy(trees, args.max_dup)
    raise CliError(f"unknown strategy {args.seq!r}", EXIT_INPUT)


def cmd_learn(args) -> int:
    if args.distance is not None:
        try:
            entries, alphabet = load_corpus(
                args.target, DEFAULT_MAX_RANK if args.max_rank is None else args.max_rank)
            q = parse_scalar(args.q)
            target = CorpusOracle(entries, q, args.distance)
        except (ValueError, OSError) as exc:
            raise CliError(f"cannot load corpus: {exc}", EXIT_INPUT)
        weight = SubstringFrequencyWeight(
            [tree_yield(entry) for entry, _ in entries])
        teacher = SimulatedTeacher(target, _build_strategy(args, alphabet, weight))
    else:
        target = _load_target(args.target)
        alphabet = _alphabet(target, args.max_rank)
        teacher = SimulatedTeacher(target)
    started = time.monotonic()
    try:
        report = learn(teacher, alphabet, max_iterations=args.max_iterations)
    except (CapExceeded, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_PRECONDITION
    wall_ms = int((time.monotonic() - started) * 1000)

    text = float_text if args.float else format_scalar
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hypothesis = report.hypothesis
    (out / "hypothesis.mta").write_text(format_mta(hypothesis, text), encoding="utf-8")
    wcfg = pmta_to_wcfg(hypothesis)
    (out / "hypothesis.wcfg").write_text(format_wcfg(wcfg, text), encoding="utf-8")
    try:
        pcfg = wcfg_to_pcfg(wcfg)
        (out / "hypothesis.pcfg").write_text(format_wcfg(pcfg, text), encoding="utf-8")
    except GrammarError as exc:
        print(f"warning: PCFG normalization failed: {exc}", file=sys.stderr)
    payload = {
        "seq_count": report.seq_count,
        "smq_count": report.smq_count,
        "basis_size": report.basis_size,
        "wall_time_ms": wall_ms,
        "max_counterexample_size": report.max_counterexample_size,
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
    if args.dump_table:
        (out / "table.tsv").write_text(report.table.dump_tsv(text), encoding="utf-8")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_eval(args) -> int:
    target = _load_target(args.model)
    alphabet = _alphabet(target, args.max_rank)
    evaluate = target.eval if isinstance(target, MTA) else target.skeletal_weight
    if args.trees:
        try:
            lines = Path(args.trees).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CliError(str(exc), EXIT_INPUT)
    else:
        lines = sys.stdin.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tree = parse_structured_string(line, alphabet)
        except TreeSyntaxError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        value = evaluate(tree)
        print(f"{_fmt_value(value)}\t{tree.text}")
    return EXIT_OK


def _fmt_value(value):
    if isinstance(value, Fraction):
        with suppress(OverflowError, ValueError):  # past float range or str's digit limit
            if value.denominator == 1:
                return str(value.numerator)
            if abs(x := float(value)) >= sys.float_info.min:  # normal: holds 12 digits
                return f"{x:.12g}"
        return decimal_text(value, 12)
    return f"{value:.12g}"


def cmd_convert(args) -> int:
    modes = [m for m in ("pmta_to_wcfg", "wcfg_to_pmta", "wcfg_to_pcfg")
             if getattr(args, m)]
    if len(modes) != 1:
        raise CliError("choose exactly one conversion mode", EXIT_INPUT)
    mode = modes[0]
    text = float_text if args.float else format_scalar
    if mode == "pmta_to_wcfg":
        automaton = _load_target(args.input)
        if not isinstance(automaton, MTA):
            raise CliError("input is not an automaton file", EXIT_INPUT)
        try:
            result = format_wcfg(pmta_to_wcfg(automaton), text)
        except GrammarError as exc:
            raise CliError(str(exc), EXIT_PRECONDITION)
    else:
        grammar = _load_target(args.input)
        if not isinstance(grammar, WCFG):
            raise CliError("input is not a grammar file", EXIT_INPUT)
        try:
            if mode == "wcfg_to_pmta":
                result = format_mta(wcfg_to_pmta(grammar), text)
            else:
                result = format_wcfg(wcfg_to_pcfg(grammar), text)
        except GrammarError as exc:
            raise CliError(str(exc), EXIT_PRECONDITION)
    if args.output:
        Path(args.output).write_text(result, encoding="utf-8")
    else:
        sys.stdout.write(result)
    return EXIT_OK


def cmd_trees(args) -> int:
    try:
        raw_lines = Path(args.strings).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    corpus = []
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        string = line.split("\t", 1)[-1].split()  # an optional <frequency><TAB> goes
        if not string:
            raise CliError(f"line {lineno}: no gene string after the tab", EXIT_INPUT)
        corpus.append(tuple(string))
    weight = SubstringFrequencyWeight(corpus)
    tokens = sorted({tok for s in corpus for tok in s})
    if not tokens:
        return EXIT_OK
    alphabet = RankedAlphabet(tokens, 2)

    if args.against:
        try:
            reference = parse_structured_string(args.against, alphabet)
        except TreeSyntaxError as exc:
            raise CliError(f"--against: {exc}", EXIT_INPUT)
        dist = swap_distance if args.distance == "swap" else duplication_distance
    for string in corpus:  # each line: the score, or the distance --against
        tree, score = parse_gene_string(string, weight)
        print(f"{dist(tree, reference) if args.against else score}\t{tree.text}")
    return EXIT_OK


def _at_least(floor: int):
    """An argparse type: an integer no smaller than floor."""
    def integer(text):
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelgram",
        description="learn, evaluate, and convert skeletal-tree grammars")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a grammar from a simulated teacher")
    p.add_argument("--target", required=True,
                   help="grammar/automaton file, or corpus TSV with --distance")
    p.add_argument("--seq", default="trees",
                   choices=["exhaustive", "sampling", "duplications", "trees"],
                   help="equivalence candidates to scan, used only with --distance: "
                        "a grammar or automaton target's equivalence is decided exactly")
    p.add_argument("--max-len", type=_at_least(1), default=4,
                   help="string length bound for exhaustive/sampling")
    p.add_argument("--max-leaves", type=_at_least(1), default=5,
                   help="leaf bound for the trees strategy")
    p.add_argument("--count", type=_at_least(1), default=100, help="sampling draw count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dup", type=_at_least(0), default=2)
    p.add_argument("--base-trees", help="file of structured strings for duplications")
    p.add_argument("--distance", choices=["swap", "duplication"],
                   help="treat --target as a corpus TSV with this edit distance")
    p.add_argument("--q", default="0.2", help="corpus decay factor")
    p.add_argument("--max-rank", type=int, help=MAX_RANK_HELP)
    p.add_argument("--max-iterations", type=_at_least(0), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--float", action="store_true", help=FLOAT_HELP)
    p.add_argument("--dump-table", action="store_true")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="evaluate structured strings under a model")
    p.add_argument("model", help="grammar or automaton file")
    p.add_argument("--trees", help="file of structured strings (default stdin)")
    p.add_argument("--max-rank", type=int, help=MAX_RANK_HELP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("convert", help="convert between model formats")
    p.add_argument("input")
    p.add_argument("--output")
    p.add_argument("--pmta-to-wcfg", action="store_true")
    p.add_argument("--wcfg-to-pmta", action="store_true")
    p.add_argument("--wcfg-to-pcfg", action="store_true")
    p.add_argument("--float", action="store_true", help=FLOAT_HELP)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("trees", help="parse gene strings into trees")
    p.add_argument("strings", help="one space-separated token string per line")
    p.add_argument("--distance", choices=["swap", "duplication"],
                   default="duplication")
    p.add_argument("--against", help="structured string to measure distances against")
    p.set_defaults(func=cmd_trees)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TooLargeToWrite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (TreeSyntaxError, GrammarError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
