"""Seeded mutations of the fixture files through every CLI subcommand.

Each mutation deletes characters, cuts spans or inserts tokens that the
readers treat specially into a fixture grammar, or into the `.mta` form of
one, and the result goes through `eval` (as the model and as the trees
file), `convert`, `learn` (cap 40) and `trees`, called in-process.  A second
generator, with its own seed, mutates the same files for `eval` and for
`--float` runs of `convert` and `learn`, and a corpus and a base-tree file
for `learn --distance`.  Every run must return a documented exit code and raise
nothing; a run that takes longer than RUN_SECONDS fails too.
"""
import contextlib
import io
import random
import signal

import pytest

from skelgram.cli import main
from skelgram.grammar import load_wcfg, wcfg_to_pmta
from skelgram.mta import format_mta

from conftest import FIXTURES

MUTATIONS = 240
SEED = 23
RUN_SECONDS = 10
EXIT_CODES = {0, 2, 3, 4}
INSERTS = ["(", ")", "->", "1e400", "<>", "[", "]", "[0]", "-1", "1/0", "0", "S", "\n",
           ":", "leaf :", "rank 3:", "p=9", "d=0", " ", "#", "\t"]
# mutations that found a defect, run whatever the seed draws: an exact
# partition function of a 21-member nonlinear component took minutes
FOUND = [("fimacd.wcfg", "N14 -> N1 N15 [0.640]", "N14 ->S N1 N15 [0.640]")]
# the --float and corpus runs: their own generator, so that the cases above
# stay as they are
FLOAT_MUTATIONS = 60
CORPUS_MUTATIONS = 60
FLOAT_SEED = 29
CORPUS = "4\t(a (b b))\n2\t((a b) c)\n1\t(a c)\n1\t((a a) (b c))\n"
BASE_TREES = "(a b)\n((a b) c)\n(a c)\n"
CORPUS_INSERTS = INSERTS + ["\t", "1e4001", "-2", "1/3", "nan", "(a", "b)", "d"]
# inputs that found a defect, run whatever the seed draws: a --float value
# beyond float range raised OverflowError, when --float read floats
FLOAT_FOUND = [("trivial.wcfg", "S -> a [1e400]\n")]
CORPUS_FOUND = [("1e4001\t(a b)\n2\t(a a)\n", BASE_TREES)]


def sources():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.wcfg"))}
    for name in ("trivial", "smalldup", "colinearity3"):
        texts[f"{name}.mta"] = format_mta(wcfg_to_pmta(load_wcfg(FIXTURES / f"{name}.wcfg")))
    return texts


def mutate(rng, text, inserts=INSERTS):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.35:
            text = text[:i] + text[i + 1:]
        elif op < 0.6:
            text = text[:i] + text[rng.randint(i, min(len(text), i + 40)):]
        else:
            text = text[:i] + rng.choice(inserts) + text[i:]
    return text


def mutations():
    texts = sources()
    for name, old, new in FOUND:
        assert old in texts[name]
        yield name, texts[name].replace(old, new)
    rng = random.Random(SEED)
    for _ in range(MUTATIONS):
        name = rng.choice(sorted(texts))
        yield name, mutate(rng, texts[name])


class RunTooLong(Exception):
    pass


def on_alarm(signum, frame):
    raise RunTooLong()


def run(args):
    """cli.main's exit code, or the exception it raised, with its output
    swallowed and an alarm after RUN_SECONDS."""
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([str(a) for a in args])
    except (Exception, SystemExit) as exc:  # report it; do not end the run
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
def test_mutated_fixtures_exit_with_a_documented_code(tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_text("(AcrR ((AcrA AcrB) TolC))\n((a a) a)\n(a (a a))\nFimA\n", encoding="utf-8")
    rng = random.Random(SEED)
    failures = []
    for case, (name, text) in enumerate(mutations()):
        path = tmp_path / f"m{case}"
        path.write_text(text, encoding="utf-8")
        convert = rng.choice(["--wcfg-to-pmta", "--wcfg-to-pcfg", "--pmta-to-wcfg"])
        for args in (["eval", path, "--trees", trees],
                     ["eval", FIXTURES / "acrab.wcfg", "--trees", path],
                     ["convert", path, convert],
                     ["learn", "--target", path, "--max-iterations", "40", "--max-leaves", "3",
                      "--out", tmp_path / "out"],
                     ["trees", path, *rng.choice([[], ["--against", "((AcrA AcrB) TolC)"]])]):
            code = run(args)
            if code not in EXIT_CODES:
                failures.append((name, text, args[0], repr(code)))
    assert not failures, failures[:3]


def float_and_corpus_mutations():
    """(fixture name, mutated model text) pairs, then (corpus text, base-tree
    text) pairs with one of the two mutated."""
    rng = random.Random(FLOAT_SEED)
    texts = sources()
    models = list(FLOAT_FOUND)
    for _ in range(FLOAT_MUTATIONS):
        name = rng.choice(sorted(texts))
        models.append((name, mutate(rng, texts[name])))
    corpora = list(CORPUS_FOUND)
    for _ in range(CORPUS_MUTATIONS):
        if rng.random() < 0.5:
            corpora.append((mutate(rng, CORPUS, CORPUS_INSERTS), BASE_TREES))
        else:
            corpora.append((CORPUS, mutate(rng, BASE_TREES, CORPUS_INSERTS)))
    return rng, models, corpora


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
def test_mutated_float_and_corpus_inputs_exit_with_a_documented_code(tmp_path):
    rng, models, corpora = float_and_corpus_mutations()
    cases = []
    for case, (name, text) in enumerate(models):
        path, trees = tmp_path / f"m{case}", tmp_path / f"t{case}.txt"
        path.write_text(text, encoding="utf-8")
        # each leaf of the fixture, and a pair of them
        leaves = load_wcfg(FIXTURES / f"{name.split('.')[0]}.wcfg").terminals
        trees.write_text("".join(f"{t}\n" for t in leaves) + f"({leaves[0]} {leaves[-1]})\n",
                         encoding="utf-8")
        convert = rng.choice(["--wcfg-to-pmta", "--wcfg-to-pcfg", "--pmta-to-wcfg"])
        cases += [["eval", path, "--trees", trees],
                  ["convert", path, convert, "--float"],
                  ["learn", "--target", path, "--max-iterations", "40", "--max-leaves", "3",
                   "--float", "--out", tmp_path / "out"]]
    for case, (corpus_text, base_text) in enumerate(corpora):
        corpus, base = tmp_path / f"c{case}.tsv", tmp_path / f"b{case}.txt"
        corpus.write_text(corpus_text, encoding="utf-8")
        base.write_text(base_text, encoding="utf-8")
        seq = rng.choice([["--seq", "duplications", "--max-dup", "1", "--base-trees", base],
                          ["--seq", "trees", "--max-leaves", "3"]])
        floats = ["--float"] if case < len(CORPUS_FOUND) else rng.choice([[], ["--float"]])
        distance = rng.choice(["swap", "duplication"])
        cases.append(["learn", "--target", corpus, "--distance", distance, *seq, *floats,
                      "--max-iterations", "40", "--out", tmp_path / "out"])
    failures = [(args, repr(code)) for args in cases if (code := run(args)) not in EXIT_CODES]
    assert not failures, failures[:3]
