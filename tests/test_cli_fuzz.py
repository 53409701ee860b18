"""Seeded mutations of the fixture files through every CLI subcommand.

Each mutation deletes characters, cuts spans or inserts tokens that the
readers treat specially into a fixture grammar, or into the `.mta` form of
one, and the result goes through `eval` (as the model and as the trees
file), `convert`, `learn` (cap 40) and `trees`, called in-process.  Every
run must return a documented exit code and raise nothing; a run that takes
longer than RUN_SECONDS fails too.
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


def sources():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.wcfg"))}
    for name in ("trivial", "smalldup", "colinearity3"):
        texts[f"{name}.mta"] = format_mta(wcfg_to_pmta(load_wcfg(FIXTURES / f"{name}.wcfg")))
    return texts


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.35:
            text = text[:i] + text[i + 1:]
        elif op < 0.6:
            text = text[:i] + text[rng.randint(i, min(len(text), i + 40)):]
        else:
            text = text[:i] + rng.choice(INSERTS) + text[i:]
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
