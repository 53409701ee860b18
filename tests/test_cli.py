import hashlib
import json
import os
import re
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from skelgram.cli import main
from skelgram.geneclusters import right_chain
from skelgram.grammar import WCFG, load_wcfg, parse_wcfg, format_wcfg
from skelgram.mta import parse_mta
from skelgram.scalars import parse_scalar
from skelgram.teacher import CorpusOracle, load_corpus
from skelgram.trees import (Leaf, Node, RankedAlphabet, enumerate_full_trees,
                            parse_structured_string)

from conftest import FIXTURES, with_weights


def run(args):
    return main([str(a) for a in args])


def child_env():
    """The environment for a child Python that imports skelgram from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_learn_trivial_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run(["learn", "--target", FIXTURES / "trivial.wcfg",
                "--seq", "trees", "--max-leaves", "3", "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["basis_size"] == 1
    assert report["seq_count"] == 1
    assert set(report) >= {"seq_count", "smq_count", "basis_size", "wall_time_ms"}
    assert (out / "hypothesis.mta").exists()
    assert (out / "hypothesis.wcfg").exists()
    assert (out / "hypothesis.pcfg").exists()


def test_learn_missing_file_exits_2(tmp_path):
    code = run(["learn", "--target", tmp_path / "nope.wcfg", "--out", tmp_path / "o"])
    assert code == 2


def test_learn_takes_no_margin(tmp_path, capsys):
    # a margin once made fimacd scanned, and the trees scan, which weighs no
    # tree with a unary root, certified the zero automaton
    with pytest.raises(SystemExit) as exited:
        run(["learn", "--target", FIXTURES / "fimacd.wcfg", "--epsilon", "0.001",
             "--out", tmp_path / "o"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --epsilon 0.001" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_learn_cap_breach_exits_3(tmp_path):
    code = run(["learn", "--target", FIXTURES / "chain.wcfg", "--seq", "trees",
                "--max-leaves", "5", "--max-iterations", "30",
                "--out", tmp_path / "o"])
    assert code == 3


@pytest.mark.parametrize("q", ["0.001", "0.0001"])
def test_learn_float_small_decay_weighs_every_corpus_tree_as_the_exact_learn(tmp_path, q):
    # learned in floats, the cells of ((x x) (x x)) fell below a 1e-9
    # tolerance, and its row matched two basis rows: a TableError (exit 4)
    corpus, base = tmp_path / "corpus.tsv", tmp_path / "base.txt"
    corpus.write_text(PINNED_CORPUS, encoding="utf-8")
    base.write_text(PINNED_BASE_TREES, encoding="utf-8")
    outs = {}
    for flags in ([], ["--float"]):
        out = outs[bool(flags)] = tmp_path / f"o{len(flags)}"
        assert run(["learn", "--target", corpus, "--distance", "duplication", *flags,
                    "--q", q, "--seq", "duplications", "--base-trees", base,
                    "--max-dup", "1", "--dump-table", "--out", out]) == 0
    assert_float_files(outs[False], outs[True])
    report = json.loads((outs[True] / "report.json").read_text())
    assert (report["basis_size"], report["seq_count"], report["smq_count"]) == (11, 5, 1805)
    oracle = CorpusOracle(load_corpus(corpus)[0], Fraction(q), "duplication")
    hypothesis = parse_mta((outs[False] / "hypothesis.mta").read_text())
    for tree, _ in oracle.corpus:
        assert hypothesis.eval(tree) == oracle.smq(tree), tree.text


def test_learn_counterexample_the_table_contradicts_exits_4(tmp_path, capsys, monkeypatch):
    from skelgram.teacher import SimulatedTeacher

    def misreporting_seq(teacher, hypothesis):
        tree = Leaf("AcrA")  # every leaf's row agrees at the identity column
        return tree, hypothesis.eval(tree) + 1

    monkeypatch.setattr(SimulatedTeacher, "seq", misreporting_seq)
    code = run(["learn", "--target", FIXTURES / "acrab.wcfg", "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: counterexample AcrA calls for no new column")
    assert err.count("\n") == 1


def test_convert_refuses_an_automaton_too_large_to_write(tmp_path):
    """format_mta writes d**(k+1) coefficients for each rank k, zeros
    included: one rank-6 rule gives acrab's automaton (d=17) about 4e8.
    The convert runs in a child process with a 10 s timeout and a 1 GB
    address-space limit, so a writer that tries again fails the test, not
    the host."""
    grammar = tmp_path / "rank6.wcfg"
    grammar.write_text((FIXTURES / "acrab.wcfg").read_text(encoding="utf-8")
                       + "S -> N3 R N1 R N5 C [0.004]\n", encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run([sys.executable, "-m", "skelgram.cli", "convert", str(grammar),
                           "--wcfg-to-pmta"], env=child_env(), capture_output=True, text=True,
                          timeout=10, preexec_fn=limit_memory)
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("error: the automaton's .mta form would hold 435984822 "
                           "coefficients (d=17, p=6), more than 10000000\n")


def test_learn_hypothesis_too_large_to_write_exits_4(tmp_path, capsys, monkeypatch):
    # smalldup learns 2 states: 2**2 + 2**3 = 12 coefficients
    monkeypatch.setattr("skelgram.mta.MAX_DENSE_COEFFICIENTS", 11)
    code = run(["learn", "--target", FIXTURES / "smalldup.wcfg", "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == ("error: the automaton's .mta form would hold 12 coefficients "
                   "(d=2, p=2), more than 11\n")
    assert not (tmp_path / "o" / "hypothesis.mta").exists()


@pytest.mark.parametrize("flag, value, floor", [
    ("--max-leaves", "0", 1),
    ("--max-len", "0", 1),
    ("--count", "0", 1),
    ("--max-dup", "-1", 0),
    ("--max-iterations", "-5", 0),
])
def test_learn_rejects_degenerate_bounds_exits_2(tmp_path, capsys, flag, value, floor):
    # such bounds let SEQ scan no candidate, so the learner would certify
    # whatever the table gives; they are refused when arguments are parsed
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(["learn", "--target", FIXTURES / "acrab.wcfg", flag, value, "--out", out])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {floor}, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_learn_accepts_zero_duplications_and_iterations(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("(a (a a))\n", encoding="utf-8")
    assert run(["learn", "--target", FIXTURES / "smalldup.wcfg", "--seq", "duplications",
                "--base-trees", base, "--max-dup", "0", "--out", tmp_path / "o"]) == 0
    assert run(["learn", "--target", FIXTURES / "smalldup.wcfg", "--max-iterations", "0",
                "--out", tmp_path / "o"]) == 3


def test_learn_deterministic(tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run(["learn", "--target", FIXTURES / "smalldup.wcfg",
                    "--seq", "trees", "--max-leaves", "4", "--out", out]) == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("wall_time_ms")
        outs.append((payload, (out / "hypothesis.wcfg").read_text()))
    assert outs[0] == outs[1]


def test_eval_most_probable_tree(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    trees.write_text("(AcrR ((AcrA AcrB) TolC))\n(AcrR AcrR)\n", encoding="utf-8")
    code = run(["eval", FIXTURES / "acrab.wcfg", "--trees", trees])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["0.456", "(AcrR ((AcrA AcrB) TolC))"]
    assert lines[1].split("\t")[0] == "0"


def test_eval_long_chain(tmp_path, capsys):
    chain = right_chain("a", 2000)
    trees = tmp_path / "chain.txt"
    trees.write_text(chain.text + "\n", encoding="utf-8")
    assert run(["eval", FIXTURES / "smalldup.wcfg", "--trees", trees]) == 0
    # 4/5 * (1/5)^1998 underflows to 0 as a float; printed from the exact value
    assert capsys.readouterr().out == f"2.29626139055e-1397\t{chain.text}\n"


def test_eval_malformed_line_reports_lineno(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    trees.write_text("(AcrR ((AcrA AcrB) TolC))\n(AcrR (AcrA)\n", encoding="utf-8")
    code = run(["eval", FIXTURES / "acrab.wcfg", "--trees", trees])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["mta d=2", "mta p=2"])
def test_eval_automaton_header_without_d_or_p_exits_2(tmp_path, capsys, header):
    model = tmp_path / "m.mta"
    model.write_text(header + "\n", encoding="utf-8")
    assert run(["eval", model, "--trees", model]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_exact_weight_beyond_float_range_fails_normalization(tmp_path, capsys):
    # one quadratic equation is solved exactly, and this one has no real
    # root; a larger nonlinear component is solved in floats
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> S S [1e400]\nS -> a [1/3]\n", encoding="utf-8")
    assert run(["convert", grammar, "--wcfg-to-pcfg"]) == 4
    assert "partition function diverges" in capsys.readouterr().err
    assert run(["learn", "--target", grammar, "--out", tmp_path / "o"]) == 0
    assert "warning: PCFG normalization failed" in capsys.readouterr().err
    system = tmp_path / "system.wcfg"
    system.write_text("S -> S A [1e400]\nS -> a [1/3]\nA -> S [1/3]\n", encoding="utf-8")
    assert run(["convert", system, "--wcfg-to-pcfg"]) == 4
    assert "float" in capsys.readouterr().err


@pytest.mark.parametrize("reader, literal", [("grammar", "1e400"), ("mta", "1e400"),
                                             ("corpus", "1e4001")])
def test_float_literal_beyond_float_range_is_read_exactly(tmp_path, capsys, reader, literal):
    # --float once read it as a float, and exited 2 naming it; now every
    # reader reads it exactly, and --float only prints
    model = tmp_path / "m"
    trees = tmp_path / "t.txt"
    trees.write_text("(a a)\n", encoding="utf-8")
    if reader == "grammar":
        model.write_text(f"S -> a [{literal}]\nS -> S S [1/3]\n", encoding="utf-8")
    elif reader == "mta":
        model.write_text(f"mta d=1 p=2\nlambda: 1\nleaf a: {literal}\nrank 1:\n  0\n"
                         "rank 2:\n  0\n", encoding="utf-8")
    else:
        model.write_text(f"{literal}\t(a b)\n2\t(a a)\n", encoding="utf-8")
    runs = ([["learn", "--target", model, "--distance", "duplication"]] if reader == "corpus"
            else [["learn", "--target", model], ["eval", model, "--trees", trees],
                  ["convert", model, "--wcfg-to-pcfg" if reader == "grammar"
                   else "--pmta-to-wcfg"]])
    for args in runs:
        if args[0] == "learn":
            args += ["--out", tmp_path / "o"]
        code = run(args)
        exact_out = capsys.readouterr().out
        if args[0] == "eval":
            assert code == 0, args
            continue
        assert run(args + ["--float"]) == code, args
        float_out, err = capsys.readouterr()
        assert "beyond float range" not in err
        if args[0] == "convert" and reader == "mta":
            assert code == 0 and "S -> a [1e+400]" in float_out, float_out
            assert "S -> a [1" + "0" * 400 + "]" in exact_out


def test_exact_eval_prints_a_weight_beyond_float_range(tmp_path, capsys):
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> a [1e400]\nS -> S S [1/3]\n", encoding="utf-8")
    trees = tmp_path / "t.txt"
    trees.write_text("a\n(a a)\n", encoding="utf-8")
    assert run(["eval", grammar, "--trees", trees]) == 0
    assert capsys.readouterr().out == f"{10 ** 400}\ta\n3.33333333333e+799\t(a a)\n"


def test_eval_prints_an_integer_weight_python_cannot_write(tmp_path, capsys):
    # 10**5000 has 5,001 digits, beyond sys.get_int_max_str_digits()'s 4,300
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> a [1e5000]\nS -> S S [1/3]\n", encoding="utf-8")
    trees = tmp_path / "t.txt"
    trees.write_text("a\n(a a)\n", encoding="utf-8")
    assert run(["eval", grammar, "--trees", trees]) == 0
    assert capsys.readouterr().out == "1e+5000\ta\n3.33333333333e+9999\t(a a)\n"


def test_eval_prints_a_weight_beyond_float_range_without_trailing_zeros(tmp_path, capsys):
    # (10**400 + 1) / 2 rounds to 5e+399 at 12 digits, as (10**291 + 1) / 2 prints 5e+290
    grammar = tmp_path / "g.wcfg"
    grammar.write_text(f"S -> a [{10 ** 400 + 1}/2]\nS -> b [{10 ** 291 + 1}/2]\n",
                       encoding="utf-8")
    trees = tmp_path / "t.txt"
    trees.write_text("a\nb\n", encoding="utf-8")
    assert run(["eval", grammar, "--trees", trees]) == 0
    assert capsys.readouterr().out == "5e+399\ta\n5e+290\tb\n"


def test_eval_prints_a_weight_below_float_range(tmp_path, capsys):
    # smalldup weighs a right chain of n leaves 4/5 * (1/5)^(n-2): 8.3e-419 at
    # n = 600, where float() gives 0.0; 1/(3*10^320) is a subnormal float
    # that holds fewer than the 12 digits printed
    trees = tmp_path / "t.txt"
    trees.write_text(right_chain("a", 600).text + "\n", encoding="utf-8")
    automaton = tmp_path / "smalldup.mta"
    assert run(["convert", FIXTURES / "smalldup.wcfg", "--wcfg-to-pmta",
                "--output", automaton]) == 0
    capsys.readouterr()
    for model in (FIXTURES / "smalldup.wcfg", automaton):
        assert run(["eval", model, "--trees", trees]) == 0
        assert capsys.readouterr().out.split("\t")[0] == "8.29903113776e-419"
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> a [1e-320]\nS -> S [1/3]\nS -> a a [-1e-320]\n", encoding="utf-8")
    trees.write_text("(a)\n(a a)\n", encoding="utf-8")
    assert run(["eval", grammar, "--trees", trees]) == 0
    assert capsys.readouterr().out == "3.33333333333e-321\t(a)\n-1e-320\t(a a)\n"


@pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
def test_convert_names_the_digits_of_a_weight_python_cannot_write(tmp_path, capsys, literal):
    grammar = tmp_path / "g.wcfg"
    grammar.write_text(f"S -> a [{literal}]\n", encoding="utf-8")
    assert run(["convert", grammar, "--wcfg-to-pmta"]) == 4
    assert "a weight with 5001 digits" in capsys.readouterr().err
    automaton = tmp_path / "m.mta"
    automaton.write_text(f"mta d=1 p=1\nlambda: 1\nleaf a: {literal}\nrank 1:\n  0\n",
                         encoding="utf-8")
    assert run(["convert", automaton, "--pmta-to-wcfg"]) == 4
    assert "a weight with 5001 digits" in capsys.readouterr().err


def test_learn_names_the_digits_of_a_weight_python_cannot_write(tmp_path, capsys):
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> a [1e5000]\n", encoding="utf-8")
    assert run(["learn", "--target", grammar, "--out", tmp_path / "o"]) == 4
    assert "a weight with 5001 digits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "convert", "learn"])
def test_automaton_with_tokenless_leaf_line_exits_2(tmp_path, capsys, command):
    model = tmp_path / "m.mta"
    model.write_text("mta d=1 p=1\nlambda: 1\nleaf : 0\nrank 1:\n  1\n", encoding="utf-8")
    args = {"eval": ["eval", model, "--trees", model],
            "convert": ["convert", model, "--pmta-to-wcfg"],
            "learn": ["learn", "--target", model, "--out", tmp_path / "o"]}[command]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "line 'leaf : 0' names no leaf token" in err


@pytest.mark.parametrize("rows, message", [
    ("  0 1\n", "rank 1: expected 2 rows, got 1"),
    ("  0 1\n  1 0\n  1 1\n", "rank 1: expected 2 rows, got 3"),
    ("  0 1\n  1\n", "coefficient matrix must be 2 x 2"),
    ("  0 1\n  1 0 1\n", "coefficient matrix must be 2 x 2"),
])
def test_eval_automaton_with_malformed_rank_rows_exits_2(tmp_path, capsys, rows, message):
    model = tmp_path / "m.mta"
    model.write_text("mta d=2 p=1\nlambda: 1 0\nleaf a: 1 0\nrank 1:\n" + rows,
                     encoding="utf-8")
    assert run(["eval", model, "--trees", model]) == 2
    assert capsys.readouterr().err == f"error: cannot parse {model}: {message}\n"


def test_eval_max_rank_zero_exits_2(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    trees.write_text("(AcrR AcrR)\n", encoding="utf-8")
    assert run(["eval", FIXTURES / "acrab.wcfg", "--trees", trees,
                "--max-rank", "0"]) == 2
    assert "max_rank must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("max_rank", ["0", "1", "3"])
def test_eval_automaton_rejects_other_max_rank(tmp_path, capsys, max_rank):
    model, trees = tmp_path / "m.mta", tmp_path / "trees.txt"
    assert run(["convert", FIXTURES / "smalldup.wcfg", "--wcfg-to-pmta",
                "--output", model]) == 0
    trees.write_text("(a a)\n", encoding="utf-8")
    assert run(["eval", model, "--trees", trees, "--max-rank", max_rank]) == 2
    assert f"--max-rank {max_rank} differs from the automaton's p=2" in capsys.readouterr().err
    assert run(["eval", model, "--trees", trees, "--max-rank", "2"]) == 0
    assert capsys.readouterr().out == "0.8\t(a a)\n"


def test_learn_automaton_target_rejects_other_max_rank(tmp_path, capsys):
    model = tmp_path / "m.mta"
    assert run(["convert", FIXTURES / "smalldup.wcfg", "--wcfg-to-pmta",
                "--output", model]) == 0
    out = tmp_path / "out"
    assert run(["learn", "--target", model, "--seq", "trees", "--max-leaves", "3",
                "--max-rank", "1", "--out", out]) == 2
    assert "--max-rank 1 differs from the automaton's p=2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seq", ["exhaustive", "sampling", "duplications", "trees"])
def test_learn_candidate_strategies_refuse_max_rank_one(tmp_path, capsys, seq):
    # candidates have no unary nodes: at rank 1 the first three die part-way
    # through learning, and trees certifies a 1-state automaton; so a corpus,
    # which is scanned, refuses rank 1, and a grammar, decided exactly,
    # learns, its binary rule, which weighs no tree of rank 1, left out
    corpus, grammar, base = tmp_path / "c.tsv", tmp_path / "g.wcfg", tmp_path / "base.txt"
    corpus.write_text("4\ta\n2\tb\n", encoding="utf-8")
    grammar.write_text("S -> A [1/2]\nS -> a [1/4]\nA -> a [1/3]\nS -> A a [1]\n",
                       encoding="utf-8")
    base.write_text("a\n", encoding="utf-8")
    out = tmp_path / "out"
    flags = ["--max-rank", "1", "--seq", seq, "--base-trees", base, "--out", out]
    assert run(["learn", "--target", corpus, "--distance", "duplication", *flags]) == 2
    err = capsys.readouterr().err
    assert f"--seq {seq} needs --max-rank 2 or more" in err
    assert "only an automaton or grammar learns" in err
    assert not out.exists()
    assert run(["learn", "--target", grammar, *flags]) == 0
    assert json.loads((out / "report.json").read_text())["basis_size"] == 2


def test_convert_roundtrip_preserves_weights(tmp_path, capsys):
    mta_path = tmp_path / "m.mta"
    assert run(["convert", FIXTURES / "smalldup.wcfg", "--wcfg-to-pmta",
                "--output", mta_path]) == 0
    back = tmp_path / "g.wcfg"
    assert run(["convert", mta_path, "--pmta-to-wcfg", "--output", back]) == 0
    g0 = load_wcfg(FIXTURES / "smalldup.wcfg")
    g1 = load_wcfg(back)
    from skelgram.geneclusters import right_chain
    for n in range(2, 8):
        assert g0.skeletal_weight(right_chain("a", n)) == g1.skeletal_weight(right_chain("a", n))


def test_convert_rejects_negative_weights(tmp_path):
    bad = tmp_path / "bad.mta"
    bad.write_text("mta d=1 p=1\nlambda: 1\nleaf a: -1\nrank 1:\n  0\n",
                   encoding="utf-8")
    assert run(["convert", bad, "--pmta-to-wcfg", "--output", tmp_path / "x"]) == 4


def test_convert_divergent_normalization_exits_4(tmp_path):
    g = tmp_path / "g.wcfg"
    g.write_text("S -> S S [1]\nS -> a [1]\n", encoding="utf-8")
    assert run(["convert", g, "--wcfg-to-pcfg", "--output", tmp_path / "x"]) == 4


def test_convert_critical_pcfg_is_itself(tmp_path):
    grammar = tmp_path / "critical.wcfg"
    grammar.write_text("start: S\nS -> S S [1/2]\nS -> a [1/2]\n", encoding="utf-8")
    out = tmp_path / "as_pcfg.wcfg"
    assert run(["convert", grammar, "--wcfg-to-pcfg", "--output", out]) == 0
    assert out.read_text() == grammar.read_text()


def test_convert_normalized_pcfg_is_byte_identical(tmp_path):
    canonical = tmp_path / "acrab_canonical.wcfg"
    canonical.write_text(format_wcfg(load_wcfg(FIXTURES / "acrab.wcfg")),
                         encoding="utf-8")
    out = tmp_path / "as_pcfg.wcfg"
    assert run(["convert", canonical, "--wcfg-to-pcfg", "--output", out]) == 0
    assert out.read_text() == canonical.read_text()


def test_convert_requires_one_mode(tmp_path):
    assert run(["convert", FIXTURES / "smalldup.wcfg"]) == 2
    assert run(["convert", FIXTURES / "smalldup.wcfg",
                "--wcfg-to-pmta", "--wcfg-to-pcfg"]) == 2


def test_trees_command_parses_runs(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("a a a\n", encoding="utf-8")
    assert run(["trees", strings]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split("\t")[1] == "(a (a a))"


def test_trees_command_empty_corpus(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("", encoding="utf-8")
    assert run(["trees", strings]) == 0
    assert capsys.readouterr().out == ""


def test_trees_command_distance_mode(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("a a a\na a\n", encoding="utf-8")
    assert run(["trees", strings, "--distance", "duplication",
                "--against", "(a (a (a a)))"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t")[0] == "1"
    assert lines[1].split("\t")[0] == "2"


@pytest.mark.parametrize("line", ["a(b c", "a <> c"])
def test_trees_command_rejects_bad_tokens(tmp_path, capsys, line):
    strings = tmp_path / "strings.txt"
    strings.write_text(f"a b\n{line}\n", encoding="utf-8")
    assert run(["trees", strings]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad leaf symbol" in captured.err


def test_trees_command_ignores_a_frequency_prefix(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("3\ta a b\n  1\tb a \n", encoding="utf-8")
    assert run(["trees", strings]) == 0
    plain = capsys.readouterr().out
    strings.write_text("a a b\nb a\n", encoding="utf-8")
    assert run(["trees", strings]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("line", ["3\t", "3\t  ", " 3\t"])
def test_trees_command_rejects_a_frequency_without_a_string(tmp_path, capsys, line):
    # the frequency is split off before the line is stripped, so `3<TAB>`
    # is not read as the gene string `3`
    strings = tmp_path / "strings.txt"
    strings.write_text(f"a b\n# note\n{line}\nb a\n", encoding="utf-8")
    assert run(["trees", strings]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err


def test_trees_command_swap_distance_long_run(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("a " * 1500 + "\n", encoding="utf-8")
    chain = right_chain("a", 1500).text
    assert run(["trees", strings, "--distance", "swap", "--against", chain]) == 0
    assert capsys.readouterr().out == f"0\t{chain}\n"


def test_exact_learn_of_acrab_ignores_a_string_strategy(tmp_path):
    """A grammar target's SEQ is exact, so `--seq exhaustive` builds no
    strategy: the efflux-pump grammar is learned exactly and recovers a
    PCFG whose most probable 4-leaf tree scores 0.456."""
    out = tmp_path / "out"
    code = run(["learn", "--target", FIXTURES / "acrab.wcfg",
                "--seq", "exhaustive", "--max-len", "4", "--out", out])
    assert code == 0
    pcfg = load_wcfg(out / "hypothesis.pcfg")
    from skelgram.trees import enumerate_full_trees
    four_leaf = enumerate_full_trees(pcfg.terminals, 4)
    best = max(four_leaf, key=pcfg.skeletal_weight)
    assert pcfg.skeletal_weight(best) == Fraction(456, 1000)
    assert best.text == "(AcrR ((AcrA AcrB) TolC))"


def test_learn_dump_table(tmp_path):
    out = tmp_path / "out"
    assert run(["learn", "--target", FIXTURES / "trivial.wcfg",
                "--seq", "trees", "--max-leaves", "2", "--out", out,
                "--dump-table"]) == 0
    dump = (out / "table.tsv").read_text()
    assert dump.splitlines()[0].lstrip("\t").startswith("<>")


def test_learn_from_corpus_target(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("4\t(x (x x))\n1\t(x (x (x x)))\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(["learn", "--target", corpus, "--distance", "duplication",
                "--q", "0.2", "--seq", "trees", "--max-leaves", "4",
                "--out", out, "--max-iterations", "200"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["basis_size"] >= 1


def test_learn_float_backend(tmp_path):
    out = tmp_path / "out"
    code = run(["learn", "--target", FIXTURES / "smalldup.wcfg", "--float",
                "--seq", "trees", "--max-leaves", "4", "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["basis_size"] == 2
    # the printed floats, read exactly, sum to 1 as floats
    pcfg = with_weights(load_wcfg(out / "hypothesis.pcfg"), float)
    assert pcfg.is_normalized()


def test_learn_duplications_missing_base_trees_exits_2(tmp_path):
    # a corpus is scanned, which needs the base trees
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(PINNED_CORPUS, encoding="utf-8")
    code = run(["learn", "--target", corpus, "--distance", "duplication",
                "--seq", "duplications", "--base-trees", tmp_path / "missing.txt",
                "--out", tmp_path / "o"])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_learn_from_automaton_target(tmp_path):
    # learn back a hypothesis automaton written by a previous run
    first = tmp_path / "first"
    assert run(["learn", "--target", FIXTURES / "smalldup.wcfg",
                "--seq", "trees", "--max-leaves", "4", "--out", first]) == 0
    second = tmp_path / "second"
    assert run(["learn", "--target", first / "hypothesis.mta",
                "--seq", "trees", "--max-leaves", "4", "--out", second]) == 0
    r1 = json.loads((first / "report.json").read_text())
    r2 = json.loads((second / "report.json").read_text())
    assert r1["basis_size"] == r2["basis_size"]
    assert (second / "hypothesis.wcfg").read_text() == (first / "hypothesis.wcfg").read_text()


def test_learn_fimacd_exactly(tmp_path, capsys):
    # no trees candidate has non-zero fimacd weight (every S rule is unary),
    # so a scan would certify the zero automaton; the exact check does not
    from skelgram.equivalence import difference_witness
    from skelgram.grammar import wcfg_to_pcfg, wcfg_to_pmta
    out = tmp_path / "out"
    assert run(["learn", "--target", FIXTURES / "fimacd.wcfg", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert (report["basis_size"], report["seq_count"], report["smq_count"]) == (31, 11, 14506)
    learned = load_wcfg(out / "hypothesis.pcfg")
    target = wcfg_to_pcfg(load_wcfg(FIXTURES / "fimacd.wcfg"))
    # the file lists terminals as its rules first use them; read them in
    # the target's order, so both automata share one alphabet
    assert sorted(learned.terminals) == sorted(target.terminals)
    learned = WCFG(learned.nonterminals, target.terminals, learned.weights)
    assert difference_witness(wcfg_to_pmta(learned, 2), wcfg_to_pmta(target, 2)) is None


def test_learn_exact_from_automaton_target(tmp_path):
    from skelgram.equivalence import difference_witness
    from skelgram.mta import parse_mta
    first = tmp_path / "first"
    assert run(["learn", "--target", FIXTURES / "acrab.wcfg", "--out", first]) == 0
    second = tmp_path / "second"
    assert run(["learn", "--target", first / "hypothesis.mta", "--out", second]) == 0
    assert (second / "hypothesis.wcfg").read_text() == (first / "hypothesis.wcfg").read_text()
    learned, target = (parse_mta((out / "hypothesis.mta").read_text()) for out in (second, first))
    assert difference_witness(learned, target) is None


def test_learn_exact_on_chain_reaches_the_cap(tmp_path):
    assert run(["learn", "--target", FIXTURES / "chain.wcfg",
                "--max-iterations", "40", "--out", tmp_path / "o"]) == 3


def test_learn_on_chain_ends_at_the_default_cap(tmp_path):
    """Chain has no finite co-linear rank, and its rows grow as |T|^2.  With
    no cap flag its table stops at table.MAX_ROWS rows: exit 3 in
    under 30 s and 400 MB (about 3 s and 180 MB on a 2-core x86-64 host),
    where it once ran out of memory before the iteration cap.  The learn
    runs in a child process, which prints its own peak resident memory
    (ru_maxrss, in KiB on Linux)."""
    script = ("import resource, sys\n"
              "from skelgram.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script, "learn", "--target",
                           str(FIXTURES / "chain.wcfg"), "--out", str(tmp_path / "o")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert time.monotonic() - started < 30
    assert done.stderr == ("error: row cap 50000 exceeded; "
                           "target may not have finite co-linear rank\n")
    assert int(done.stdout) < 400 * 1024
    assert not (tmp_path / "o").exists()


def test_learn_rejects_non_binary_corpus_tree_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("4\t(x (x x))\n1\t((x x))\n", encoding="utf-8")
    code = run(["learn", "--target", corpus, "--distance", "duplication",
                "--seq", "trees", "--max-leaves", "3", "--out", tmp_path / "o"])
    assert code == 2
    assert "cannot load corpus:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_learn_writes_pcfg_when_float_weights_round_above_one(tmp_path, capsys):
    # The learned grammar's partition function is irrational (V2 and V5 solve
    # z = c + k z^2), so its normalized weights are floats, which
    # is_normalized must accept as they round.
    corpus, base = tmp_path / "corpus.tsv", tmp_path / "base.txt"
    corpus.write_text("5\t(a (b c))\n3\t((a a) (b c))\n2\t(a (c b))\n1\t((a b) c)\n",
                      encoding="utf-8")
    base.write_text("(a (b c))\n(a (c b))\n((a b) c)\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["learn", "--target", corpus, "--distance", "duplication",
                "--seq", "duplications", "--base-trees", base, "--max-dup", "1",
                "--out", out]) == 0
    assert "PCFG normalization failed" not in capsys.readouterr().err
    pcfg = with_weights(load_wcfg(out / "hypothesis.pcfg"), float)
    assert pcfg.is_normalized()


# A fixed corpus, its base trees and gene strings, with the sha256 of every
# artifact `learn --seq duplications --max-dup 1 --dump-table` writes
# (report.json without wall_time_ms) and of the `trees --against` output,
# per distance, as printed before the distance helpers were made iterative,
# and of the plain `trees` output (scores and trees), as printed while the
# split search still looped over dicts in Python;
# the duplication hypothesis.pcfg as printed once a component of one
# quadratic equation came to be solved in closed form, correctly rounded:
# its V2 and V5 solve z = c + k z^2, whose least root is irrational.
# The learn digests were re-pinned when a counterexample came to add one
# separating column before its subtrees: swap keeps 9 states, 5 SEQs and
# 1,335 SMQs (its report.json digest is unchanged), duplication learns 11
# states (was 10) in 5 SEQs and 1,805 SMQs (was 1,561), and is right where
# the 10-state automaton was not, on (((x x) x) (y z)).
PINNED_CORPUS = "4\t((x y) (z z))\n2\t(x (y z))\n1\t((y x) z)\n1\t((x x) (y z))\n"
PINNED_BASE_TREES = "((x y) z)\n(x (y z))\n((y x) z)\n"
PINNED_GENES = "x y z z\nx x y z\ny x z z\nz z x y\nx y y z z\nz\nx y z\nz z z x\n"
PINNED_AGAINST = "((x y) (z z))"
PINNED_TREES_SHA256 = "51fb1ac6c8b973b849f0003460ff0d7d8fc463f4ac9b9bdd730b0bec18265e0b"
CORPUS_LEARN_SHA256 = {
    "swap": {
        "hypothesis.mta": "3f855f17bc01aeb61f45e38b407cd1d30c861e522831c5b04b2be919838b6191",
        "hypothesis.wcfg": "0323cfc532b3f4cb1a4cef6e651a1960a6d2cc297807d9873a7e1dec60eb1080",
        "hypothesis.pcfg": "06590e3e0d29e9a9e6c1d85dbd68025bf334e87b7ec8266932a44860449b2cef",
        "table.tsv": "4206a0f657492a421174e7d259956d42db2a06a8f07e7155c4311e371e764f9c",
        "report.json": "1e5237220e670acb48f6c9ab78167eae257f0269365d1138563b1abb1389c0ee",
        "trees --against": "6a85211fd913f302e442775f852df8f4a5d8d626f2132054b5a640b32ac22430",
    },
    "duplication": {
        "hypothesis.mta": "74c62038fddaa627ab83e446d8ef3cc0bfcb52a758d42188637b6c42e27ca734",
        "hypothesis.wcfg": "7f0c41d0574a436177c59cd37a2ee4bacc3c2d846fc0ee72fc5e6590e707c7e3",
        "hypothesis.pcfg": "456c9ce82745e484877e2bf0b4dc3710b2ea42e49680989ebdfdbf9b07b1ae23",
        "table.tsv": "d3f6d6e916bbc73fd3ac287200e91927ee28737765b608f8fbe52d1115a2a900",
        "report.json": "e2e5237ccaaf225ba5e175598c31d6baa742f32d6a8b69e6b9c8cfc652d05bd7",
        "trees --against": "bbcb950c7d1ada5c88db964a93c9be1e3ed75f83ad1b55c8fb03c0632897bea7",
    },
}


@pytest.mark.parametrize("distance", sorted(CORPUS_LEARN_SHA256))
def test_corpus_outputs_are_pinned(tmp_path, capsys, distance):
    corpus, base, genes = (tmp_path / "corpus.tsv", tmp_path / "base.txt",
                           tmp_path / "genes.txt")
    corpus.write_text(PINNED_CORPUS, encoding="utf-8")
    base.write_text(PINNED_BASE_TREES, encoding="utf-8")
    genes.write_text(PINNED_GENES, encoding="utf-8")
    out = tmp_path / "out"
    assert run(["learn", "--target", corpus, "--distance", distance,
                "--seq", "duplications", "--base-trees", base, "--max-dup", "1",
                "--dump-table", "--out", out]) == 0
    digests = _learn_digests(out)
    capsys.readouterr()
    assert run(["trees", genes, "--distance", distance,
                "--against", PINNED_AGAINST]) == 0
    out_text = capsys.readouterr().out
    digests["trees --against"] = hashlib.sha256(out_text.encode()).hexdigest()
    assert digests == CORPUS_LEARN_SHA256[distance]
    assert run(["trees", genes]) == 0
    out_text = capsys.readouterr().out
    assert hashlib.sha256(out_text.encode()).hexdigest() == PINNED_TREES_SHA256


def assert_float_text(exact, printed):
    """`printed` is `exact` with each weight w written as float(w), entry by
    entry; every other token is the same."""
    tokens, floats = re.findall(r"[^\s\[\]]+", exact), re.findall(r"[^\s\[\]]+", printed)
    assert len(tokens) == len(floats)
    for token, printed_token in zip(tokens, floats):
        try:
            value = parse_scalar(token)
        except ValueError:
            assert printed_token == token
        else:
            assert float(printed_token) == float(value), (token, printed_token)


def assert_float_files(exact, printed):
    """The artifacts of a `learn --dump-table` run with --float in `printed`
    are those of the run without it in `exact`, printed as floats, with the
    same report."""
    for name in ("hypothesis.mta", "hypothesis.wcfg", "hypothesis.pcfg", "table.tsv"):
        assert_float_text((exact / name).read_text(), (printed / name).read_text())
    reports = [json.loads((out / "report.json").read_text()) for out in (exact, printed)]
    for report in reports:
        report.pop("wall_time_ms", None)
    assert reports[0] == reports[1]


def _learn_digests(out):
    """sha256 of each artifact `learn --dump-table` wrote to out, with
    wall_time_ms taken out of report.json."""
    report = json.loads((out / "report.json").read_text())
    report.pop("wall_time_ms")
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("hypothesis.mta", "hypothesis.wcfg", "hypothesis.pcfg",
                         "table.tsv", "report.json")}


# sha256 of every artifact `learn --seq trees --max-leaves 4 --dump-table`
# writes on a grammar target, exact and with --float, as printed while the
# evaluator still stored dense subtree vectors.  The exact acrab and
# colinearity3 digests were re-pinned when exact targets stopped being
# scanned: their SEQs are answered by an exact witness, which finds other
# counterexamples (acrab: 13 states, 4 SEQs instead of 5).  The acrab and
# colinearity3 digests, exact and float, were re-pinned again when a
# counterexample came to add one separating column instead of its subtrees
# (exact acrab: 5 SEQs, 1,916 SMQs; colinearity3: 33 SMQs, was 55); the
# float learns scan, so their counterexamples' subtrees still join T (acrab
# --float: same 13 states, 5 SEQs and 3,240 SMQs, report.json unchanged).
# Exact fimacd (31 states, 11 SEQs, 14,506 SMQs), the learn whose witness
# searches and pullbacks do the most work, was pinned as its exact SEQ then
# printed: tree by tree, with one `apply` per coordinate per pullback level.
# The --float digests were re-pinned when --float came to print the exact
# learn's weights as floats, which the test also checks entry by entry:
# acrab --float now asks the exact learn's 1,916 SMQs, and fimacd --float
# learns its 31 states where a float scan certified the zero automaton.
GRAMMAR_LEARN_SHA256 = {
    "acrab": {
        "hypothesis.mta": "57fefe789093cab798bc4301086cd7175ab59a778c646c5fc02a450fd278d7a8",
        "hypothesis.wcfg": "a99d723ddd3360967884e47b5c9742eb4e16613cca075e9b285865df7c5eddf3",
        "hypothesis.pcfg": "bec8145cf0352f2ad6eaf564fc06ab1fd4b6af3a95f13dd25f61d45e382b4db9",
        "table.tsv": "d5b02935108b435d3cabe4981286b4e7a94bcae7aa446f9f4aaa8dc8872fb9b9",
        "report.json": "96aee24b8cc93b77d213efdfe775389981091c73f7dbfe3ba40cad238c8af118"
    },
    "acrab --float": {
        "hypothesis.mta": "3671c0899ca353dbbea77128f8c349ad0aa29e72b316d3bbc87d1bb7b2e3d31b",
        "hypothesis.wcfg": "326995aa5734e7aa6f4c3ce00095ea332c53f5b51e34c459ba4abd01dcfeef2c",
        "hypothesis.pcfg": "068c8402f802ae7b97ed29af6eecc7be4f930c817c2d008a62bb3b33d01a203c",
        "table.tsv": "7ec8e019dd5e23cab2ff7decbb64d82177080d4c8c5b349982a91402f5feab62",
        "report.json": "96aee24b8cc93b77d213efdfe775389981091c73f7dbfe3ba40cad238c8af118"
    },
    "colinearity3": {
        "hypothesis.mta": "3325a738ebaba4cc6c2ad45e59e10647d8780084feaeb10df4421c2cf0b84987",
        "hypothesis.wcfg": "3119bc4d9ed36041f587c5de6de981a16291f5e439b9cd100c33abddb9407ead",
        "hypothesis.pcfg": "91a7c88af9c6643c8a915d45f504c1fd48bbd893102ca3256ad06f6e97cc4c46",
        "table.tsv": "0b16252a0c9b5bc303e2ee41004710a4337216a210d94a74d67e9a00270f2c5b",
        "report.json": "cda011053359fd8269214653e837064b65a48171e6806a73dde7a25548e3a078"
    },
    "colinearity3 --float": {
        "hypothesis.mta": "17f4daf71127f1459094ffdbae247fb8f5d739064def256b95d331892dc6feb4",
        "hypothesis.wcfg": "bb0ff40cf2723400a8568a2a4da10f225f3dfdb29d2a226b684f0fd4d96ca9ef",
        "hypothesis.pcfg": "3f2bb14dc3563d3255bb171914bcbae8777cc72a97568a9d39dfd27aa09e1912",
        "table.tsv": "9ee790d4b934553220071cf79f61d728392630f832373fec2ad3f9fc7d4acdac",
        "report.json": "cda011053359fd8269214653e837064b65a48171e6806a73dde7a25548e3a078"
    },
    "fimacd": {
        "hypothesis.mta": "c1ec3d833984786b054e3d9bf8b5e55d2fc584aecede8585c2d4e1eea872510f",
        "hypothesis.wcfg": "a5469ff4cd75c44ed2debb62ef0ac2f2c0488fab8c8cf26cc3a9a10027cd883d",
        "hypothesis.pcfg": "9d2e7f3037a71c1957ef086538773740d40a58831a2d4c2d0ad95c6ba8b89416",
        "table.tsv": "13fe8d064ac1574b778fcb08e39315811a6e882d6b0517cbdbc4a449373b879f",
        "report.json": "c7650d1d48c165958bdf06cb35925ff62b9e200e0b13c24cd6648e8f76f71fd6"
    },
    "fimacd --float": {
        "hypothesis.mta": "0d70425475979fbad42b838547ff247a68faf54a3cb84013a0c1e6d2e6a9387d",
        "hypothesis.wcfg": "143e4f1096a127b854bc955e9c01be19c7dbe0902c13a678a22e9339c639eb07",
        "hypothesis.pcfg": "3313150ef64ebc32645442324588989d20978dcdd807d73ecf9afb4151bef8fc",
        "table.tsv": "0d2c0b1d30b2af04bb5fb17869dde57626fa57cc8657a15908a413a92933992a",
        "report.json": "c7650d1d48c165958bdf06cb35925ff62b9e200e0b13c24cd6648e8f76f71fd6"
    },
    "smalldup": {
        "hypothesis.mta": "28e078f9a66d4c0dc9e3c71f846c73b84c27a641fe3859cf0d9eb56b5dec93a4",
        "hypothesis.wcfg": "4172824a8eed173ee10fbe92421f0bcaa0c7f2731870deddfcefb893ca0778c8",
        "hypothesis.pcfg": "ad72a17ad01d023fbffaf4124f807812504469284ba9e837082d0fd5b4190269",
        "table.tsv": "8d38e5d3cb40269b1f9678f0e8fa0a83961f916d07ad7ecf94f496933936231b",
        "report.json": "8fa2e8cdc938568d43a79b80ccf95d48f5046827103b3c2721246776e593fd20"
    },
    "smalldup --float": {
        "hypothesis.mta": "4d19d856c3358ac99ebe0bdd867f1843e09888f93bb9de1dea299309f5496ed3",
        "hypothesis.wcfg": "7d8bf0554e4cad3f39d48366d0273a9e787c4dfb0c9bbf19de319810b14747b1",
        "hypothesis.pcfg": "6259fd060c61238ae8fd8dee4f74a79578ac404d4d7d62e929b4b9f633beb021",
        "table.tsv": "8cae3263aa74ae8494d910120184d1f7b20a1a6f2e373ce1698eef1ab37d3148",
        "report.json": "8fa2e8cdc938568d43a79b80ccf95d48f5046827103b3c2721246776e593fd20"
    },
    "trivial": {
        "hypothesis.mta": "b8359e08a30bbfffd839f19ac56b140f7b2675f1eff0633d7b551488be0c35e9",
        "hypothesis.wcfg": "fca1e98a634adb92e6f4baac50eb3412c1fe83ab9870c22a6a3fc55bc0ed3467",
        "hypothesis.pcfg": "fca1e98a634adb92e6f4baac50eb3412c1fe83ab9870c22a6a3fc55bc0ed3467",
        "table.tsv": "f29b0871480c4364b21e5e60586e2bc3fcfa338b52ef9c7069fbe39cc4b1ec40",
        "report.json": "2d59d42a1f7ff862079547d51c3be7e258bdf524b6b155cd1c5b82c4eb61b5b9"
    },
    "trivial --float": {
        "hypothesis.mta": "e30eea55655d54b5582973c3fb4963ec73d1a0cd5fad93a6b0c4179c23bbfbc1",
        "hypothesis.wcfg": "ccaac9f13a3c07a9fdd1dc4813cc442de11bd41ccff3e303dc85d48299398def",
        "hypothesis.pcfg": "ccaac9f13a3c07a9fdd1dc4813cc442de11bd41ccff3e303dc85d48299398def",
        "table.tsv": "1347140aa9b70ba8a089c42a36944e122fc932c89ae27af86bb0337305face89",
        "report.json": "2d59d42a1f7ff862079547d51c3be7e258bdf524b6b155cd1c5b82c4eb61b5b9"
    }
}


@pytest.mark.parametrize("case", sorted(GRAMMAR_LEARN_SHA256))
def test_grammar_learn_outputs_are_pinned(tmp_path, case):
    name, *flags = case.split()
    learn = ["learn", "--target", FIXTURES / f"{name}.wcfg", "--seq", "trees",
             "--max-leaves", "4", "--dump-table"]
    out = tmp_path / "out"
    assert run([*learn, "--out", out, *flags]) == 0
    if flags:  # --float prints the exact learn's weights as floats
        assert run([*learn, "--out", tmp_path / "exact"]) == 0
        assert_float_files(tmp_path / "exact", out)
    assert _learn_digests(out) == GRAMMAR_LEARN_SHA256[case]


@pytest.mark.parametrize("name, counts", [("acrab", [13, 1916, 5]),
                                          ("fimacd", [31, 14506, 11])])
def test_learn_float_asks_the_exact_learns_queries(tmp_path, name, counts):
    # once learned in floats: acrab was scanned ([13, 3240, 5]), and fimacd's
    # scan certified the zero automaton ([0, 24, 1])
    out = tmp_path / "out"
    assert run(["learn", "--target", FIXTURES / f"{name}.wcfg", "--float", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [report["basis_size"], report["smq_count"], report["seq_count"]] == counts


# sha256 of every artifact `learn --dump-table` writes with the trees
# strategy (--max-leaves 4) on the automaton `convert --wcfg-to-pmta` writes
# for a grammar, exact and with --float, and with the string strategies on
# the pinned corpus under the swap distance: exhaustive (--max-len 4; 9
# states, 2,067 SMQs, 6 SEQs) and sampling (80 strings of at most 5 genes,
# seed 3; 9 states, 1,816 SMQs, 5 SEQs).  A grammar or automaton target is
# decided exactly, so its strategy goes unused: the "mta colinearity3"
# digests are those of the "colinearity3" learns above, and an exhaustive
# grammar case is checked against its GRAMMAR_LEARN_SHA256 entry.  "mta
# colinearity3 --float" was re-pinned when the teacher margin went: it had
# been scanned under a margin, and now prints the exact learn as floats.
STRATEGY_LEARN_SHA256 = {
    "corpus exhaustive": {
        "hypothesis.mta": "456c94d33b831ad85c84d73e40bd30cda9dcb2b156dd55fa94dea270e887f431",
        "hypothesis.wcfg": "8c8df842d13afdc6fc7a43fc68b325e2534e4b4539c96c4de8d4e70e1779b584",
        "hypothesis.pcfg": "4fe1348ee2c2c6dc6c18204179a1ae9cc0a448e526ce42b37ec145055499379b",
        "table.tsv": "e559b632fe65ec76f69d7686e744aa943c187c031dfd289364fa9f6721af3343",
        "report.json": "84be1a2a66ccf81e2e0180da7d9d09f494efbf7d6fb855b42689e4f9f26cf213",
    },
    "corpus sampling": {
        "hypothesis.mta": "d43d200b4bc7750d1604ba6075e4294484bf2ec6746ee53c47d47a021fee655f",
        "hypothesis.wcfg": "d46ed8fcccdc3565ba7fd6a3b528b430fd0451e0351742494fdd8b8e503cc0e3",
        "hypothesis.pcfg": "f4e77ba14caf70e0d37e983331c4ed6f12d287df38be619a7c765a8bd8105784",
        "table.tsv": "9322f478ad5eb0d7b4f046ac5e25112897bff5e4aa82c95daf552729915a1508",
        "report.json": "b1f268623d4c540d389f0b29a4fbafa3dd8cb9fdcb7fed17bfd0ddd9fa625ff0",
    },
    "mta colinearity3": {
        "hypothesis.mta": "3325a738ebaba4cc6c2ad45e59e10647d8780084feaeb10df4421c2cf0b84987",
        "hypothesis.wcfg": "3119bc4d9ed36041f587c5de6de981a16291f5e439b9cd100c33abddb9407ead",
        "hypothesis.pcfg": "91a7c88af9c6643c8a915d45f504c1fd48bbd893102ca3256ad06f6e97cc4c46",
        "table.tsv": "0b16252a0c9b5bc303e2ee41004710a4337216a210d94a74d67e9a00270f2c5b",
        "report.json": "cda011053359fd8269214653e837064b65a48171e6806a73dde7a25548e3a078",
    },
    "mta colinearity3 --float": {
        "hypothesis.mta": "17f4daf71127f1459094ffdbae247fb8f5d739064def256b95d331892dc6feb4",
        "hypothesis.wcfg": "bb0ff40cf2723400a8568a2a4da10f225f3dfdb29d2a226b684f0fd4d96ca9ef",
        "hypothesis.pcfg": "3f2bb14dc3563d3255bb171914bcbae8777cc72a97568a9d39dfd27aa09e1912",
        "table.tsv": "9ee790d4b934553220071cf79f61d728392630f832373fec2ad3f9fc7d4acdac",
        "report.json": "cda011053359fd8269214653e837064b65a48171e6806a73dde7a25548e3a078",
    },
}
EXHAUSTIVE_GRAMMAR_CASES = ["exhaustive acrab", "exhaustive acrab --float",
                            "exhaustive smalldup", "exhaustive smalldup --float"]
CORPUS_SEQ_FLAGS = {"exhaustive": ["--max-len", "4"],
                    "sampling": ["--count", "80", "--max-len", "5", "--seed", "3"]}


@pytest.mark.parametrize("case", sorted([*STRATEGY_LEARN_SHA256, *EXHAUSTIVE_GRAMMAR_CASES]))
def test_strategy_and_automaton_learn_outputs_are_pinned(tmp_path, case):
    kind, name, *flags = case.split()
    expected = STRATEGY_LEARN_SHA256.get(case)
    if kind == "exhaustive":
        target = ["--target", FIXTURES / f"{name}.wcfg"]
        seq = ["exhaustive", "--max-len", "4"]
        expected = GRAMMAR_LEARN_SHA256[" ".join([name, *flags])]
    elif kind == "mta":
        target, seq = ["--target", tmp_path / f"{name}.mta"], ["trees", "--max-leaves", "4"]
        assert run(["convert", FIXTURES / f"{name}.wcfg", "--wcfg-to-pmta",
                    "--output", target[1]]) == 0
    else:
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(PINNED_CORPUS, encoding="utf-8")
        target = ["--target", corpus, "--distance", "swap"]
        seq = [name, *CORPUS_SEQ_FLAGS[name]]
    learn = ["learn", *target, "--seq", *seq, "--dump-table"]
    out = tmp_path / "out"
    assert run([*learn, "--out", out, *flags]) == 0
    if flags:  # --float prints the exact learn's weights as floats
        assert run([*learn, "--out", tmp_path / "exact"]) == 0
        assert_float_files(tmp_path / "exact", out)
    assert _learn_digests(out) == expected


def _gene_file_lines(seed=11, families=4, per_family=10, length=20):
    """Gene-order strings in families: each family shuffles six genes into a
    base order, and each member swaps neighbours and adds tandem copies."""
    rng = random.Random(seed)
    genes = [f"g{i}" for i in range(6)]
    lines = []
    for _ in range(families):
        rng.shuffle(genes)
        base = (genes * (length // len(genes) + 1))[:length]
        for _ in range(per_family):
            s = list(base)
            for _ in range(2):
                i = rng.randrange(length - 1)
                s[i], s[i + 1] = s[i + 1], s[i]
            for _ in range(3):
                i = rng.randrange(length)
                s[i:i] = [s[i]] * rng.randint(1, 2)
            lines.append(" ".join(s[:length]))
    return lines


def _triple_leftmost_leaf(tree):
    if isinstance(tree, Leaf):
        return right_chain(tree.token, 3)
    left, right = tree.children
    return Node((_triple_leftmost_leaf(left), right))


# sha256 of `trees` stdout on the generated gene file, and of
# `trees --against` per distance, against the first string's parse with its
# root's children swapped (swap, one event away) or its leftmost leaf
# tripled (duplication, two events away).
GENE_TREES_SHA256 = {
    "trees": "4851f13466639ac4d69a3bed8790a722a009e9da3cc951f5ff7d1308f3589b2e",
    "swap": "e40d151082f2fe2c9d398e8dbfed5d04d8b8152a685cee407381ee63a9b75ae1",
    "duplication": "efdbb79e32fba3e9b090622a848c7047b83a27519fbf4e418e0480b18555bfbe",
}


def test_gene_trees_outputs_are_pinned(tmp_path, capsys):
    lines = _gene_file_lines()
    genes = tmp_path / "genes.txt"
    genes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["trees", genes]) == 0
    got = {"trees": capsys.readouterr().out}
    alphabet = RankedAlphabet(sorted(set(" ".join(lines).split())), 2)
    first = parse_structured_string(got["trees"].splitlines()[0].split("\t")[1], alphabet)
    references = {"swap": (Node(first.children[::-1]), "1"),
                  "duplication": (_triple_leftmost_leaf(first), "2")}
    for distance, (reference, events) in references.items():
        assert run(["trees", genes, "--distance", distance,
                    "--against", reference.text]) == 0
        got[distance] = capsys.readouterr().out
        assert got[distance].startswith(events + "\t")
    digests = {name: hashlib.sha256(out.encode()).hexdigest()
               for name, out in got.items()}
    assert digests == GENE_TREES_SHA256


# sha256 of what `convert` and `eval` print for every fixture, exact and
# with --float: the automaton and PCFG conversions of the grammar, the
# grammar read back from that automaton, and the weights of a fixed list of
# trees under the grammar and under the automaton.  Each digest covers the
# exit code and stdout.  Pinned before exact sums came to start at their
# first term and exact-one factors came to be skipped.  Float sums add left
# to right on every Python (`scalars.ordered_sum`), so one digest holds on
# 3.10 to 3.13.  With --float, convert reads exactly and prints floats, and
# eval takes no --float: the fimacd PCFG, whose partition function is now
# solved exactly, was re-pinned.
CONVERT_EVAL_SHA256 = {
    "acrab exact": {
        "wcfg-to-pmta": "73d538276f276e4582770c78fb18735d4163d5fca2492a7d038fdb734a3d77fa",
        "wcfg-to-pcfg": "8d14f632a5dff83ba27af682ca1ec1c9598895abbcbe561ff8222e8623fc392c",
        "pmta-to-wcfg": "7cb878f96e811276d6ea4ba95e0d80bb56145e2c72692291ff02b6001401dde5",
        "eval wcfg": "46b2c72836a941d245a27fde747f464aec6f67474c979340ee829b8d8cab8362",
        "eval mta": "46b2c72836a941d245a27fde747f464aec6f67474c979340ee829b8d8cab8362",
    },
    "acrab float": {
        "wcfg-to-pmta": "8aae02cfca2788cf8e8610ba6d73d5213ba1cc424f850eb761501affcd39f400",
        "wcfg-to-pcfg": "0528da0d02697acf96f4be699541dadd9d60e76ad344639c301273559cbaebf5",
        "pmta-to-wcfg": "caf4547055bc8ffa9ef4a6a8b118b4ec5fd7eff542c799bbf61212fc15099ba3",
        "eval wcfg": "46b2c72836a941d245a27fde747f464aec6f67474c979340ee829b8d8cab8362",
        "eval mta": "46b2c72836a941d245a27fde747f464aec6f67474c979340ee829b8d8cab8362",
    },
    "chain exact": {
        "wcfg-to-pmta": "3a5b95134c8ab7adefd8ca628e361c1cab7c7dc0dacf7a85c84c4d371b24de99",
        "wcfg-to-pcfg": "08b721fc2fee58f593d1915dfb2b6a17dbeddfc1b39bf80c11eb3fd719b0a118",
        "pmta-to-wcfg": "4482fdc6c0984703503535986c77da71df11646f899a677d22224ffe4e0a1a81",
        "eval wcfg": "191163be56d73a516cd73497d6283495d4ccaafed287e3634ab7deb79ce18e5c",
        "eval mta": "191163be56d73a516cd73497d6283495d4ccaafed287e3634ab7deb79ce18e5c",
    },
    "chain float": {
        "wcfg-to-pmta": "4229eece0f248032ac8a403d06c355a4bddfba14417015cf9aeb76146b2d32a5",
        "wcfg-to-pcfg": "59bbfb2f3d95698875080d33a312f1139f77c589efa5488cd7fcef3fc6c6ffea",
        "pmta-to-wcfg": "7056cd40dec45c612dbe21b4545a21640b19a10e3e4f256c94fbd064e4b0dc78",
        "eval wcfg": "191163be56d73a516cd73497d6283495d4ccaafed287e3634ab7deb79ce18e5c",
        "eval mta": "191163be56d73a516cd73497d6283495d4ccaafed287e3634ab7deb79ce18e5c",
    },
    "colinearity3 exact": {
        "wcfg-to-pmta": "76c94e166bc0fb1ca130f4c26373638f1f94fd6aef90bced5e92785e11d8c5e2",
        "wcfg-to-pcfg": "630cc1df5c93e682d6f04b7f8dd73a1f724a46076dde68de4218c78c01ac5a9d",
        "pmta-to-wcfg": "de26da0c7e627aea997c63b181224f53f00ac91b6168686e0091be105d2b1743",
        "eval wcfg": "b07d58e2a5c6692bf48398d123dab0d14100ef68d7ef05b7403b32d27c69e535",
        "eval mta": "b07d58e2a5c6692bf48398d123dab0d14100ef68d7ef05b7403b32d27c69e535",
    },
    "colinearity3 float": {
        "wcfg-to-pmta": "8ebe684c735ed57effcea1e3722e831e89bbe348eb278edf37874bfcd089bc95",
        "wcfg-to-pcfg": "b103a28bd4aa83b9156d1e04dddfedf72f0b0ca55e6853d27e5f9a089e6812a5",
        "pmta-to-wcfg": "f5167de4ab56faae3cc5104686935961d333b89fcf4f933f17b2be0ecce15e0c",
        "eval wcfg": "b07d58e2a5c6692bf48398d123dab0d14100ef68d7ef05b7403b32d27c69e535",
        "eval mta": "b07d58e2a5c6692bf48398d123dab0d14100ef68d7ef05b7403b32d27c69e535",
    },
    "fimacd exact": {
        "wcfg-to-pmta": "10ca0972f0c897aafb5a1889fe1700c07c04539a1d4f337aa05d46642802b279",
        "wcfg-to-pcfg": "7e9a26483de48ba98a688ba5e9751abba5c1397228d2a818a9b5a85f8b038e92",
        "pmta-to-wcfg": "a6386903452cf8e7767b9429e30457afc1e5d5b088bb83abcf57d357f8a38492",
        "eval wcfg": "19f947d0018c4e643e804ee825bb4b2180ca47d6639dfe19fff2dd04507345f6",
        "eval mta": "19f947d0018c4e643e804ee825bb4b2180ca47d6639dfe19fff2dd04507345f6",
    },
    "fimacd float": {
        "wcfg-to-pmta": "a025fa4f89b3135ff814ec8c074d502caba39defc1f09d85799a5271dd2bfa19",
        "wcfg-to-pcfg": "99230e283ed88a68dcf6f6266b3f5218f5f044d01da385fb207d00947fc8b88d",
        "pmta-to-wcfg": "4aef7596727ae44f41241b5d119e41b1443c0466f9246a40ff81a18d77af983f",
        "eval wcfg": "19f947d0018c4e643e804ee825bb4b2180ca47d6639dfe19fff2dd04507345f6",
        "eval mta": "19f947d0018c4e643e804ee825bb4b2180ca47d6639dfe19fff2dd04507345f6",
    },
    "smalldup exact": {
        "wcfg-to-pmta": "22700ae197806c1c8e52c25c3a73d8304d9b76641761cc745266086a7415d277",
        "wcfg-to-pcfg": "a201012715f6cfdec02a2dba88c99b31ca183b119d42a909c25c8c58af80c539",
        "pmta-to-wcfg": "0e6cac4d3120d17d3bf5e6f4a3bae584fd68cc4b3695782b9e778e59eed0122f",
        "eval wcfg": "327fc726002d33b1b398cbdac3392b49a341015ad4412712cfd4e2b9e39f8b59",
        "eval mta": "327fc726002d33b1b398cbdac3392b49a341015ad4412712cfd4e2b9e39f8b59",
    },
    "smalldup float": {
        "wcfg-to-pmta": "6e379f1ee8cd7a7bec965f2a765a68861a1f85aec51b78d2d19eaa2623bde2ed",
        "wcfg-to-pcfg": "adfcc61e2097d75f7222445d99d64a79cf1d923a6d4d5751d7663f342af783a3",
        "pmta-to-wcfg": "7d5e4906e3bc2c142266ef0ff623ef3fdebf71ce0717ae59a3f62874062af13e",
        "eval wcfg": "327fc726002d33b1b398cbdac3392b49a341015ad4412712cfd4e2b9e39f8b59",
        "eval mta": "327fc726002d33b1b398cbdac3392b49a341015ad4412712cfd4e2b9e39f8b59",
    },
    "trivial exact": {
        "wcfg-to-pmta": "ce53c8bcff99308b26b7ebc4e4c7ff85b00a4ee05b321d0df0cda2150f55fdcc",
        "wcfg-to-pcfg": "246838a0a8fcda29e8c154979f35d235864cc204f78e75b75b47721f152fdbab",
        "pmta-to-wcfg": "c78b556b107e8ec1c280aec3041b5d59458a6a17cb193585291192246bebb753",
        "eval wcfg": "588ffd3fdf4a6d69f77c1acea49c8430f724ff48a630a14f3f0a659634616626",
        "eval mta": "588ffd3fdf4a6d69f77c1acea49c8430f724ff48a630a14f3f0a659634616626",
    },
    "trivial float": {
        "wcfg-to-pmta": "c044ca1041c414e3dd0bba198792c27176c549f35fd51bd58a1c43fef22f9afd",
        "wcfg-to-pcfg": "40233909ed08ac6dac9015f824b070ac4f4ecb5cae2ffadea3df303b0dc35823",
        "pmta-to-wcfg": "b56597fb8d1344f26101691395939753dd8ae5cbe970304875f617858f6372ac",
        "eval wcfg": "588ffd3fdf4a6d69f77c1acea49c8430f724ff48a630a14f3f0a659634616626",
        "eval mta": "588ffd3fdf4a6d69f77c1acea49c8430f724ff48a630a14f3f0a659634616626",
    },
}


def _pinned_trees(grammar, rng, draws=40, max_leaves=8):
    """Every full binary tree of at most three leaves over the grammar's
    terminals, then `draws` derivations, each rule picked uniformly, that
    have at most `max_leaves` leaves: trees of non-zero weight, through
    unary and longer rules too."""
    rules = {}
    for lhs, rhs in sorted(grammar.weights):
        rules.setdefault(lhs, []).append(rhs)

    def expand(symbol, budget):
        if symbol not in rules:
            budget[0] -= 1
            return Leaf(symbol) if budget[0] >= 0 else None
        rhs = rng.choice(rules[symbol])
        if len(rhs) == 1 and rhs[0] not in rules:
            return expand(rhs[0], budget)
        kids = [expand(sym, budget) for sym in rhs]
        return None if None in kids else Node(tuple(kids))

    trees = enumerate_full_trees(sorted(grammar.terminals), 3)
    drawn = []
    while len(drawn) < draws:
        tree = expand(grammar.start, [max_leaves])
        if tree is not None:
            drawn.append(tree)
    return trees + drawn


def _convert_eval_outputs(tmp_path, capsys, name, flags):
    """The exit code and stdout of each run, `convert` with `flags` (eval
    takes none)."""
    def output(args):
        capsys.readouterr()
        code = run(args)
        return f"{code}\n{capsys.readouterr().out}"

    wcfg, mta = FIXTURES / f"{name}.wcfg", tmp_path / f"{name}.mta"
    trees = tmp_path / "trees.txt"
    trees.write_text("".join(t.text + "\n" for t in _pinned_trees(
        load_wcfg(wcfg), random.Random(name))), encoding="utf-8")
    outputs = {"wcfg-to-pmta": output(["convert", wcfg, "--wcfg-to-pmta", *flags])}
    assert run(["convert", wcfg, "--wcfg-to-pmta", "--output", mta, *flags]) == 0
    outputs["wcfg-to-pcfg"] = output(["convert", wcfg, "--wcfg-to-pcfg", *flags])
    outputs["pmta-to-wcfg"] = output(["convert", mta, "--pmta-to-wcfg", *flags])
    outputs["eval wcfg"] = output(["eval", wcfg, "--trees", trees])
    outputs["eval mta"] = output(["eval", mta, "--trees", trees])
    return outputs


@pytest.mark.parametrize("name", ["acrab", "chain", "colinearity3", "fimacd",
                                  "smalldup", "trivial"])
@pytest.mark.parametrize("flags", [[], ["--float"]], ids=["exact", "float"])
def test_convert_and_eval_outputs_are_pinned(tmp_path, capsys, name, flags):
    key = f"{name} {'float' if flags else 'exact'}"
    outputs = _convert_eval_outputs(tmp_path, capsys, name, flags)
    if flags:  # the grammar's conversions, printed as floats
        exact = _convert_eval_outputs(tmp_path, capsys, name, [])
        for conversion in ("wcfg-to-pmta", "wcfg-to-pcfg"):
            assert_float_text(exact[conversion], outputs[conversion])
    digests = {what: hashlib.sha256(text.encode()).hexdigest()
               for what, text in outputs.items()}
    assert digests == CONVERT_EVAL_SHA256[key]
