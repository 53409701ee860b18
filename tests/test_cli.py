import hashlib
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from skelgram.cli import main
from skelgram.geneclusters import right_chain
from skelgram.grammar import load_wcfg, parse_wcfg, format_wcfg
from skelgram.trees import Leaf, Node, RankedAlphabet, parse_structured_string

from conftest import FIXTURES


def run(args):
    return main([str(a) for a in args])


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


@pytest.mark.parametrize("name, warned", [("fimacd", True), ("trivial", False),
                                          ("corpus", False)])
def test_learn_warns_when_no_candidate_has_target_weight(tmp_path, capsys, name, warned):
    # every positive fimacd tree has a unary root, which the trees strategy
    # never generates, so its scan certifies the zero automaton; --float
    # makes the grammars scanned
    target = ["--target", FIXTURES / f"{name}.wcfg", "--max-leaves", "4", "--float"]
    if name == "corpus":
        # no tree of <= 2 leaves is near this corpus, but SEQ also scans
        # the corpus trees, which always carry weight
        corpus = tmp_path / "c.tsv"
        corpus.write_text("4\t((a b) (c d))\n2\t((a b) (c c))\n", encoding="utf-8")
        target = ["--target", corpus, "--distance", "duplication", "--max-leaves", "2"]
    assert run(["learn", *target, "--seq", "trees", "--out", tmp_path / "o"]) == 0
    err = capsys.readouterr().err
    assert ("no equivalence candidate has non-zero target weight" in err) == warned


def test_learn_missing_file_exits_2(tmp_path):
    code = run(["learn", "--target", tmp_path / "nope.wcfg", "--out", tmp_path / "o"])
    assert code == 2


def test_learn_cap_breach_exits_3(tmp_path):
    code = run(["learn", "--target", FIXTURES / "chain.wcfg", "--seq", "trees",
                "--max-leaves", "5", "--max-iterations", "30",
                "--out", tmp_path / "o"])
    assert code == 3


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
    weight = Fraction(4, 5) * Fraction(1, 5) ** 1998  # underflows to 0 as a float
    assert capsys.readouterr().out == f"{float(weight):.12g}\t{chain.text}\n"


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
    grammar = tmp_path / "g.wcfg"
    grammar.write_text("S -> S S [1e400]\nS -> a [1/3]\n", encoding="utf-8")
    assert run(["convert", grammar, "--wcfg-to-pcfg"]) == 4
    assert "float" in capsys.readouterr().err
    assert run(["learn", "--target", grammar, "--out", tmp_path / "o"]) == 0
    assert "warning: PCFG normalization failed" in capsys.readouterr().err


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
    # through learning, and trees certifies a 1-state automaton; so a
    # scanned (here --float) target refuses rank 1, and the exact one learns
    grammar, base = tmp_path / "g.wcfg", tmp_path / "base.txt"
    grammar.write_text("S -> A [1/2]\nS -> a [1/4]\nA -> a [1/3]\n", encoding="utf-8")
    base.write_text("a\n", encoding="utf-8")
    out = tmp_path / "out"
    learn = ["learn", "--target", grammar, "--max-rank", "1", "--seq", seq,
             "--base-trees", base, "--out", out]
    assert run([*learn, "--float"]) == 2
    err = capsys.readouterr().err
    assert f"--seq {seq} needs --max-rank 2 or more" in err
    assert "only an exact automaton, or an exact grammar with no rule longer" in err
    assert not out.exists()
    assert run(learn) == 0
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


def test_trees_command_swap_distance_long_run(tmp_path, capsys):
    strings = tmp_path / "strings.txt"
    strings.write_text("a " * 1500 + "\n", encoding="utf-8")
    chain = right_chain("a", 1500).text
    assert run(["trees", strings, "--distance", "swap", "--against", chain]) == 0
    assert capsys.readouterr().out == f"0\t{chain}\n"


def test_learn_acrab_with_exhaustive_strategy(tmp_path):
    """Learning the efflux-pump grammar with string-exhaustive equivalence
    checks still recovers a PCFG whose most probable 4-leaf tree scores
    0.456."""
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
    pcfg = load_wcfg(out / "hypothesis.pcfg", exact=False)
    assert pcfg.is_normalized()


def test_learn_duplications_missing_base_trees_exits_2(tmp_path):
    code = run(["learn", "--target", FIXTURES / "smalldup.wcfg", "--float",
                "--seq", "duplications", "--base-trees", tmp_path / "missing.txt",
                "--out", tmp_path / "o"])
    assert code == 2


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
    assert (report["basis_size"], report["seq_count"]) == (31, 7)
    learned = load_wcfg(out / "hypothesis.pcfg")
    target = wcfg_to_pcfg(load_wcfg(FIXTURES / "fimacd.wcfg"))
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
    pcfg = load_wcfg(out / "hypothesis.pcfg", exact=False)
    assert pcfg.is_normalized()


# A fixed corpus, its base trees and gene strings, with the sha256 of every
# artifact `learn --seq duplications --max-dup 1 --dump-table` writes
# (report.json without wall_time_ms) and of the `trees --against` output,
# per distance, as printed before the distance helpers were made iterative;
# the duplication hypothesis.pcfg as printed once partition functions were
# solved by component, which made its floats closer to the exact values.
PINNED_CORPUS = "4\t((x y) (z z))\n2\t(x (y z))\n1\t((y x) z)\n1\t((x x) (y z))\n"
PINNED_BASE_TREES = "((x y) z)\n(x (y z))\n((y x) z)\n"
PINNED_GENES = "x y z z\nx x y z\ny x z z\nz z x y\nx y y z z\nz\nx y z\nz z z x\n"
PINNED_AGAINST = "((x y) (z z))"
CORPUS_LEARN_SHA256 = {
    "swap": {
        "hypothesis.mta": "5727b4ee16d16601b10e3ccaaba34858152f27be4ac6836093c75caecf2b4a95",
        "hypothesis.wcfg": "fb782771106527878a3fcb541b52787ae61d2acde37fc67b7045f1d27fd9aae9",
        "hypothesis.pcfg": "a15d834392170b11022bbf552fdda29a0e8e8165c6a6a01642e8ef9d4d73cb1d",
        "table.tsv": "9f03f48127060685c78f80b297f0d14b0b463bd46e980ac79425a050d53794ba",
        "report.json": "1e5237220e670acb48f6c9ab78167eae257f0269365d1138563b1abb1389c0ee",
        "trees --against": "6a85211fd913f302e442775f852df8f4a5d8d626f2132054b5a640b32ac22430",
    },
    "duplication": {
        "hypothesis.mta": "1847873534f7e226a850fe20e113feedc3f797015d70f82e2aaba3193379bc0a",
        "hypothesis.wcfg": "b728663ed3d29fd0e462e932e89085aceda7b9126700f74365a2c212984fd984",
        "hypothesis.pcfg": "18589c620aea6ff024edf1e21a9dec6c45dd5b1cee9b235f2a9a574fe45d1fe9",
        "table.tsv": "a16d5df57de22775f3280ca883396a845b766b9357437ddf31c51c5ee52b5c06",
        "report.json": "d4f8a8751f8ee7cfafc2f608c27b2fe79cc2a6fa953a862b6091ca7850c47321",
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
# counterexamples (acrab: 13 states, 4 SEQs instead of 5).
GRAMMAR_LEARN_SHA256 = {
    "acrab": {
        "hypothesis.mta": "2b7c4081384e300be903caaf2ea5fecae8a5289a251a0b030096ee24f4d3e113",
        "hypothesis.wcfg": "fe8afcd8ce63ff3339927ef20c423f0e901a0ab439369c4398e5a9abb6696d8f",
        "hypothesis.pcfg": "614e888a60fa1b078ef810e80ef9dca66817025dd00a79fe29e4d7b6ad442ad7",
        "table.tsv": "dbb941129f31976cb9b378f3b7f5953a03f4a8c4958caa566a7617a61270dc32",
        "report.json": "e71657dcdab9e010a4b6b045dd890790ac3b8fb351326233ba9755800088edc6"
    },
    "acrab --float": {
        "hypothesis.mta": "16fcb6df8653ead6086ffc87775e2483b01b340f3c32cae795dd7aa124d16bd5",
        "hypothesis.wcfg": "114c3b6e04f63f200376c25c1fc687646662430bfbbcf86ad9ec402250353d14",
        "hypothesis.pcfg": "cf1c471211fde6ed2365e213fe1123c9537b8b342114bf9b7d8b8389c1f8ae9f",
        "table.tsv": "b8856ca7b3caf438b8b7ffa6b084062bc1a02b6f148b60b06a7adb4a4c620620",
        "report.json": "b8c6ca3ea9a18fc4be1d41dd4f300be4d6dfb320463bacf5220badf3ba0cc611"
    },
    "colinearity3": {
        "hypothesis.mta": "ea478b9123357d14a14215f93eae1a13cb81c0d0a393817ddd5dffde1e81425a",
        "hypothesis.wcfg": "4adcc5bfbcd9508c6c17291c1eb86fd9ce3ba903c5e77e300339a39ed0edd263",
        "hypothesis.pcfg": "a7d41013afd1dc74459c3710a7794d8bababf4f2bd940c74334ba902e261634b",
        "table.tsv": "e99bc17e1e40c887d82d204924e0a7b895743aa15ab5a64951a25a6617b1d8d3",
        "report.json": "c3c03ad642b19447080d4b3f7f35e739088c5be61682cffe41cf140b6511e3ea"
    },
    "colinearity3 --float": {
        "hypothesis.mta": "a007a963be23ff465e85f112f6dbe85a4ff1937d7c1929cea62ac83bd9aae8b6",
        "hypothesis.wcfg": "554defb4d4e05e9b372d23da21d03d3ad03a25940c6021041ed33a4beb21903c",
        "hypothesis.pcfg": "d008a993c5b684d18375a60ed00bd6ddfd37d6b78e796bad97db08e34de378f5",
        "table.tsv": "2dc25aceb8d59f0da245f28dd837871be9dcc2608f698a74a711324641936416",
        "report.json": "fbd90f187cbafa720bd4c111ec366b60a1a870b274d5f97b13665f01f646815a"
    },
    "smalldup": {
        "hypothesis.mta": "28e078f9a66d4c0dc9e3c71f846c73b84c27a641fe3859cf0d9eb56b5dec93a4",
        "hypothesis.wcfg": "4172824a8eed173ee10fbe92421f0bcaa0c7f2731870deddfcefb893ca0778c8",
        "hypothesis.pcfg": "ad72a17ad01d023fbffaf4124f807812504469284ba9e837082d0fd5b4190269",
        "table.tsv": "8d38e5d3cb40269b1f9678f0e8fa0a83961f916d07ad7ecf94f496933936231b",
        "report.json": "8fa2e8cdc938568d43a79b80ccf95d48f5046827103b3c2721246776e593fd20"
    },
    "smalldup --float": {
        "hypothesis.mta": "06c3b3039ed37ffc682ccc23f116bf4fdcb528a838dc8a5d7c00483274144452",
        "hypothesis.wcfg": "de1c0e2d3c0055a213ff3c53a8c9037cc3ac204335c4e789038765908e6b70b2",
        "hypothesis.pcfg": "8f392a71a90e494cb76066d39e8d794c4629e60895448befc5373929cce30a33",
        "table.tsv": "b05f2d39892e742d3075900769c03ec67a2acb7cfa98a23cad01336e70f4ce8d",
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
    out = tmp_path / "out"
    assert run(["learn", "--target", FIXTURES / f"{name}.wcfg", "--seq", "trees",
                "--max-leaves", "4", "--dump-table", "--out", out, *flags]) == 0
    assert _learn_digests(out) == GRAMMAR_LEARN_SHA256[case]


# sha256 of every artifact `learn --dump-table` writes with the exhaustive
# string strategy (--max-len 4) on a grammar target, and with the trees
# strategy (--max-leaves 4) on the automaton `convert --wcfg-to-pmta` writes
# for a grammar, exact and with --float, as printed while the table still
# re-sorted T and rescanned every product on each insertion.  Exact targets
# are no longer scanned, so "exhaustive acrab" now equals the exact "acrab"
# learn above and "mta colinearity3" its exact "colinearity3" learn.
STRATEGY_LEARN_SHA256 = {
    "exhaustive acrab": {
        "hypothesis.mta": "2b7c4081384e300be903caaf2ea5fecae8a5289a251a0b030096ee24f4d3e113",
        "hypothesis.wcfg": "fe8afcd8ce63ff3339927ef20c423f0e901a0ab439369c4398e5a9abb6696d8f",
        "hypothesis.pcfg": "614e888a60fa1b078ef810e80ef9dca66817025dd00a79fe29e4d7b6ad442ad7",
        "table.tsv": "dbb941129f31976cb9b378f3b7f5953a03f4a8c4958caa566a7617a61270dc32",
        "report.json": "e71657dcdab9e010a4b6b045dd890790ac3b8fb351326233ba9755800088edc6",
    },
    "exhaustive acrab --float": {
        "hypothesis.mta": "44891ac20167f48f77efe45e1c8db9730f754b8d01bad8d6109d6b27330bdea9",
        "hypothesis.wcfg": "7c6d820bf4bdf9d01fbd5ed1b2f49e6f7053f33d0015d27af00064142a9579a9",
        "hypothesis.pcfg": "ea30dd1cc3a47709d95c8fcc1f9e1d17ea5b4bfc9d1038aefe340c79e5092880",
        "table.tsv": "611f141af07f1d9573e83f45170956865dafb488526d22ab376e493d45185bcf",
        "report.json": "019a8f222bd54f61988e60ac34bb38ae3a16abbf6a204f7dc89ac4a0e1ee2664",
    },
    "exhaustive smalldup": {
        "hypothesis.mta": "28e078f9a66d4c0dc9e3c71f846c73b84c27a641fe3859cf0d9eb56b5dec93a4",
        "hypothesis.wcfg": "4172824a8eed173ee10fbe92421f0bcaa0c7f2731870deddfcefb893ca0778c8",
        "hypothesis.pcfg": "ad72a17ad01d023fbffaf4124f807812504469284ba9e837082d0fd5b4190269",
        "table.tsv": "8d38e5d3cb40269b1f9678f0e8fa0a83961f916d07ad7ecf94f496933936231b",
        "report.json": "8fa2e8cdc938568d43a79b80ccf95d48f5046827103b3c2721246776e593fd20",
    },
    "exhaustive smalldup --float": {
        "hypothesis.mta": "06c3b3039ed37ffc682ccc23f116bf4fdcb528a838dc8a5d7c00483274144452",
        "hypothesis.wcfg": "de1c0e2d3c0055a213ff3c53a8c9037cc3ac204335c4e789038765908e6b70b2",
        "hypothesis.pcfg": "8f392a71a90e494cb76066d39e8d794c4629e60895448befc5373929cce30a33",
        "table.tsv": "b05f2d39892e742d3075900769c03ec67a2acb7cfa98a23cad01336e70f4ce8d",
        "report.json": "8fa2e8cdc938568d43a79b80ccf95d48f5046827103b3c2721246776e593fd20",
    },
    "mta colinearity3": {
        "hypothesis.mta": "ea478b9123357d14a14215f93eae1a13cb81c0d0a393817ddd5dffde1e81425a",
        "hypothesis.wcfg": "4adcc5bfbcd9508c6c17291c1eb86fd9ce3ba903c5e77e300339a39ed0edd263",
        "hypothesis.pcfg": "a7d41013afd1dc74459c3710a7794d8bababf4f2bd940c74334ba902e261634b",
        "table.tsv": "e99bc17e1e40c887d82d204924e0a7b895743aa15ab5a64951a25a6617b1d8d3",
        "report.json": "c3c03ad642b19447080d4b3f7f35e739088c5be61682cffe41cf140b6511e3ea",
    },
    "mta colinearity3 --float": {
        "hypothesis.mta": "1a3f5a4627b08eb6b3259baf76b801ba659d1fdb9e85a1e707dafc2c7fcb92a6",
        "hypothesis.wcfg": "554defb4d4e05e9b372d23da21d03d3ad03a25940c6021041ed33a4beb21903c",
        "hypothesis.pcfg": "d008a993c5b684d18375a60ed00bd6ddfd37d6b78e796bad97db08e34de378f5",
        "table.tsv": "877c8684b6baae9e9a3b4a9fded02dcc330174bdf0b5207cfed039386126bf9b",
        "report.json": "fbd90f187cbafa720bd4c111ec366b60a1a870b274d5f97b13665f01f646815a",
    },
}


@pytest.mark.parametrize("case", sorted(STRATEGY_LEARN_SHA256))
def test_strategy_and_automaton_learn_outputs_are_pinned(tmp_path, case):
    kind, name, *flags = case.split()
    if kind == "exhaustive":
        target, seq = FIXTURES / f"{name}.wcfg", ["exhaustive", "--max-len", "4"]
    else:
        target, seq = tmp_path / f"{name}.mta", ["trees", "--max-leaves", "4"]
        assert run(["convert", FIXTURES / f"{name}.wcfg", "--wcfg-to-pmta",
                    "--output", target]) == 0
    out = tmp_path / "out"
    assert run(["learn", "--target", target, "--seq", *seq, "--dump-table",
                "--out", out, *flags]) == 0
    assert _learn_digests(out) == STRATEGY_LEARN_SHA256[case]


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
