"""The three workloads.

Each workload is a closed loop with one client: `round` runs its jobs back
to back, and the runner calls it again until the run's time is up.  The
constructor is the set-up: it imports skelgram afresh, loads the fixtures
and generates the seeded inputs; nothing after set-up reads a file.
Jobs are the timed regions; every correctness check runs outside them,
untimed and untraced, and does not call the code path it checks.
"""
from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import gen

# Failures the code has at the parent commit of this benchmark, as
# {operation: text the failure must contain}.  Such a failure still counts
# in `failed` and lowers `ok_share`, but the run stays `correct`; any other
# failure makes the run incorrect.
KNOWN_FAILURES = {
    # learner certifies the dimension-0 automaton: candidates have no unary root
    "probe_learn:fimacd": "wrong answer",
    # Kleene iteration gives up on the critical grammar (Z = 1)
    "wcfg_to_pcfg:critical": "did not converge",
    # N6's rules sum to 0.999
    "wcfg_to_pcfg:fimacd": "per-nonterminal normalization",
    # recursive MTA.eval overflows the stack on 500+ leaf chains
    "chain_mta:0": "RecursionError",
    "chain_mta:1": "RecursionError",
    "chain_mta:2": "RecursionError",
}

FIXTURES = ("acrab", "chain", "colinearity3", "fimacd", "smalldup", "trivial")
MAX_LEAVES = 5          # AllTreesStrategy bound used by `skelgram learn`
CORPUS_DECAY = Fraction(1, 5)
CORPUS_MAX_DUP = 1
HELD_OUT = 3000
PROBE_SAMPLE = 300
WEIGH_DRAWS = 1000
WEIGH_MAX_LEAVES = 10
NORMALIZE_CHECK_TREES = 40
CONVERSION_CHECK_TREES = 200


def fresh_import():
    """Import skelgram as a new process would, so set-up time includes it."""
    for name in [m for m in sys.modules if m == "skelgram" or m.startswith("skelgram.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("skelgram")


class Outcomes:
    """How each distinct operation ended.  An operation repeated in several
    rounds counts once, and fails if any repetition failed."""

    def __init__(self):
        self.status: dict[str, str | None] = {}

    def ok(self, op):
        self.status.setdefault(op, None)

    def fail(self, op, why):
        if self.status.get(op) is None:
            self.status[op] = why

    def check(self, op, passed, why="wrong answer"):
        if passed:
            self.ok(op)
        else:
            self.fail(op, why)
        return passed

    def failures(self):
        return {op: why for op, why in self.status.items() if why is not None}

    def unexpected(self):
        return {op: why for op, why in self.failures().items()
                if KNOWN_FAILURES.get(op) is None or KNOWN_FAILURES[op] not in why}


def describe(exc):
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Samples shared by all workloads, as timed jobs: `jobs` are the
    latency samples; `weigh_wcfg` and `weigh_mta` hold one (trees weighed,
    jobs) pair per round, and `normalize` one (wcfg_to_pcfg calls, jobs)
    pair per round."""

    def __init__(self, root: Path, seed: int):
        self.sk = fresh_import()
        self.root = root
        self.rng = random.Random(seed)
        self.outcomes = Outcomes()
        self.jobs: list = []
        self.weigh_wcfg: list = []
        self.weigh_mta: list = []
        self.normalize: list = []
        self.learn_counts: dict = {}

    def fixture(self, name):
        return (self.root / "fixtures" / f"{name}.wcfg").read_text(encoding="utf-8")

    def finish(self):
        """Work done once per run, after the timed rounds."""

    def check_pcfg(self, op, wcfg, pcfg, trees):
        """pcfg is normalized and keeps W(t)/Z: for a reference tree t0 with
        W(t0) != 0, P(t) * W(t0) == W(t) * P(t0) on every tree."""
        weights = [wcfg.skeletal_weight(t) for t in trees]
        probs = [pcfg.skeletal_weight(t) for t in trees]
        ref = next((i for i, w in enumerate(weights) if w != 0), None)
        kept = ref is not None and all(
            _close(p * weights[ref], w * probs[ref]) for w, p in zip(weights, probs))
        return self.outcomes.check(op, pcfg.is_normalized() and kept)


def _close(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))


def _attempt(outcomes, op, fn, *args):
    """Run fn; an exception becomes a failure of op and returns None."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is recorded, none stops the run
        outcomes.fail(op, describe(exc))
        return None


class LearnWorkload(Workload):
    """One job: learn() to a certified hypothesis, then pmta_to_wcfg and
    wcfg_to_pcfg, as `skelgram learn` does.  Subclasses set `name` and
    `normalize_repeats`, the wcfg_to_pcfg calls timed together for one
    normalize_ms sample."""

    def learn_job(self, timer, teacher, alphabet):
        sk, out = self.sk, self.outcomes
        with timer.job("learn") as job:
            report = _attempt(out, f"learn:{self.name}", sk.learn, teacher, alphabet)
            wcfg = pcfg = None
            if report is not None:
                wcfg = _attempt(out, f"pmta_to_wcfg:{self.name}",
                                sk.pmta_to_wcfg, report.hypothesis)
            if wcfg is not None:
                pcfg = _attempt(out, f"wcfg_to_pcfg:{self.name}", sk.wcfg_to_pcfg, wcfg)
        if report is None or wcfg is None or pcfg is None:
            return None
        self.jobs.append(job)
        with timer.job("normalize") as job:
            for _ in range(self.normalize_repeats):
                sk.wcfg_to_pcfg(wcfg)
        self.normalize.append((self.normalize_repeats, [job]))
        self.learn_counts = {"learner.smq_count": report.smq_count,
                             "learner.seq_count": report.seq_count}
        return report.hypothesis, wcfg, pcfg

    def weigh(self, timer, grammar, automaton, trees):
        """Time both evaluators over `trees`; returns both value lists."""
        with timer.job("weigh_wcfg") as wcfg_job:
            wv = [grammar.skeletal_weight(t) for t in trees]
        with timer.job("weigh_mta") as mta_job:
            mv = [automaton.eval(t) for t in trees]
        self.weigh_wcfg.append((len(trees), [wcfg_job]))
        self.weigh_mta.append((len(trees), [mta_job]))
        return wv, mv


class LearnGrammar(LearnWorkload):
    """acrab with SimulatedTeacher and AllTreesStrategy(<= 5 leaves), exact
    arithmetic.  The held-out check weighs a seeded sample with a freshly
    loaded target and with the hypothesis."""

    name = "acrab"
    normalize_repeats = 40

    def __init__(self, root, seed):
        super().__init__(root, seed)
        sk = self.sk
        self.text = self.fixture("acrab")
        target = sk.parse_wcfg(self.text)
        self.alphabet = target.alphabet(2)
        self.sample = gen.held_out_sample(self.rng, target, sk, HELD_OUT)
        self.probe_text = self.fixture("fimacd")
        probe = sk.parse_wcfg(self.probe_text)
        self.probe_sample = gen.derivation_trees(self.rng, probe, sk, PROBE_SAMPLE, 9)

    def round(self, timer):
        sk = self.sk
        target = sk.parse_wcfg(self.text)
        teacher = sk.SimulatedTeacher(target, sk.AllTreesStrategy(self.alphabet, MAX_LEAVES))
        learned = self.learn_job(timer, teacher, self.alphabet)
        if learned is None:
            return
        hypothesis, wcfg, pcfg = learned
        fresh = sk.parse_wcfg(self.text)
        try:
            truth, got = self.weigh(timer, fresh, hypothesis, self.sample)
        except Exception as exc:  # noqa: BLE001
            self.outcomes.fail("learn:acrab", describe(exc))
            return
        self.outcomes.check("learn:acrab", truth == got)
        subset = self.sample[-CONVERSION_CHECK_TREES:]  # derivation draws: W(t) != 0
        self.outcomes.check("pmta_to_wcfg:acrab",
                            [wcfg.skeletal_weight(t) for t in subset]
                            == got[-len(subset):])
        self.check_pcfg("wcfg_to_pcfg:acrab", wcfg, pcfg, subset)

    def finish(self):
        """The fimacd probe: learned once per run, untimed."""
        sk, op = self.sk, "probe_learn:fimacd"
        target = sk.parse_wcfg(self.probe_text)
        alphabet = target.alphabet(2)
        teacher = sk.SimulatedTeacher(target, sk.AllTreesStrategy(alphabet, MAX_LEAVES))
        report = _attempt(self.outcomes, op, sk.learn, teacher, alphabet)
        if report is None:
            return
        fresh = sk.parse_wcfg(self.probe_text)
        try:
            agree = all(report.hypothesis.eval(t) == fresh.skeletal_weight(t)
                        for t in self.probe_sample)
        except Exception as exc:  # noqa: BLE001
            self.outcomes.fail(op, describe(exc))
            return
        self.outcomes.check(op, agree, f"wrong answer: dimension {report.hypothesis.dim}")


class LearnCorpus(LearnWorkload):
    """A seeded gene corpus parsed into trees, answered by
    CorpusOracle(duplication, q = 1/5), with DuplicationsStrategy(max_dup=1).
    The check compares the hypothesis with a fresh oracle on every corpus
    tree and every SEQ candidate."""

    name = "corpus"
    normalize_repeats = 5

    def __init__(self, root, seed):
        super().__init__(root, seed)
        sk = self.sk
        strings = gen.gene_corpus(self.rng)
        weight = sk.geneclusters.SubstringFrequencyWeight([s for s, _ in strings])
        self.corpus = [(sk.geneclusters.parse_gene_string(s, weight)[0], Fraction(f))
                       for s, f in strings]
        self.base_trees = [t for t, _ in self.corpus]
        oracle = sk.CorpusOracle(self.corpus, CORPUS_DECAY, "duplication")
        self.alphabet = oracle.alphabet()
        candidates = sk.DuplicationsStrategy(self.base_trees, CORPUS_MAX_DUP).candidates()
        self.sample = self.base_trees + list(candidates)

    def round(self, timer):
        sk = self.sk
        oracle = sk.CorpusOracle(self.corpus, CORPUS_DECAY, "duplication")
        strategy = sk.DuplicationsStrategy(self.base_trees, CORPUS_MAX_DUP)
        learned = self.learn_job(timer, sk.SimulatedTeacher(oracle, strategy), self.alphabet)
        if learned is None:
            return
        hypothesis, wcfg, pcfg = learned
        try:
            wv, mv = self.weigh(timer, wcfg, hypothesis, self.sample)
        except Exception as exc:  # noqa: BLE001
            self.outcomes.fail("learn:corpus", describe(exc))
            return
        truth = sk.CorpusOracle(self.corpus, CORPUS_DECAY, "duplication")
        self.outcomes.check("learn:corpus", mv == [truth.smq(t) for t in self.sample])
        self.outcomes.check("pmta_to_wcfg:corpus", wv == mv)
        self.check_pcfg("wcfg_to_pcfg:corpus", wcfg, pcfg, self.sample)


class BatchTools(Workload):
    """The layers the learners barely touch: gene-string parsing with the
    distances of `trees --against`, weighing sampled derivation trees with
    both evaluators, long right chains, and PCFG normalization."""

    def __init__(self, root, seed):
        super().__init__(root, seed)
        sk = self.sk
        gc = sk.geneclusters
        families = gen.gene_families(self.rng)
        self.strings = [(s, fam) for fam, (_, strings) in enumerate(families)
                        for s in strings]
        self.weight = gc.SubstringFrequencyWeight([s for s, _ in self.strings])
        self.references = [gc.parse_gene_string(base, self.weight)[0]
                           for base, _ in families]
        self.padded = [" " + " ".join(s) + " " for s, _ in self.strings]

        self.grammars = {name: self.fixture(name) for name in FIXTURES}
        self.grammars["critical"] = gen.CRITICAL_GRAMMAR
        self.samples = {}
        for name, text in self.grammars.items():
            g = sk.parse_wcfg(text)
            self.samples[name] = gen.derivation_trees(self.rng, g, sk, WEIGH_DRAWS,
                                                      WEIGH_MAX_LEAVES)
        self.chain_text = self.grammars["smalldup"]
        self.chains = [(n, gc.right_chain("a", n)) for n in gen.chain_lengths(self.rng)]

    def round(self, timer):
        self.parse(timer)
        self.weigh(timer)
        self.long_chains(timer)
        self.normalize_all(timer)

    def parse(self, timer):
        gc, out = self.sk.geneclusters, self.outcomes
        for i, (tokens, fam) in enumerate(self.strings):
            op = f"parse:{i}"
            with timer.job("parse") as job:
                try:
                    tree, score = gc.parse_gene_string(tokens, self.weight)
                    gc.swap_distance(tree, self.references[fam])
                    gc.duplication_distance(tree, self.references[fam])
                except Exception as exc:  # noqa: BLE001
                    out.fail(op, describe(exc))
                    continue
            self.jobs.append(job)
            out.check(op, self.sk.tree_yield(tree) == tokens
                      and score == self.rescore(tree, tokens))

    def rescore(self, tree, tokens):
        """The parse objective evaluated on `tree`, without the DP: a node
        spanning at most two merged tokens scores w(span); a larger one adds
        its children's scores.  A maximal run of one token is one merged
        token, so the chain under it is not visited."""
        runs = set()
        i = 0
        while i < len(tokens):
            j = i
            while j < len(tokens) and tokens[j] == tokens[i]:
                j += 1
            runs.add((i, j))
            i = j

        def walk(node, start):
            """(score, end, merged tokens covered)."""
            end = start + len(self.sk.tree_yield(node))
            if (start, end) in runs or isinstance(node, self.sk.Leaf):
                return self.count_containing(tokens[start:end]), end, 1
            kids = []
            pos = start
            for child in node.children:
                kids.append(walk(child, pos))
                pos = kids[-1][1]
            merged = sum(k[2] for k in kids)
            score = self.count_containing(tokens[start:end])
            if merged > 2:
                score += sum(k[0] for k in kids)
            return score, end, merged

        return walk(tree, 0)[0]

    def count_containing(self, piece):
        """Strings holding `piece` contiguously; pieces of one token score 0."""
        if len(piece) < 2:
            return 0
        needle = " " + " ".join(piece) + " "
        return sum(1 for s in self.padded if needle in s)

    def weigh(self, timer):
        sk, out = self.sk, self.outcomes
        trees, wcfg_jobs, mta_jobs = 0, [], []
        for name in FIXTURES:
            op, sample = f"weigh:{name}", self.samples[name]
            g = sk.parse_wcfg(self.grammars[name])
            try:
                with timer.job("weigh_wcfg") as job:
                    wv = [g.skeletal_weight(t) for t in sample]
                wcfg_jobs.append(job)
                with timer.job("wcfg_to_pmta"):
                    m = sk.wcfg_to_pmta(g)
                with timer.job("weigh_mta") as job:
                    mv = [m.eval(t) for t in sample]
                mta_jobs.append(job)
            except Exception as exc:  # noqa: BLE001
                out.fail(op, describe(exc))
                continue
            trees += len(sample)
            out.check(op, wv == mv)
        if trees:
            self.weigh_wcfg.append((trees, wcfg_jobs))
            self.weigh_mta.append((trees, mta_jobs))

    def long_chains(self, timer):
        sk, out = self.sk, self.outcomes
        g = sk.parse_wcfg(self.chain_text)
        m = sk.wcfg_to_pmta(g)
        for i, (n, chain) in enumerate(self.chains):
            # smalldup weighs a right chain of n leaves 4/5 * (1/5)^(n-2)
            expected = Fraction(4, 5) * Fraction(1, 5) ** (n - 2)
            for op, evaluate in ((f"chain_wcfg:{i}", g.skeletal_weight),
                                 (f"chain_mta:{i}", m.eval)):
                with timer.job("chain"):
                    value = _attempt(out, op, evaluate, chain)
                if value is not None:
                    out.check(op, value == expected)

    def normalize_all(self, timer):
        sk, out = self.sk, self.outcomes
        jobs = []
        for name, text in self.grammars.items():
            op = f"wcfg_to_pcfg:{name}"
            g = sk.parse_wcfg(text)
            with timer.job("normalize") as job:
                pcfg = _attempt(out, op, sk.wcfg_to_pcfg, g)
            jobs.append(job)
            if pcfg is not None:
                self.check_pcfg(op, g, pcfg, self.samples[name][:NORMALIZE_CHECK_TREES])
        self.normalize.append((1, jobs))


WORKLOADS = {
    "learn-grammar": LearnGrammar,
    "learn-corpus": LearnCorpus,
    "batch-tools": BatchTools,
}
