"""Job timing and the traced run's spans.

`Timer` times jobs and nothing else.  `CalibratedTimer`, which the
end-to-end metrics come from, also tracks the host's speed: between jobs it
times a fixed reference slice of pure-Python work that does not touch
skelgram, and scales each job's wall time to a nominal host speed.
`Tracer` times jobs too and, while a job runs, records a span for every call
of the wrapped library functions: name, start, end, parent span, job id and
self time (duration minus the time its child spans cover).  Outside a job
the wrappers pass calls straight through, so correctness checks add no spans.
Totals per name are kept for every traced job; full spans are kept in
memory while `keep_spans` is set (the runner keeps the first traced round)
and written out by `write` at the end of the run.
"""
from __future__ import annotations

import bisect
import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

clock = time.perf_counter


class Job:
    """A timed region: its start on `clock` and its wall seconds."""

    __slots__ = ("start", "wall")

    def __init__(self):
        self.start = clock()
        self.wall = 0.0


class Timer:
    """Untraced job timing."""

    @contextmanager
    def job(self, label):
        job = Job()
        try:
            yield job
        finally:
            job.wall = clock() - job.start


# The host this benchmark runs on is shared, and its speed drifts by a
# third over tens of seconds.  Wall times are therefore scaled by
# REFERENCE_S / (median reference slice within REFERENCE_WINDOW_S of the
# job), which reads as the wall time on a host that runs a slice in
# REFERENCE_S.  The slice is benchmark code, so a change to skelgram moves
# the scaled times exactly as it moves the wall times.
REFERENCE_S = 0.006
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 2.0


def reference_slice():
    """Fixed work shaped like the library's: Fraction sums, tuple keys and
    dict stores."""
    acc, memo = Fraction(0), {}
    for i in range(1500):
        key = (i % 97, i % 89)
        acc += Fraction(key[0] + 1, key[1] + 1)
        memo[key] = acc
    return len(memo)


class CalibratedTimer(Timer):
    """Times jobs and, at least every REFERENCE_EVERY_S between jobs, one
    reference slice."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self._slice()

    def _slice(self):
        start = clock()
        reference_slice()
        self.slices.append((start, clock() - start))

    @contextmanager
    def job(self, label):
        with super().job(label) as job:
            yield job
        if clock() - self.slices[-1][0] >= REFERENCE_EVERY_S:
            self._slice()

    def scaled(self, job) -> float:
        """The job's wall time at the nominal host speed."""
        starts = [s for s, _ in self.slices]
        lo = bisect.bisect_left(starts, job.start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(starts, job.start + job.wall + REFERENCE_WINDOW_S)
        near = [d for _, d in self.slices[lo:hi]]
        if len(near) < 3:
            mid = job.start + job.wall / 2
            near = [d for _, d in sorted(self.slices, key=lambda s: abs(s[0] - mid))[:3]]
        return job.wall * REFERENCE_S / statistics.median(near)

    def reference_median(self) -> float:
        return statistics.median(d for _, d in self.slices)


# (layer.function, module holding it, attribute path); a dotted path names
# a method.  Each module-level function is also replaced in every skelgram
# module that imported it by name.
WRAPPED = (
    ("teacher.seq", "skelgram.teacher", "SimulatedTeacher.seq"),
    ("teacher.smq", "skelgram.teacher", "SimulatedTeacher.smq"),
    ("teacher.corpus_smq", "skelgram.teacher", "CorpusOracle.smq"),
    ("mta.eval", "skelgram.mta", "MTA.eval"),
    ("multilinear.apply", "skelgram.multilinear", "apply"),
    ("multilinear.colinear_witness", "skelgram.multilinear", "colinear_witness"),
    ("grammar.skeletal_weight", "skelgram.grammar", "WCFG.skeletal_weight"),
    ("grammar.wcfg_to_pmta", "skelgram.grammar", "wcfg_to_pmta"),
    ("grammar.pmta_to_wcfg", "skelgram.grammar", "pmta_to_wcfg"),
    ("grammar.partition_functions", "skelgram.grammar", "partition_functions"),
    ("grammar.wcfg_to_pcfg", "skelgram.grammar", "wcfg_to_pcfg"),
    ("table.complete", "skelgram.table", "ObservationTable.complete"),
    ("table.close", "skelgram.table", "ObservationTable.close"),
    ("table.check_zero_consistency", "skelgram.table",
     "ObservationTable.check_zero_consistency"),
    ("table.check_colinear_consistency", "skelgram.table",
     "ObservationTable.check_colinear_consistency"),
    ("extract.extract_cmta", "skelgram.extract", "extract_cmta"),
    ("trees.enumerate_full_trees", "skelgram.trees", "enumerate_full_trees"),
    ("trees.compose", "skelgram.trees", "compose"),
    ("geneclusters.parse_gene_string", "skelgram.geneclusters", "parse_gene_string"),
    ("geneclusters.optimal_tree", "skelgram.geneclusters", "optimal_tree"),
    ("geneclusters.score", "skelgram.geneclusters", "SubstringFrequencyWeight.__call__"),
    ("geneclusters.duplication_distance", "skelgram.geneclusters", "duplication_distance"),
    ("geneclusters.swap_distance", "skelgram.geneclusters", "swap_distance"),
    ("learner.learn", "skelgram.learner", "learn"),
)


class Tracer(Timer):
    def __init__(self):
        self.names: list[str] = []
        # Per-name totals ("<name>.calls", ".s" busy, ".self_s") and the
        # counters kept at the same boundaries, for every traced job.
        self.totals: Counter = Counter()
        self.gauges: dict = {}
        # Full spans are kept while `keep_spans` is set: one tuple per span,
        # (name index, job id, parent span or -1, start, end, self seconds).
        self.keep_spans = True
        self.spans: list = []
        self.jobs: list[str] = []
        self.sanity_violations = 0
        self._job = -1
        self._job_self = 0.0
        self._stack: list[list] = []  # [span index, name index, child seconds]

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPPED, plus the counters kept at the same
        boundaries.  Call after the last import of skelgram."""
        for name, module_name, path in WRAPPED:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, self._table_sizes if name == "table.complete" else None)
            setattr(owner, attr, wrapper)
            if not cls_path:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("skelgram") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
        table = sys.modules["skelgram.table"]
        charge = table.Budget.charge

        @functools.wraps(charge)
        def counted_charge(budget, *args, **kwargs):
            if self._job >= 0:
                self.totals["learner.budget_used"] += 1
            return charge(budget, *args, **kwargs)

        table.Budget.charge = counted_charge

    def _table_sizes(self, table):
        self.gauges.update({"table.rows": len(table.rows),
                            "table.columns": len(table.columns),
                            "table.basis": len(table.basis)})

    def _wrap(self, name, fn, after=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, totals = self.spans, self._stack, self.totals
        calls_key, busy_key, self_key = name + ".calls", name + ".s", name + ".self_s"
        failed_key = name + ".failed"
        eval_under_seq = name == "mta.eval"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = self._job
            if job < 0:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            if eval_under_seq and stack and self.names[stack[-1][1]] == "teacher.seq":
                totals["teacher.seq.candidates_scanned"] += 1
            slot = -1
            if self.keep_spans:
                slot = len(spans)
                spans.append(None)
            frame = [slot, index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args[0])
                return result
            except BaseException:
                totals[failed_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                own = took - frame[2]
                if stack:
                    stack[-1][2] += took
                totals[calls_key] += 1
                totals[busy_key] += took
                totals[self_key] += own
                self._job_self += own
                if slot >= 0:
                    spans[slot] = (index, job, parent, start, end, own)

        return wrapper

    # -- jobs --------------------------------------------------------------

    @contextmanager
    def job(self, label):
        """Time a job and trace the calls made inside it.  The self times of
        its spans must sum to no more than its wall time."""
        self._job = len(self.jobs)
        self.jobs.append(label)
        self._job_self = 0.0
        job = Job()
        try:
            yield job
        finally:
            job.wall = clock() - job.start
            self._job = -1
            self._stack.clear()
            if self._job_self > job.wall:
                self.sanity_violations += 1

    def mark(self):
        """A snapshot for `layer_totals`."""
        return Counter(self.totals)

    def layer_totals(self, since) -> dict:
        """What the totals grew by since the snapshot `since`."""
        return {key: value - since.get(key, 0) for key, value in self.totals.items()}

    def write(self, path):
        """Kept spans as tab-separated lines: span, job, job label, parent,
        name, start, end, self seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tjob\tlabel\tparent\tname\tstart\tend\tself_s\n")
            for i, (index, job, parent, start, end, own) in enumerate(self.spans):
                fh.write(f"{i}\t{job}\t{self.jobs[job]}\t{parent}\t{self.names[index]}"
                         f"\t{start:.9f}\t{end:.9f}\t{own:.9f}\n")
