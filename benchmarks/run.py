"""skelgram benchmark.

    python3 benchmarks/run.py --workload learn-grammar --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout:
set-up several times, then rounds back to back until --seconds have passed,
then the checks that run once.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it times one untraced round as the base, wraps the
library's public functions and reports per-layer metrics of the traced
rounds, writing the spans of the first traced round to benchmarks/out/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
`--workload all` runs every workload in its own process.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

# Per-layer metrics and their units, in the order they are printed.
PER_LAYER = (
    ("teacher.seq.calls", "count"), ("teacher.seq.s", "s"),
    ("teacher.seq.candidates_scanned", "count"), ("teacher.seq.scanned_per_seq", "count"),
    ("teacher.smq.calls", "count"), ("teacher.smq.s", "s"),
    ("teacher.corpus_smq.calls", "count"), ("teacher.corpus_smq.s", "s"),
    ("teacher.corpus_smq.self_s", "s"),
    ("mta.eval.calls", "count"), ("mta.eval.self_s", "s"), ("mta.eval.failed", "count"),
    ("multilinear.apply.calls", "count"), ("multilinear.apply.self_s", "s"),
    ("multilinear.colinear_witness.calls", "count"),
    ("multilinear.colinear_witness.self_s", "s"),
    ("grammar.skeletal_weight.calls", "count"), ("grammar.skeletal_weight.self_s", "s"),
    ("grammar.wcfg_to_pmta.s", "s"), ("grammar.pmta_to_wcfg.s", "s"),
    ("grammar.partition_functions.s", "s"), ("grammar.wcfg_to_pcfg.failed", "count"),
    ("table.complete.calls", "count"), ("table.complete.s", "s"), ("table.close.s", "s"),
    ("table.check_zero_consistency.s", "s"), ("table.check_colinear_consistency.s", "s"),
    ("table.rows", "count"), ("table.columns", "count"), ("table.basis", "count"),
    ("extract.extract_cmta.calls", "count"), ("extract.extract_cmta.s", "s"),
    ("trees.enumerate_full_trees.calls", "count"), ("trees.enumerate_full_trees.s", "s"),
    ("trees.compose.calls", "count"), ("trees.compose.self_s", "s"),
    ("geneclusters.parse_gene_string.calls", "count"),
    ("geneclusters.parse_gene_string.s", "s"),
    ("geneclusters.optimal_tree.self_s", "s"),
    ("geneclusters.score.calls", "count"), ("geneclusters.score.self_s", "s"),
    ("geneclusters.duplication_distance.calls", "count"),
    ("geneclusters.duplication_distance.self_s", "s"),
    ("geneclusters.swap_distance.calls", "count"),
    ("geneclusters.swap_distance.self_s", "s"),
    ("learner.learn.s", "s"), ("learner.budget_used", "count"),
    ("learner.smq_count", "count"), ("learner.seq_count", "count"),
    ("trace.round_s", "s"), ("trace.base_round_s", "s"), ("trace.overhead_ratio", "ratio"),
)


def tail(values):
    """Nearest-rank p90, p75 or p50: the highest with at least ten samples
    beyond it, or p50 when none has."""
    ordered = sorted(values)
    share = next((q for q in (0.9, 0.75) if len(ordered) * (1 - q) >= 10), 0.5)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(workload, setups, seconds):
    """The end-to-end metrics, with `seconds(job)` as each job's time."""
    jobs = [seconds(j) for j in workload.jobs]
    status = workload.outcomes.status
    ok = sum(1 for why in status.values() if why is None)

    def per_second(samples):
        return statistics.median(n / sum(seconds(j) for j in js) for n, js in samples)

    def per_call(samples):
        return statistics.median(sum(seconds(j) for j in js) / n for n, js in samples)

    return {
        "setup_s": (statistics.median(seconds(j) for j in setups), "s"),
        "job_p50_ms": (statistics.median(jobs) * 1000, "ms"),
        "job_tail_ms": (tail(jobs) * 1000, "ms"),
        "weigh_wcfg_per_s": (per_second(workload.weigh_wcfg), "1/s"),
        "weigh_mta_per_s": (per_second(workload.weigh_mta), "1/s"),
        "normalize_ms": (per_call(workload.normalize) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (ok / len(status), "ratio"),
    }


def per_layer(rounds, base_round_s):
    """Median over the traced rounds of each layer's per-round total."""
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.base_round_s":
            value = base_round_s
        elif name == "trace.overhead_ratio":
            value = statistics.median(r["trace.round_s"] for r in rounds) / base_round_s
        elif name == "teacher.seq.scanned_per_seq":
            value = statistics.median(
                r.get("teacher.seq.candidates_scanned", 0) / r["teacher.seq.calls"]
                if r.get("teacher.seq.calls") else 0 for r in rounds)
        else:
            value = statistics.median(r.get(name, 0) for r in rounds)
        out[name] = (value, unit)
    return out


def run_one(args) -> int:
    import workloads
    from spans import REFERENCE_S, CalibratedTimer, Timer, Tracer, clock

    timer = Timer() if args.trace else CalibratedTimer()
    setups = []
    for _ in range(SETUP_REPEATS):
        with timer.job("setup") as job:
            workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        setups.append(job)

    measure_start = clock()
    base_round_s = None
    if args.trace:
        workload.round(timer)
        base_round_s = clock() - measure_start
        timer = Tracer()
        timer.install()
    deadline = measure_start + args.seconds
    rounds = []
    while True:
        mark = timer.mark() if args.trace else None
        start = clock()
        workload.round(timer)
        wall = clock() - start
        if args.trace:
            rounds.append({**timer.layer_totals(mark), **timer.gauges,
                           **workload.learn_counts, "trace.round_s": wall})
            timer.keep_spans = False
        # stop when the next round would end nearer past the deadline than before it
        if clock() + wall / 2 >= deadline:
            break
    workload.finish()

    outcomes = workload.outcomes
    failures, unexpected = outcomes.failures(), outcomes.unexpected()
    complete = bool(workload.jobs and workload.weigh_wcfg and workload.normalize)
    correct = complete and not unexpected
    if args.trace:
        metrics = per_layer(rounds, base_round_s)
        correct = correct and timer.sanity_violations == 0
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        timer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        print(f"traced rounds: {len(rounds)}; jobs whose span self times exceed "
              f"their wall time: {timer.sanity_violations}")
    elif complete:
        metrics = end_to_end(workload, setups, timer.scaled)
        unscaled = end_to_end(workload, setups, lambda job: job.wall)
        print(f"reference slice: median {timer.reference_median() * 1000:.3f} ms over "
              f"{len(timer.slices)} slices; times below are scaled to {REFERENCE_S * 1000:g} ms")
    else:
        metrics = {}
    for op, why in sorted(failures.items()):
        kind = "unexpected" if op in unexpected else "known"
        print(f"failed ({kind}) {op}: {why}")
    print(f"{args.workload}: {len(workload.jobs)} jobs, "
          f"{len(outcomes.status)} operations, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        beside = f"   (wall {unscaled[name][0]:.6g})" if not args.trace and complete else ""
        print(f"  {name:40s} {value:14.6g} {unit}{beside}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes.status),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; prints their reports and one
    JSON line whose metrics are named <workload>/<metric>."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skelgram" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no skelgram sources (src/skelgram, fixtures)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
