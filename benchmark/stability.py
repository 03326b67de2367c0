#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to judge a change by.

  python3 benchmark/stability.py --sets 2 [--seeds 10] [--workloads a,b]

Runs the whole benchmark --sets times. A set runs every workload once per
seed 1..--seeds, each run in its own process through run.py. For every
(workload, metric) it prints each set's median and quartiles over the seeds,
the interquartile range as a share of the median, and the largest max/min
spread of one seed's values across sets. It fails when
  - a virtual metric differs by a single bit between two sets (same seed);
  - a host metric's max/min spread across sets exceeds its bound;
  - with 4 or more seeds, a metric's interquartile range exceeds its bound;
    a range above a third of the bound is marked "> bound/3" as a warning;
    setup_s is exempt from these two checks (host noise on a short phase);
  - a later set's median is worse than the first set's by more than the
    bound.
Bounds and directions come from BENCHMARK.json.
"""
import argparse
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (shares the loaders and output paths)


def one_run(workload, seed, seconds, log):
    """Runs run.py for one workload and seed; returns its end-to-end block."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"stability: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}); see {log.name}")
    return run.load_json(os.path.join(run.OUT_DIR, f"{workload}.json"))[
        "end_to_end"]


def worse(value, reference, better):
    """Relative change of `value` against `reference`, positive = worse."""
    if reference == 0:
        return 0.0
    change = (value - reference) / abs(reference)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per run (default: run_seconds)")
    opts = parser.parse_args()
    if opts.sets < 1 or opts.seeds < 1:
        sys.exit("stability: --sets and --seeds must be >= 1")

    bench = run.benchmark_spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    log_path = os.path.join(run.OUT_DIR, "stability.log")

    # samples[workload][metric][set][seed] = (value, clock)
    samples = {w: {m: [[None] * opts.seeds for _ in range(opts.sets)]
                   for m in metrics} for w in workloads}
    with open(log_path, "w", encoding="utf-8") as log:
        for s in range(opts.sets):
            for w in workloads:
                for seed in range(1, opts.seeds + 1):
                    block = one_run(w, seed, opts.seconds, log)
                    for m in metrics:
                        samples[w][m][s][seed - 1] = (block[m]["value"],
                                                      block[m]["clock"])
                    print(f"set {s + 1} {w} seed {seed}: wall_s "
                          f"{block['wall_s']['value']:.3f}", flush=True)

    problems = []
    for w in workloads:
        print(f"\n== {w}")
        print(f"  {'metric':20s} {'set':>3s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'iqr/med':>8s} {'sets max/min':>12s} "
              f"{'bound':>6s}")
        for m, spec in metrics.items():
            bound = spec["bound"]
            per_set = samples[w][m]
            clock = per_set[0][0][1]
            spread = 0.0
            for seed in range(opts.seeds):
                values = [per_set[s][seed][0] for s in range(opts.sets)]
                if clock == "virtual" and len({repr(v) for v in values}) > 1:
                    problems.append(f"{w} {m} seed {seed + 1}: virtual value "
                                    f"changed between sets: {values}")
                low, high = min(values), max(values)
                if low > 0:
                    spread = max(spread, high / low - 1.0)
            if clock == "host" and m != "setup_s" and spread > bound:
                problems.append(f"{w} {m}: host spread {spread:.3f} across "
                                f"sets exceeds bound {bound}")
            first_median = None
            for s in range(opts.sets):
                values = [v for v, _ in per_set[s]]
                med = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4)
                             if len(values) >= 2 else (med, med, med))
                iqr = (q3 - q1) / med if med else 0.0
                note = " > bound/3" if iqr > bound / 3 else ""
                print(f"  {m:20s} {s + 1:3d} {med:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {iqr:8.4f} {spread:12.4f} {bound:6.3f}"
                      f"{note}")
                if opts.seeds >= 4 and m != "setup_s" and iqr > bound:
                    problems.append(f"{w} {m} set {s + 1}: iqr/median "
                                    f"{iqr:.4f} exceeds bound {bound}")
                if first_median is None:
                    first_median = med
                elif worse(med, first_median, spec["better"]) > bound:
                    problems.append(f"{w} {m} set {s + 1}: median {med:.6g} "
                                    f"is worse than set 1's {first_median:.6g}"
                                    f" by more than {bound}")

    print()
    for problem in problems:
        print(f"UNSTABLE: {problem}")
    print("stability: " + ("FAILED" if problems else "ok") +
          f" ({opts.sets} sets x {opts.seeds} seeds x {len(workloads)} "
          f"workloads; log: {log_path})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
