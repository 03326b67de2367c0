#!/usr/bin/env python3
"""Compares two bigkbench binaries over interleaved pairs of runs.

  python3 scripts/bench_pairs.py --parent A/.bench_build/bigkbench \\
      --change B/.bench_build/bigkbench --workloads serve-open --pairs 10

Pair i runs both binaries at seed --first-seed + i, the change first on odd
seeds, each run with the settings benchmark/run.py gives the workload (the
script imports run.py and changes nothing under benchmark/). Build each
binary in its own checkout, e.g. with `python3 benchmark/run.py --seconds 1`,
which leaves it in that checkout's .bench_build/.

For every end-to-end metric it prints the parent's and the change's medians
with quartiles, their ratio and how many pairs the change won (direction from
BENCHMARK.json). It flags every virtual metric that is not bit-identical
between the two runs of a seed, and prints the host columns behind wall_s
(host.raw_wall_s, host.probe_ms) and each binary's SpanLog::probe address
mod 32, with a warning when the two differ: the host probe that scales
setup_s and wall_s reads differently at 0 and 16 mod 32.

Each run's document goes to --out-dir, its bigkbench output to a .log file
beside it. The exit code is 1 when a virtual metric differs or a run is not
correct, else 0.
"""
import argparse
import contextlib
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "benchmark"))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the workload settings and the run helper)

HOST_COLUMNS = ("raw_wall_s", "probe_ms")


def probe_address(binary):
    """SpanLog::probe's address in `binary`, or None when nm cannot tell."""
    try:
        out = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    for line in out.splitlines():
        if line.endswith("SpanLog::probe()"):
            return int(line.split()[0], 16)
    return None


def summary(values):
    """(median, first quartile, third quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def fmt(value):
    return f"{value:.6g}"


def one_run(label, binary, workload, spec, seed, seconds, out_dir):
    """Runs `binary` once; returns its document."""
    args = run.bigkbench_args(workload, spec, seed, seconds, trace=False)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-{label}")
    args[args.index("--out") + 1] = stem + ".json"
    with open(stem + ".log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log):
        doc = run.run_workload(binary, args)
    e2e = doc["end_to_end"]
    print(f"  seed {seed} {label:6}: peak_rss_mb {fmt(e2e['peak_rss_mb']['value'])}"
          f"  wall_s {fmt(e2e['wall_s']['value'])}"
          f"  setup_s {fmt(e2e['setup_s']['value'])}"
          f"  raw_wall_s {fmt(doc['host']['raw_wall_s'])}"
          f"  probe_ms {fmt(doc['host']['probe_ms'])}"
          f"  correct {str(doc['correct']).lower()} failed {doc['failed']}",
          flush=True)
    return doc


def report(workload, seeds, docs, metrics):
    """Prints one workload's comparison; returns False on a virtual
    difference or an incorrect run."""
    ok = True
    print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"  {'metric':22} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'ratio':>7}  change better")
    for metric in metrics:
        name = metric["name"]
        parent = [docs[s]["parent"]["end_to_end"][name]["value"] for s in seeds]
        change = [docs[s]["change"]["end_to_end"][name]["value"] for s in seeds]
        clock = docs[seeds[0]]["parent"]["end_to_end"][name]["clock"]
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pm, pq1, pq3 = summary(parent)
        cm, cq1, cq3 = summary(change)
        ratio = f"{cm / pm:.3f}x" if pm else "-"
        print(f"  {name:22} {fmt(pm) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':34} "
              f"{fmt(cm) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':34} "
              f"{ratio:>7}  {wins}/{len(seeds)} (ties {ties})")
        if clock == "virtual":
            for seed, p, c in zip(seeds, parent, change):
                if p != c:
                    ok = False
                    print(f"  VIRTUAL METRIC DIFFERS: {name} at seed {seed}: "
                          f"parent {p!r}, change {c!r}")
    for column in HOST_COLUMNS:
        parent = [docs[s]["parent"]["host"][column] for s in seeds]
        change = [docs[s]["change"]["host"][column] for s in seeds]
        pm, pq1, pq3 = summary(parent)
        cm, cq1, cq3 = summary(change)
        print(f"  host.{column:17} {fmt(pm) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':34} "
              f"{fmt(cm) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':34}")
    for seed in seeds:
        for label in ("parent", "change"):
            doc = docs[seed][label]
            if not doc["correct"] or doc["failed"]:
                ok = False
                print(f"  RUN NOT CORRECT: {label} seed {seed}: failed "
                      f"{doc['failed']}, failures {doc['failures'][:3]}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="bigkbench binary")
    parser.add_argument("--change", required=True, help="bigkbench binary")
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--out-dir", default=os.path.join(run.OUT_DIR, "pairs"))
    opts = parser.parse_args()
    if opts.pairs < 1:
        sys.exit("bench_pairs: --pairs must be >= 1")

    bench = run.benchmark_spec()
    specs = run.workload_specs()
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    for workload in workloads:
        if workload not in specs:
            sys.exit(f"bench_pairs: unknown workload {workload!r}")
    binaries = {"parent": os.path.abspath(opts.parent),
                "change": os.path.abspath(opts.change)}
    for label, binary in binaries.items():
        if not os.access(binary, os.X_OK):
            sys.exit(f"bench_pairs: {label} binary {binary} is not executable")
    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]
    os.makedirs(opts.out_dir, exist_ok=True)

    probes = {label: probe_address(b) for label, b in binaries.items()}
    for label, address in probes.items():
        where = "not found" if address is None else \
            f"{address:#x} ({address % 32} mod 32)"
        print(f"SpanLog::probe in the {label}: {where}")
    if None not in probes.values() and \
            probes["parent"] % 32 != probes["change"] % 32:
        print("WARNING: SpanLog::probe sits at a different address mod 32 in "
              "the two binaries; setup_s and wall_s are scaled by a probe that "
              "reads differently at 0 and 16 mod 32, so compare them by "
              "host.raw_wall_s as well")

    ok = True
    for workload in workloads:
        print(f"== {workload}", flush=True)
        seeds = list(range(opts.first_seed, opts.first_seed + opts.pairs))
        docs = {}
        for seed in seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            docs[seed] = {label: one_run(label, binaries[label], workload,
                                         specs[workload], seed, seconds,
                                         opts.out_dir)
                          for label in order}
        ok = report(workload, seeds, docs, bench["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
