#!/usr/bin/env python3
"""Builds bigkbench and runs the end-to-end benchmark (see README.md).

  python3 benchmark/run.py                 # every workload, one after another
  python3 benchmark/run.py --trace         # the same, with per-layer spans
  python3 benchmark/run.py --workload serve-open --seed 3 --seconds 10 --trace 0

Each workload runs in its own single-threaded bigkbench process, with the
settings benchmark/workloads.json gives it. The build goes to .bench_build/
and each run's JSON document (plus its span file when traced) to .bench_out/,
both at the root of the checkout. The last line of standard output is one
JSON object; with --workload it is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics, or the per-layer ones with --trace 1.
The exit code is 0 only when every output checked out.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run measures --seconds plus its setup; anything near this is a hang.
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def workload_specs():
    return load_json(os.path.join(HERE, "workloads.json"))


def build():
    """Configures and builds bigkbench; returns the binary's path. Both steps
    are cheap when the build tree is current."""
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "bigkbench", "-j", jobs]]
    log_path = os.path.join(OUT_DIR, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(f"run.py: build failed (log: {log_path})")
    return os.path.join(BUILD_DIR, "bigkbench")


def bigkbench_args(name, spec, seed, seconds, trace, overrides=None):
    """The command line for one workload run (without the binary)."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
            "--out", os.path.join(OUT_DIR, f"{name}.json")]
    if trace:
        args += ["--trace-out", os.path.join(OUT_DIR, f"{name}.trace.json")]
    settings = dict(spec["args"])
    settings.update(overrides or {})
    for key, value in settings.items():
        args += [f"--{key}", str(value)]
    return args


def run_workload(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs bigkbench, echoing its output; returns its JSON document."""
    out_path = args[args.index("--out") + 1]
    if os.path.exists(out_path):
        os.remove(out_path)
    # The benchmark takes every setting from its flags, never from BIGK_*.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BIGK_")}
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bigkbench did not finish within {timeout} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        sys.exit(f"run.py: bigkbench exited with code {proc.returncode}")
    return load_json(out_path)


def check_schema(doc, bench, trace):
    """Fails unless the document holds exactly the catalogued metrics."""
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    got = doc[section]
    if list(got) != list(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        sys.exit(f"run.py: {section} metrics differ from BENCHMARK.json: "
                 f"missing {missing}, unexpected {extra}")
    for name, metric in got.items():
        value = metric["value"]
        if metric["unit"] != expected[name]:
            sys.exit(f"run.py: {name} has unit {metric['unit']}, "
                     f"BENCHMARK.json says {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"run.py: {name} is not a finite number: {value!r}")
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in got.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced run")
    opts = parser.parse_args()

    bench = benchmark_spec()
    specs = workload_specs()
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(specs):
        sys.exit("run.py: BENCHMARK.json and workloads.json list different "
                 "workloads")
    if opts.workload is not None and opts.workload not in specs:
        sys.exit(f"run.py: unknown workload {opts.workload!r}; "
                 f"valid: {', '.join(names)}")
    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]

    binary = build()
    results = {}
    correct = True
    for name in [opts.workload] if opts.workload else names:
        print(f"== {name}", flush=True)
        doc = run_workload(binary, bigkbench_args(
            name, specs[name], opts.seed, seconds, opts.trace))
        metrics = check_schema(doc, bench, opts.trace)
        correct = correct and doc["correct"]
        results[name] = {"correct": doc["correct"],
                         "attempted": doc["attempted"],
                         "failed": doc["failed"], "metrics": metrics}

    if opts.workload:
        print(json.dumps(results[opts.workload]))
    else:
        print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
