#!/usr/bin/env python3
"""bigkbench_smoke: every workload at a tiny size, checked for shape.

  python3 benchmark/smoke.py <path to bigkbench>

Runs each workload of workloads.json once, with its "smoke" overrides, one
untraced and one traced pass, and asserts that the result document has the
expected keys, exactly the metric names and units BENCHMARK.json lists, only
finite values, and no failed operation. Writes into ./smoke_out (ctest runs
it in the build tree).
"""
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (shares the workload and BENCHMARK.json loaders)


def check(condition, message):
    if not condition:
        sys.exit(f"smoke: {message}")


def main():
    check(len(sys.argv) == 2, "usage: smoke.py <bigkbench>")
    binary = sys.argv[1]
    bench = run.benchmark_spec()
    out_dir = os.path.join(os.getcwd(), "smoke_out")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    for name, spec in run.workload_specs().items():
        out = os.path.join(out_dir, f"{name}.json")
        args = [binary, "--workload", name, "--out", out,
                "--trace-out", os.path.join(out_dir, f"{name}.trace.json"),
                "--seconds", "0", "--min-passes", "1", "--setup-reps", "1",
                "--trace", "1"]
        settings = dict(spec["args"])
        settings.update(spec.get("smoke", {}))
        for key, value in settings.items():
            args += [f"--{key}", value]
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        check(proc.returncode == 0,
              f"{name}: bigkbench exited {proc.returncode}\n{proc.stdout}")
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        check(set(doc) >= {"workload", "config", "correct", "attempted",
                           "failed", "failed_ratio", "failures", "host",
                           "end_to_end", "per_layer"},
              f"{name}: missing top-level keys")
        check(doc["correct"] is True and doc["failed"] == 0 and
              doc["failed_ratio"] == 0 and doc["attempted"] > 0,
              f"{name}: failed operations: {doc['failures']}")
        for section in ("end_to_end", "per_layer"):
            expected = [(m["name"], m["unit"]) for m in bench[section]]
            got = [(k, v["unit"]) for k, v in doc[section].items()]
            check(got == expected,
                  f"{name}: {section} names/units differ from BENCHMARK.json")
            for key, metric in doc[section].items():
                check(set(metric) == {"value", "unit", "clock", "n"} and
                      metric["clock"] in ("virtual", "host") and
                      isinstance(metric["value"], (int, float)) and
                      math.isfinite(metric["value"]),
                      f"{name}: malformed metric {key}: {metric}")
        check(doc["end_to_end"]["sim_makespan_ms"]["value"] > 0,
              f"{name}: zero makespan")
        print(f"smoke: {name} ok ({doc['attempted']} operations)")
    print(f"smoke: all workloads ok in {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    main()
