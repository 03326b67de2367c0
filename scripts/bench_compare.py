#!/usr/bin/env python3
"""Perf-regression gate over a bench baseline (bench/BENCH_fig4a.json for
fig4a_speedup, bench/BENCH_serve.json for serve_throughput).

Builds the current entries from a bench's --metrics-json results array and
fails (exit 1) on any regression outside tolerance against the committed
baseline:

  * total_ms / per-stage stage_busy_ms: current may not exceed baseline by
    more than --tolerance (default 2%),
  * the serve results' gauges, read from the document's `<prefix>.*`
    gauges, where <prefix> is the result name with '/' -> '.' (fig4a
    results have none, so their entries carry none of these fields):
      - latency_p50_ms / latency_p99_ms (`<prefix>.latency_*_ms`) and
        breakdown_ms, the five-part latency breakdown
        (`<prefix>.breakdown.{admission,queue,staging,execution,
        writeback}_ms`): one-sided at --tolerance like total_ms,
      - goodput_jobs_per_s (`<prefix>.load.goodput_jobs_per_s`): may not
        fall by more than --tolerance below the baseline,
      - utilization, one value per device (`<prefix>.dev<N>.utilization`):
        within --bytes-tolerance of the baseline in either direction, like
        the byte counts,
  * bottleneck_stage: must match the baseline exactly (a flipped limiting
    stage is an attribution regression even when the total holds),
  * overlap_efficiency: may not drop more than --overlap-drop (default 0.02)
    below the baseline,
  * h2d_bytes / d2h_bytes: must stay within --bytes-tolerance (default 0.5%)
    of the baseline in either direction (traffic is deterministic; any drift
    means the pipeline changed what it moves),
  * chunks: exact match (chunking is a pure function of config + input),
  * the entry sets must agree: a scenario missing from either side fails.

The simulation is deterministic, so running the gate twice on the same build
must report zero regressions; improvements (current faster than baseline)
never fail, they are just reported.

Usage:
  bench_compare.py --baseline bench/BENCH_serve.json --current metrics.json
  bench_compare.py --baseline bench/BENCH_fig4a.json \
                   --bench build/bench/fig4a_speedup --scale 0.001
  bench_compare.py ... --update        # rewrite the baseline and exit 0

With --bench, the binary is run with BIGK_SCALE=<scale> and
--metrics-json=<tmpfile> to produce the current document. With --current,
the document is one a bench run already wrote (under ctest,
bench_serve_gate reads the serve_throughput document that
serve_throughput_document writes once).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(message):
    print(f"bench_compare: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")


def load_document(path):
    document = read_json(path)
    for key in ("benchmark", "schema", "entries"):
        if key not in document:
            fail(f'{path}: missing "{key}" field')
    if document["schema"] != 1:
        fail(f'{path}: unsupported schema {document["schema"]!r}')
    if not isinstance(document["entries"], dict) or not document["entries"]:
        fail(f'{path}: "entries" is not a non-empty object')
    return document


LATENCIES = ("latency_p50_ms", "latency_p99_ms")
BREAKDOWN = ("admission", "queue", "staging", "execution", "writeback")


def serve_fields(prefix, gauges):
    """The gated serve gauges of the result whose gauges start with
    `prefix`: none for a result that exports none (fig4a)."""
    fields = {}
    for metric in LATENCIES:
        if f"{prefix}.{metric}" in gauges:
            fields[metric] = gauges[f"{prefix}.{metric}"]
    if f"{prefix}.load.goodput_jobs_per_s" in gauges:
        fields["goodput_jobs_per_s"] = gauges[
            f"{prefix}.load.goodput_jobs_per_s"]
    breakdown = {
        part: gauges[f"{prefix}.breakdown.{part}_ms"]
        for part in BREAKDOWN
        if f"{prefix}.breakdown.{part}_ms" in gauges
    }
    if breakdown:
        fields["breakdown_ms"] = breakdown
    device = re.compile(re.escape(prefix) + r"\.dev(\d+)\.utilization")
    utilization = sorted(
        (int(match.group(1)), value)
        for match, value in ((device.fullmatch(name), value)
                             for name, value in gauges.items())
        if match
    )
    if utilization:
        fields["utilization"] = {f"dev{n}": value for n, value in utilization}
    return fields


def entries_from_metrics(path):
    """The gated fields of every result in a --metrics-json document, as a
    baseline-schema document."""
    metrics = read_json(path)
    gauges = {
        counter["name"]: counter["value"]
        for counter in metrics.get("counters", [])
        if counter.get("type") == "gauge"
    }
    entries = {}
    for result in metrics.get("results", []):
        run = result["metrics"]
        entry = {
            "total_ms": run["total_ms"],
            "bottleneck_stage": run["prof"]["bottleneck_stage"],
            "overlap_efficiency": run["prof"]["overlap_efficiency"],
            "stage_busy_ms": run["engine"]["stage_busy_ms"],
            "h2d_bytes": run["h2d_bytes"],
            "d2h_bytes": run["d2h_bytes"],
            "chunks": run["engine"]["chunks"],
        }
        entry.update(serve_fields(result["name"].replace("/", "."), gauges))
        entries[result["name"]] = entry
    if not entries:
        fail(f'{path}: "results" is empty')
    return {
        "benchmark": metrics["benchmark"],
        "scale": metrics["scale"],
        "schema": 1,
        "entries": entries,
    }


def serialize(value):
    """Compact JSON with numbers formatted as obs::json_number formats them
    (integral values without a fraction, others to 9 significant digits), so
    a document rewritten from the same run is byte-identical."""
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{serialize(key)}:{serialize(item)}" for key, item in value.items()
        ) + "}"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, float) and not value.is_integer():
        return "%.9g" % value
    return str(int(value))


def run_bench(binary, scale, out_path, extra_args):
    binary = Path(binary).resolve()
    if not binary.exists():
        fail(f"bench binary not found: {binary}")
    env = dict(os.environ)
    if scale is not None:
        env["BIGK_SCALE"] = str(scale)
    command = [str(binary), f"--metrics-json={out_path}"] + list(extra_args)
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=1200, env=env
    )
    if result.returncode != 0:
        fail(
            f"{binary.name} exited {result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    if not Path(out_path).exists():
        fail(f"{binary.name} wrote no metrics document to {out_path}")


def compare_entry(key, base, cur, args, problems):
    def record(metric, detail):
        problems.append(f"{key}: {metric}: {detail}")

    # Timing: one-sided (slower than baseline + tolerance fails; faster is an
    # improvement, never a failure).
    # Only serve entries carry the latency percentiles.
    for metric in ["total_ms"] + [m for m in LATENCIES if m in base]:
        if metric not in cur:
            record(metric, "missing from current")
            continue
        if cur[metric] > base[metric] * (1.0 + args.tolerance):
            record(
                metric,
                f"{cur[metric]:.6f} exceeds baseline "
                f"{base[metric]:.6f} by more than {args.tolerance:.1%}",
            )
    # Per-stage and per-part times: one-sided like total_ms. Only serve
    # entries carry the breakdown.
    for field, part_name in (("stage_busy_ms", "stage"),
                             ("breakdown_ms", "part")):
        for part, base_ms in base.get(field, {}).items():
            cur_ms = cur.get(field, {}).get(part)
            if cur_ms is None:
                record(field, f"{part_name} {part!r} missing from current")
                continue
            if cur_ms > base_ms * (1.0 + args.tolerance) + 1e-9:
                record(
                    f"{field}[{part}]",
                    f"{cur_ms:.6f} exceeds baseline {base_ms:.6f} "
                    f"by more than {args.tolerance:.1%}",
                )

    # Goodput: one-sided the other way (lower than baseline - tolerance
    # fails).
    if "goodput_jobs_per_s" in base:
        base_goodput = base["goodput_jobs_per_s"]
        cur_goodput = cur.get("goodput_jobs_per_s")
        if cur_goodput is None:
            record("goodput_jobs_per_s", "missing from current")
        elif cur_goodput < base_goodput * (1.0 - args.tolerance):
            record(
                "goodput_jobs_per_s",
                f"{cur_goodput:.6f} falls below baseline "
                f"{base_goodput:.6f} by more than {args.tolerance:.1%}",
            )

    # Attribution: the limiting stage and the overlap quality must hold.
    if cur["bottleneck_stage"] != base["bottleneck_stage"]:
        record(
            "bottleneck_stage",
            f"{cur['bottleneck_stage']!r} != baseline "
            f"{base['bottleneck_stage']!r}",
        )
    if cur["overlap_efficiency"] < base["overlap_efficiency"] - args.overlap_drop:
        record(
            "overlap_efficiency",
            f"{cur['overlap_efficiency']:.4f} dropped more than "
            f"{args.overlap_drop} below baseline "
            f"{base['overlap_efficiency']:.4f}",
        )

    # Traffic: two-sided (the simulation is deterministic; any drift beyond
    # tolerance means the pipeline moves different bytes).
    for metric in ("h2d_bytes", "d2h_bytes"):
        base_bytes = base[metric]
        cur_bytes = cur[metric]
        band = base_bytes * args.bytes_tolerance
        if abs(cur_bytes - base_bytes) > band:
            record(
                metric,
                f"{cur_bytes} outside +/-{args.bytes_tolerance:.2%} of "
                f"baseline {base_bytes}",
            )
    # Device utilization: two-sided, like the traffic it follows from.
    for device, base_util in base.get("utilization", {}).items():
        cur_util = cur.get("utilization", {}).get(device)
        if cur_util is None:
            record("utilization", f"device {device!r} missing from current")
            continue
        if abs(cur_util - base_util) > base_util * args.bytes_tolerance:
            record(
                f"utilization[{device}]",
                f"{cur_util:.6f} outside +/-{args.bytes_tolerance:.2%} of "
                f"baseline {base_util:.6f}",
            )
    if cur["chunks"] != base["chunks"]:
        record("chunks", f"{cur['chunks']} != baseline {base['chunks']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed bench/BENCH_*.json to compare "
                             "against")
    parser.add_argument("--current",
                        help="--metrics-json document produced by this build")
    parser.add_argument("--bench",
                        help="bench binary to run (writes the current "
                             "document itself via --metrics-json)")
    parser.add_argument("--scale", type=float,
                        help="BIGK_SCALE for --bench (default: environment)")
    parser.add_argument("--bench-args", nargs=argparse.REMAINDER, default=[],
                        help="extra arguments forwarded to --bench")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative slowdown allowed on total_ms, "
                             "stage_busy_ms and the serve latency "
                             "percentiles and breakdown, and relative "
                             "goodput drop allowed (default 0.02)")
    parser.add_argument("--overlap-drop", type=float, default=0.02,
                        help="absolute overlap_efficiency drop allowed "
                             "(default 0.02)")
    parser.add_argument("--bytes-tolerance", type=float, default=0.005,
                        help="relative two-sided band on h2d/d2h bytes "
                             "and device utilization (default 0.005)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current document "
                             "instead of comparing")
    args = parser.parse_args()

    if bool(args.current) == bool(args.bench):
        fail("exactly one of --current / --bench is required")

    with tempfile.TemporaryDirectory() as tmp:
        current_path = args.current
        if args.bench:
            current_path = Path(tmp) / "metrics.json"
            run_bench(args.bench, args.scale, current_path, args.bench_args)
        current = entries_from_metrics(current_path)

    if args.update:
        Path(args.baseline).write_text(serialize(current) + "\n")
        print(f"bench_compare: baseline updated: {args.baseline} "
              f"({len(current['entries'])} entries)")
        return

    baseline = load_document(args.baseline)

    if baseline["benchmark"] != current["benchmark"]:
        fail(
            f"benchmark mismatch: baseline {baseline['benchmark']!r} vs "
            f"current {current['benchmark']!r}"
        )
    if baseline.get("scale") != current.get("scale"):
        fail(
            f"scale mismatch: baseline {baseline.get('scale')!r} vs current "
            f"{current.get('scale')!r} (rerun with the baseline's BIGK_SCALE "
            "or regenerate with --update)"
        )

    problems = []
    base_entries = baseline["entries"]
    cur_entries = current["entries"]
    for key in sorted(base_entries):
        if key not in cur_entries:
            problems.append(f"{key}: missing from current run")
            continue
        compare_entry(key, base_entries[key], cur_entries[key], args, problems)
    for key in sorted(cur_entries):
        if key not in base_entries:
            problems.append(
                f"{key}: not in baseline (regenerate with --update)"
            )

    compared = len(set(base_entries) & set(cur_entries))
    if problems:
        print(
            f"bench_compare: {len(problems)} regression(s) across "
            f"{compared} compared entries:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        sys.exit(1)
    print(
        f"bench_compare: OK: {compared} entries within tolerance "
        f"(total_ms/stage/latency/breakdown +{args.tolerance:.1%}, goodput "
        f"-{args.tolerance:.1%}, bytes/utilization "
        f"+/-{args.bytes_tolerance:.2%}, overlap -{args.overlap_drop})"
    )


if __name__ == "__main__":
    main()
