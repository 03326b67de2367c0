#!/usr/bin/env python3
"""Schema check of a serve_throughput --metrics-json document.

Reads the document of the gated run (`serve_throughput --devices 2 --jobs 8
--cache --metrics-json=<file>`, written under ctest by
serve_throughput_document) and validates:
  * the top level carries "benchmark" == "serve_throughput", a positive
    "scale", a "results" array and a "counters" array,
  * every scenario of that run appears in "results" with a metrics object,
  * every "counters" entry names its type and name, and every gauge and
    counter has a numeric value.

The serve contracts (pool scaling, cache savings, fault recovery, spill,
integrity, resume vs restart, WFQ vs FIFO, fairness, autoscaling, and the
per-prefix gauge schema) are C++ tests over the benches' own scenario
catalogue: tests/bench/serve_contracts_test.cpp.

Usage: check_serve_bench.py <serve_throughput metrics json>
Exits non-zero with a diagnostic on the first violation.
"""

import json
import sys
from pathlib import Path

EXPECTED_RESULTS = [
    "serve/mixed/devices1",
    "serve/mixed/devices2",
    "serve/reuse/round-robin",
    "serve/reuse/app-affinity",
    "serve/reuse/app-affinity+cache",
    "serve/recover",
    "serve/shed",
    "serve/spill",
    "serve/dur/integrity",
    "serve/dur/resume",
    "serve/dur/restart",
]


def fail(message):
    print(f"check_serve_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <serve_throughput metrics json>")
    path = Path(sys.argv[1])
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")

    if document.get("benchmark") != "serve_throughput":
        fail(f'bad "benchmark" field: {document.get("benchmark")!r}')
    scale = document.get("scale")
    if not isinstance(scale, (int, float)) or scale <= 0:
        fail(f'bad "scale" field: {scale!r}')

    results = document.get("results")
    if not isinstance(results, list) or not results:
        fail('"results" is not a non-empty array')
    names = set()
    for entry in results:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            fail(f"malformed results entry: {entry!r}")
        if not isinstance(entry.get("metrics"), dict) or not entry["metrics"]:
            fail(f'result {entry["name"]!r} lacks a metrics object')
        names.add(entry["name"])
    for name in EXPECTED_RESULTS:
        if name not in names:
            fail(f"missing result {name!r} (have {sorted(names)})")

    counters = document.get("counters")
    if not isinstance(counters, list):
        fail('"counters" is not an array')
    for entry in counters:
        if not isinstance(entry, dict) or "type" not in entry or "name" not in entry:
            fail(f"malformed counters entry: {entry!r}")
        if entry["type"] in ("gauge", "counter"):
            value = entry.get("value")
            if not isinstance(value, (int, float)):
                fail(
                    f'{entry["type"]} {entry["name"]!r} has non-numeric '
                    f"value: {value!r}"
                )

    print(
        f"check_serve_bench: OK: {len(results)} results, "
        f"{len(counters)} counters entries"
    )


if __name__ == "__main__":
    main()
