#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at a tiny size (--size tiny),
untraced and traced, and asserts that each run exits 0, passes every
correctness check, and prints every metric BENCHMARK.json names for that
mode, with its unit.  Takes well under a minute on one core.
"""

import json
import subprocess
import sys


def check(mode, workload, spec_metrics):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", mode, "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correctness: {proc.stderr.strip()[-1000:]}")
    printed = result.get("metrics", {})
    for m in spec_metrics:
        got = printed.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(printed) - {m["name"] for m in spec_metrics}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for mode, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            problems = check(mode, w["name"], metrics)
            status = "ok" if not problems else "FAIL"
            print(f"{status}  {w['name']} --trace {mode}")
            for p in problems:
                print(f"      {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
