#!/usr/bin/env python3
"""Self-check of the benchmark on tiny sizes of all three workloads.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

For each workload it runs perfbench/run.py with ``--size tiny`` untraced and
traced, and checks that the result line is well formed, that its metric
names and units are those of BENCHMARK.json, that the run counted no failed
sample, and that no span outlasts its parent.  Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metric names or units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    if trace:
        spans_line = [line for line in lines if line.startswith("spans=")]
        spans = json.loads(Path(spans_line[-1][6:]).read_text())["spans"]
        for s in spans:
            if s["parent"] is None:
                continue
            parent = spans[s["parent"]]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"{where}: span {s['name']} outlasts its parent "
                                f"{parent['name']}")
        if not spans:
            problems.append(f"{where}: no spans recorded")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check(workload, trace, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
