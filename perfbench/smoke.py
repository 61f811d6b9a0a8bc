#!/usr/bin/env python3
"""Quick smoke test of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` for each workload untraced and traced, from the root
of the checkout, and checks that each run exits 0, reports ``correct``,
fails no op, and prints exactly the metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{where}: metrics {printed} differ from BENCHMARK.json {declared[trace]}")
            elif trace and result["metrics"]["tomography.evaluate.calls_per_op"]["value"] != 1:
                problems.append(f"{where}: the evaluator is not called exactly once per pipeline run")
            print(f"ok  {where}: {result['attempted']} ops")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
