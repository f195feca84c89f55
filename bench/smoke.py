#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at its smallest run length.

    python3 bench/smoke.py

Run from the root of a checkout (about 105 s).  For every workload, in both
modes, it runs run.py with --seconds 1 and asserts that the last line of
output is the result object, that every metric BENCHMARK.json declares is
emitted with its unit, that end-to-end metrics are positive, and that no
operation failed.  It then copies only BENCHMARK.json and the benchmark's
directory elsewhere and asserts that run.py exits non-zero there without a
result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(workload, trace, ROOT)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"ops_failed_frac is not 0: {result['failed']}/{result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    for metric in declared:
        entry = result["metrics"].get(metric["name"])
        if entry is None or entry.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: missing or wrong unit: {entry!r}")
        elif not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{metric['name']}: value {entry['value']!r}")
        elif not trace and entry["value"] <= 0:
            problems.append(f"{metric['name']}: end-to-end value {entry['value']!r} <= 0")
    if len(result["metrics"]) != len(declared):
        problems.append("undeclared metrics emitted")
    return problems


def check_without_sources(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("cli-session", 0, bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(workload, trace, spec)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}: {workload} --trace {trace}")
            for problem in problems:
                print(f"    {problem}")
    problems = check_without_sources(spec)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok'}: exits non-zero without sources")
    for problem in problems:
        print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
