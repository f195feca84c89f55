#!/usr/bin/env python3
"""Summarize benchmark results across runs.

    python3 bench/summarize.py [--out summary.json] [RESULT.json ...]

Reads the records run.py writes (default: every .bench_out/results/*.json
that is not a spans file), groups them by workload and trace mode, and
prints for each metric the median over runs, its quartiles and the
quartile spread as a share of the median, the figure BENCHMARK.json bounds
are compared with.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import quartiles


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for record in records:
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    summary = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            q = quartiles(values)
            metrics[name] = {
                "unit": entry["unit"], "median": q["median"], "q1": q["q1"], "q3": q["q3"],
                "spread": (q["q3"] - q["q1"]) / q["median"] if q["median"] else None,
                "values": values,
            }
        summary[f"{workload}/trace{trace}"] = {
            "runs": len(runs),
            "seeds": [run["environment"]["seed"] for run in runs],
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "environment": {k: v for k, v in runs[0]["environment"].items() if k != "seed"},
            "metrics": metrics,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    paths = args.results or sorted(
        p for p in Path(".bench_out/results").glob("*.json") if not p.stem.endswith("-spans"))
    if not paths:
        print("error: no result files", file=sys.stderr)
        return 2
    summary = summarize([json.loads(p.read_text("utf-8")) for p in paths])
    for group, entry in summary.items():
        print(f"{group}: {entry['runs']} runs, seeds {entry['seeds']}, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:42s} {m['median']:>14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
