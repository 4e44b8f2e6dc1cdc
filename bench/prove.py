#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/prove.py --seeds 1-10 [--workload NAME ...] [--trace 1]
                           [--out bench/results/BENCH_label.json]

Runs ``bench/run.py`` once per (seed, workload), cycling through the
workloads for each seed, and prints for every metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e.
the distance between the quartiles as a share of the median. An
end-to-end metric is marked steady when its spread is below a third of
its bound in ``BENCHMARK.json``. ``--out`` keeps every run's result and
the summary in one file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        for name in workloads:
            cmd = [sys.executable, *spec["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # the result file holds the metrics the last line leaves out
            path = next(line.split(": ", 1)[1] for line in lines
                        if line.startswith("# result file: "))
            full = json.loads((ROOT / path).read_text())
            environment = full["environment"]
            runs.append({
                "workload": name, "seed": seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in full["metrics"].items()},
            })
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()
                              if k in bounds)
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    summary = {}
    steady = True
    for name in workloads:
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {}
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric] for r in mine]
            if len(values) < 2:
                continue
            stats = summarize(values)
            summary[name][metric] = stats
            if metric in bounds:
                ok = stats["spread"] < bounds[metric] / 3
                steady &= ok
                print(f"{name:20s} {metric:12s} median={stats['median']:.4g} "
                      f"q1={stats['q1']:.4g} q3={stats['q3']:.4g} "
                      f"spread={stats['spread']:.3f} bound={bounds[metric]} "
                      f"{'ok' if ok else 'WIDE'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"environment": environment, "run_seconds": spec["run_seconds"],
             "trace": args.trace, "summary": summary, "runs": runs},
            indent=1) + "\n")
    if args.trace:
        print("per-layer metrics have no bounds")
    else:
        print("all steady" if steady else "some spreads are wide")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
