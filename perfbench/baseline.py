#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 0..9

For each workload in ``BENCHMARK.json``: one untraced run per seed, then one
traced run on the first seed, each for ``run_seconds``.  Prints, for every
end-to-end metric, the median and the quartile spread ((q3 - q1) / median)
next to the metric's bound, flags a metric whose spread is wider than its
bound as unresolved, and writes everything to ``perfbench/baseline.json``.
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


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info, result


def summarise(values: list[float], bound: float) -> dict:
    """Median, quartiles and quartile spread of one metric's runs.  The
    metric is unresolved when its spread is wider than its bound: a change
    within the bound cannot then be told from run-to-run noise."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "unresolved": spread > bound, "values": values}


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, default=list(range(10)))
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        all_correct = True
        for seed in args.seeds:
            info, result = bench(workload, seed, seconds, 0)
            summary["machine"] = info["machine"]
            attempted += result["attempted"]
            failed += result["failed"]
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.3f}", flush=True)
        entry = {"correct": all_correct, "attempted": attempted, "failed": failed,
                 "end_to_end": {name: summarise(v, bounds[name])
                                for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{'  UNRESOLVED' if s['unresolved'] else ''}",
                  flush=True)
        _, traced = bench(workload, args.seeds[0], seconds, 1)
        entry["traced_seed"] = args.seeds[0]
        entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        entry["correct"] &= traced["correct"]
        summary["workloads"][workload] = entry
    (BENCH_DIR / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
