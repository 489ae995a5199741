"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed (seeds ``--first-seed``
onwards), takes each end-to-end metric's median and quartiles, and reports
the quartile spread as a share of the median next to the metric's bound
in BENCHMARK.json. ``--traced`` adds one traced run per workload at the
default seed, whose per-layer table is stored with the summary. Runs are
sequential, so each has the machine to itself.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {"result": json.loads(lines[-1]), "record": record}


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per workload at the default seed")
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry: dict[str, object] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "attempted": attempted, "failed": failed,
            "facts": runs[0]["record"]["facts"],
            "end_to_end": {}, "named": {},
        }
        print(f"{workload}: {attempted} operations, {failed} failed")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = summarise(values)
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            stats["values"] = values
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- spread"
            print(f"  {name:14s} median {stats['median']:12.6g} {stats['unit']:5s} "
                  f"spread {stats['spread']:7.2%} (bound {bound}){flag}")
        for key, value in runs[0]["record"]["named"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values = [r["record"]["named"].get(key) for r in runs]
                if all(isinstance(v, (int, float)) for v in values):
                    entry["named"][key] = statistics.median(values)
        if args.traced:
            traced = run_once(workload, 1, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in
                                  traced["result"]["metrics"].items()}
            entry["traced_named"] = traced["record"]["named"]
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
