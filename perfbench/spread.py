"""Repeat the benchmark over seeds and record medians, spreads and counts.

    python3 perfbench/spread.py [--record perfbench/baseline.json]

For every workload this runs ``run.py --trace 0`` once per seed (seeds 1 to
10), one run at a time, and reports each end-to-end metric's median,
quartiles and spread (interquartile distance over the median) against a
third of the bound in ``BENCHMARK.json``.  It then makes two runs with
``--trace 1`` on seed 1 and checks that every count repeats exactly.
With ``--record`` the results go to a JSON file together with the machine
facts and the line count of every ``src/pillowcase`` module.
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

RUNS = 10  # seeds per workload
TRACED = 2  # traced runs per workload, on one seed


def _bench(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return detail, json.loads(lines[-1])


def _summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread < bound / 3, "values": values}


def src_lines() -> dict[str, int]:
    files = sorted((ROOT / "src" / "pillowcase").glob("*.py"))
    counts = {f.name: len(f.read_text().splitlines()) for f in files}
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    record = {"src_lines": src_lines(), "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            detail, res = _bench(workload, seed, spec["run_seconds"], 0)
            record["facts"] = detail["facts"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in per_metric.items()},
                  detail["runs"][0]["record"], flush=True)
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {name: _summary(vals, bounds[name])
                                for name, vals in per_metric.items()}}
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} "
                  f"spread {s['spread']:.3%} (bound/3 "
                  f"{bounds[name] / 3:.3%})", flush=True)
            steady &= s["steady"]
        steady &= failed == 0

        # one seed, so that the counts must repeat exactly
        traced = [_bench(workload, 1, spec["run_seconds"], 1)
                  for _ in range(TRACED)]
        counts = [{k: m["value"] for k, m in res["metrics"].items()
                   if units[k] in ("count", "B")} for _, res in traced]
        entry["traced"] = {
            "failed": sum(res["failed"] for _, res in traced),
            "counts_repeat": all(c == counts[0] for c in counts),
            "overhead": [res["metrics"]["trace.overhead"]["value"]
                         for _, res in traced],
            "per_layer": {k: m["value"]
                          for k, m in traced[0][1]["metrics"].items()},
            "record": traced[0][0]["runs"][0]["record"],
        }
        print(f"  {workload} traced: counts repeat "
              f"{entry['traced']['counts_repeat']}, overhead "
              f"{entry['traced']['overhead']}", flush=True)
        steady &= (entry["traced"]["counts_repeat"]
                   and not entry["traced"]["failed"])
        record["workloads"][workload] = entry

    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
