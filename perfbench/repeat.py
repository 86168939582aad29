"""Run the benchmark untraced once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 0-9 --seconds S [--json PATH]

For every metric this prints the median over the runs and the distance
between the first and third quartiles as a share of the median, which is
the spread the bounds in BENCHMARK.json are judged against.  With
``--json PATH`` the summary and the per-run results are written to PATH.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values) -> dict:
    """Median, quartiles and interquartile distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            result = json.loads(last[0])
        except ValueError:
            result = {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: attempted {result.get('attempted')} "
              f"failed {result.get('failed')}", flush=True)

    table = {}
    for name, first in runs[0].get("metrics", {}).items():
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        table[name] = {**summary(values), "unit": first["unit"]}
        row = table[name]
        print(f"{name:58s} {row['median']:14.6g} {row['unit']:9s} "
              f"iqr/median {row['iqr_share']:.4f}")
    if args.json:
        report = {"workload": args.workload, "seconds": args.seconds,
                  "summary": table, "runs": runs}
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
