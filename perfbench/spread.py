"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds 30 [--trace 0|1]

Runs ``run.py`` once per seed, one run at a time, from the current
directory, and prints for every metric the median of the per-run values
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median.
With ``--json PATH`` the summary is also written to PATH.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout[-2000:])
            return 1
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:34} {first['unit']:6} median {med:12.6g}  spread {summary[name]['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                         "seconds": args.seconds, "trace": args.trace,
                                         "metrics": summary}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
