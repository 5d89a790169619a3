"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 bench/spread.py --workload verify-n32 --seeds 1-10 [--seconds 25]

Runs ``run.py --trace 0`` once per seed, one after another, and prints per
metric the median and the distance between the first and third quartile as a
share of the median, next to the metric's bound from ``BENCHMARK.json``. A
spread above a third of its bound is flagged.
The raw figures are appended to ``bench/results/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, relative_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '1,4,7'")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    log = BENCH / "results" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for metric in bench["end_to_end"]:
        share = relative_spread(values[metric["name"]])
        worst = max(worst, share / metric["bound"])
        flag = "  above a third of the bound" if share > metric["bound"] / 3 else ""
        print(f"{metric['name']:<18} median {median(values[metric['name']]):.6g}  "
              f"spread {share:.4f}  "
              f"bound {metric['bound']}{flag}")
    print(f"largest spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
