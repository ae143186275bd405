"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--seconds S]

Runs ``run.py --trace 0`` once per seed, one after another, and prints for
each metric the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="end-to-end run-to-run spread")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, mv in result["metrics"].items():
            values.setdefault(name, []).append(mv["value"])
    if len(args.seeds) < 2:
        return 0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        print(f"{metric['name']:>12}: median {med:.5g} "
              f"spread {spread:.4f} bound {metric['bound']} "
              f"({'ok' if spread < metric['bound'] / 3 else 'WIDE'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
