"""fredk2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; fredk2 is imported from its
``src``.  Each workload runs in a fresh worker process (closed loop, one
client, BLAS threads pinned to 1, a fixed number of whole rounds sized so
that they take about ``--seconds`` on the reference host, so a seed always
runs the same ops); two more fresh processes only set up,
and ``setup_s`` is the median of the three set-ups, each scaled to a
nominal host speed by the reference kernel (see worker.py).  ``--workload all``
(the default) runs every workload in turn.

With ``--trace 0`` the metrics are the end-to-end ones, timed with
tracing off after a warm-up; with ``--trace 1`` they are the per-layer
ones from a traced pass plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full record (environment, input digest, failures by
exit-code class, tail percentile and sample count) is printed just
before it and written to ``perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("symbol-operator", "symbol-ingest", "homology", "chains")
SETUPS = 3            # fresh processes whose set-up time is taken
BUDGET_S = 170.0      # whole command, per workload

END_TO_END_UNITS = {
    "op_ref.p50": "ref",
    "op_ref.tail": "ref",
    "ops_per_kref": "1/kref",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def run_worker(args, workload, deadline, setup_only):
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: time budget of {BUDGET_S:.0f} s used up")
    try:
        # A fixed hash seed keeps string hashing, and with it set and dict
        # layout, the same in every worker process.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload):
    deadline = time.monotonic() + BUDGET_S
    setups = [run_worker(args, workload, deadline, True) for _ in range(SETUPS - 1)]
    record = run_worker(args, workload, deadline, False)
    setups.append(dict(record))
    record["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    record["setup_s_all"] = [s["setup_s"] for s in setups]
    record["setup_wall_s_all"] = [s["setup_wall_s"] for s in setups]
    if args.trace:
        metrics = record["per_layer"]
    else:
        values = dict(record["summary"], setup_s=record["setup_s"],
                      peak_rss_mb=record["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    out_dir = os.path.join(ROOT, "perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record, {"correct": record["correct"], "attempted": record["attempted"],
                    "failed": record["failed"], "metrics": metrics}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="fredk2 benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fredk2", "__init__.py")):
        print(f"error: no fredk2 sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record, results[name] = run_workload(args, name)
            print(json.dumps(record, sort_keys=True))
            for metric, mv in results[name]["metrics"].items():
                print(f"# {name} {metric} = {mv['value']:.6g} {mv['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": mv for name, r in results.items()
                             for metric, mv in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
