"""Run one workload in this fresh process and print its record as one JSON
line.  Started by run.py, which owns the command line the user sees:

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 [--setup-only]

Set-up (imports, input generation, one warm-up op per kind) is timed from
the top of this file and scaled to a nominal host speed with the reference
kernel.  BLAS/OpenMP threads are pinned to 1 before numpy is imported.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402  (after the thread pins above)

TAIL_BEYOND = 10   # samples that must lie beyond the reported tail value
# Percentiles the tail of a mixed round is chosen from.  A fixed ladder
# maps to the same op kind however many rounds a run completes, where
# "the 11th-largest sample" would jump between kinds.  A round of one
# kind takes the exact percentile instead.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MAX_EXAMPLES = 5   # failure messages kept per class


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_program(root):
    """Import fredk2 from the checkout's sources, never from elsewhere."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import fredk2
    if not os.path.abspath(fredk2.__file__).startswith(src + os.sep):
        raise SystemExit(f"fredk2 imported from {fredk2.__file__}, not {src}")
    return fredk2


# -- measurement -------------------------------------------------------------

REF_EVERY_S = 0.1  # the reference kernel is sampled this often
# Seconds of one reference sample at the nominal host speed that set-up
# time is reported at: a round figure between the fast (0.34 ms) and
# slow (0.55 ms) states of a 2.1 GHz Xeon vCPU.
REF_NOMINAL_S = 4e-4


class Reference:
    """A fixed computation timed every ``REF_EVERY_S`` to gauge the host's
    speed.

    On a shared host the speed of one vCPU changes by up to half within
    seconds and drifts over minutes, and Python bytecode, BLAS and FFTs
    slow down together.  Dividing an op's time by this kernel's time,
    measured during and around the op, cancels that common factor: the
    quotient is the op's cost in reference units (``ref``).  The kernel
    mixes the kinds of work the workloads do (interpreted loops,
    object-array products, FFTs, small complex matrix products) and never
    calls fredk2, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        self.mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.obj = rng.integers(-3, 4, size=(12, 12)).astype(object)

    def _run(self):
        acc = {}
        for i in range(600):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0) + i
        prod = self.obj @ self.obj
        for _ in range(2):
            np.fft.ifft(np.fft.fft(self.vec))
            self.mat @ self.mat
        return len(acc) + int(prod[0, 0])

    def sample(self):
        """Seconds of the fastest of three back-to-back runs."""
        clock = time.perf_counter
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            self._run()
            best = min(best, clock() - t0)
        return best


class HostClock:
    """Samples the host's speed while set-up or a measured phase runs.

    Between ``start`` and ``stop`` a timer signal runs the reference
    kernel every ``REF_EVERY_S``, inside ops as well as between them (a
    sample waits for a running C call to return).  ``samples`` holds the
    (start, end, reference seconds) of each.  The samples' own time is
    left out of every figure timed while the clock runs.
    """

    def __init__(self, ref):
        self.ref = ref
        self.samples = []

    def _sample(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        value = self.ref.sample()
        self.samples.append((t0, time.perf_counter(), value))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def since(self, t_start):
        """(wall seconds, reference units) from ``t_start`` to the last
        sample, the samples left out.  Each stretch between two samples
        is divided by their mean, the first stretch by the first sample."""
        wall = units = 0.0
        prev_end, prev_value = t_start, self.samples[0][2]
        for t0, t1, value in self.samples:
            wall += t0 - prev_end
            units += (t0 - prev_end) / ((prev_value + value) / 2.0)
            prev_end, prev_value = t1, value
        return wall, units


def measure(wl, fredk2_error, miss, ref, rounds, tracer=None):
    """Closed loop, one client: op i+1 starts when op i has returned and
    been checked.  Runs exactly ``rounds`` whole rounds, so a seed runs
    the same ops on every run.  Only ``compute`` is timed; every output
    is checked; nothing is retried or skipped.  A HostClock samples the
    host's speed throughout; ``summarize`` takes the samples' time out."""
    clock = time.perf_counter
    host = HostClock(ref)
    ops, fails, examples = [], {}, {}
    n = len(wl.round)
    host.start()
    start = clock()
    for i in range(rounds * n):
        kind, inp = wl.op(i)
        cls = None
        if tracer is not None:
            tracer.op = i
            tracer.recording = True
        t0 = clock()
        try:
            out = kind.compute(inp)
        except fredk2_error as exc:
            cls, msg = str(exc.exit_code), f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a crash is a failed op, reported below
            cls, msg = "other", f"{type(exc).__name__}: {exc}"
        finally:
            t1 = clock()
            if tracer is not None:
                tracer.recording = False
        if cls is None:
            try:
                kind.check(inp, out)
            except miss as exc:
                cls, msg = "tolerance", str(exc)
        if cls is not None:
            fails[cls] = fails.get(cls, 0) + 1
            kept = examples.setdefault(cls, [])
            if len(kept) < MAX_EXAMPLES:
                kept.append(f"op {i} ({kind.name}): {msg}")
        ops.append((i % n, t0, t1, clock(), cls is None))
    end = clock()
    host.stop()
    sampling = sum(b - a for a, b, _v in host.samples if start <= a < end)
    return {"wall_s": end - start - sampling, "rounds": rounds, "attempted": rounds * n,
            "ops": ops, "refs": host.samples, "labels": wl.labels,
            "fail_by_class": fails, "fail_examples": examples}


def _timed_ops(run):
    """Per op: (slot, seconds computing, seconds of the loop (compute and
    check), reference seconds, ok).  Time spent in samples is taken out;
    the reference time is the mean of the samples taken during the op and
    of the last one before it and the first one after it, so a long op is
    scaled by the host's speed over its whole duration."""
    refs = run["refs"]
    starts = [a for a, _b, _v in refs]
    out = []
    for slot, t0, t1, t2, ok in run["ops"]:
        a = bisect.bisect_left(starts, t0)
        b = bisect.bisect_left(starts, t1)
        c = bisect.bisect_left(starts, t2)
        in_compute = sum(e - s for s, e, _v in refs[a:b])
        in_loop = in_compute + sum(e - s for s, e, _v in refs[b:c])
        speed = statistics.fmean(v for _s, _e, v in refs[a - 1:c + 1])
        out.append((slot, t1 - t0 - in_compute, t2 - t0 - in_loop, speed, ok))
    return out


def _tail(values, mixed):
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND values beyond it, and at least the median.  In a
    ``mixed`` round it is the highest such ladder percentile."""
    if mixed:
        fits = [p for p in TAIL_PERCENTILES
                if len(values) * (100.0 - p) / 100.0 >= TAIL_BEYOND]
        pct = fits[-1] if fits else 50.0
    else:
        pct = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(values)))
    return pct, float(np.percentile(values, pct))


def summarize(run, mixed):
    """End-to-end figures of one measured phase, in seconds and in
    reference units.  ``mixed``: the round has more than one slot."""
    timed = _timed_ops(run)
    secs = [dt for _slot, dt, _loop, _r, ok in timed if ok]
    units = [dt / r for _slot, dt, _loop, r, ok in timed if ok]
    n = len(secs)
    if n == 0:
        raise SystemExit("no op succeeded; nothing to report")
    phase_ref = sum(loop / r for _slot, _dt, loop, r, _ok in timed)
    tail_pct, tail_s = _tail(secs, mixed)
    _pct, tail_ref = _tail(units, mixed)
    failed = run["attempted"] - n
    by_slot = {}
    for slot, label in enumerate(run["labels"]):
        ts = [dt for s, dt, _loop, _r, ok in timed if ok and s == slot]
        by_slot[label] = {"ok": len(ts), "p50": statistics.median(ts) if ts else None}
    return {"op_ref.p50": statistics.median(units), "op_ref.tail": tail_ref,
            "ops_per_kref": 1000.0 * n / phase_ref,
            "op_s.p50": statistics.median(secs), "op_s.tail": tail_s,
            "op_s.tail_pct": tail_pct, "op_s.samples": n,
            "ops_per_s": n / run["wall_s"], "ok_frac": n / run["attempted"],
            "fail_frac": failed / run["attempted"],
            "ops_attempted": run["attempted"], "ops_failed": failed,
            "ref_s.p50": statistics.median(v for _a, _b, v in run["refs"]),
            "phase_ref": phase_ref, "by_slot": by_slot}


# -- environment ---------------------------------------------------------------


def _openblas_libs():
    """Thread count and build string of every OpenBLAS loaded here."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path.endswith(".so"):
                    paths.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info = {"threads": getter(), "config": config().decode()}
                    break
            if info:
                break
        out[os.path.basename(path)] = info
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree, read from .git only."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas": _openblas_libs(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "git_commit": _git_commit(root)}


# -- main ----------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    ref = Reference()
    setup = HostClock(ref)
    setup.start()
    fredk2 = import_program(args.root)
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    warmup_fails = {}
    for kind, inp in wl.warmup:
        try:
            kind.check(inp, kind.compute(inp))
        except fredk2.FredK2Error as exc:
            warmup_fails[str(exc.exit_code)] = warmup_fails.get(str(exc.exit_code), 0) + 1
        except workloads.Miss:
            warmup_fails["tolerance"] = warmup_fails.get("tolerance", 0) + 1
    setup.stop()
    # Set-up's cost in reference units, read as seconds at the nominal speed.
    setup_wall_s, setup_units = setup.since(T_START)
    record = {"workload": wl.name, "seed": args.seed,
              "setup_s": setup_units * REF_NOMINAL_S, "setup_wall_s": setup_wall_s,
              "setup_samples": len(setup.samples)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    # The inputs live for the whole run; frozen, the collector no longer
    # scans them, so an op's time does not grow with the pool size.
    gc.collect()
    gc.freeze()
    leftover = tr.find_wrappers()
    if leftover:
        raise SystemExit(f"tracing wrappers present before timing: {leftover}")
    err, miss = fredk2.FredK2Error, workloads.Miss
    mixed = len(wl.round) > 1
    rounds = wl.rounds(args.seconds)
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = measure(wl, err, miss, ref, max(1, rounds // 2), tracer=tracer)
        finally:
            tracer.uninstall()
        leftover = tr.find_wrappers()
        if leftover:
            raise SystemExit(f"tracing wrappers left after uninstall: {leftover}")
        plain = measure(wl, err, miss, ref, rounds=traced["rounds"])
        record["traced"] = summarize(traced, mixed)
        record["summary"] = summarize(plain, mixed)
        per_layer = tracer.per_layer(traced["attempted"])
        # Both passes in reference units, so host speed drift between them
        # does not read as tracing cost.
        per_layer["trace.overhead_frac"] = (
            record["traced"]["phase_ref"] / record["summary"]["phase_ref"] - 1.0, "ratio")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        spans_path = os.path.join(args.root, "perfbench_out",
                                  f"{wl.name}-seed{args.seed}.spans.npz")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.save(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, args.root)
        runs = (traced, plain)
    else:
        plain = measure(wl, err, miss, ref, rounds)
        record["summary"] = summarize(plain, mixed)
        runs = (plain,)

    fails = {}
    for run in runs:
        for cls, count in run["fail_by_class"].items():
            fails[cls] = fails.get(cls, 0) + count
    record.update({
        "inputs_sha256": wl.inputs_sha256,
        "rounds": plain["rounds"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(fails.values()),
        "fail_by_class": fails,
        "fail_examples": [e for run in runs for v in run["fail_examples"].values() for e in v],
        "warmup_fail_by_class": warmup_fails,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.root),
    })
    # A refusal with a documented exit code is a failed op; a wrong value
    # or an undocumented exception, in the warm-up too, means the outputs
    # are not correct.
    record["correct"] = not (fails.get("tolerance") or fails.get("other")
                             or warmup_fails.get("tolerance"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
