"""Cross-check the tracer's split against cProfile on one symbol-operator op.

    python3 perfbench/crosscheck.py [--seed N] [--index I]

Runs symbol I of the symbol-operator workload (seed N) once to warm up,
once under the tracer and once under cProfile, and prints calls and
seconds of the functions the ROADMAP baseline names for one w=256
symbol: ``expm`` (about 0.43 s over 4 calls), the dense inverse (0.27 s
over 2 calls) and ``ToeplitzOp.mul`` (0.28 s over 8 calls, inclusive).
The two profilers see different costs -- cProfile adds time to every
Python call, the tracer only to the wrapped ones -- so compare shapes
(call counts, which function dominates), not digits.  The default,
symbol 1 of seed 0, takes about 1 s, like the baseline's symbol.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from fredk2.toeplitz_calculus import ToeplitzOp  # noqa: E402

# (label, tracer span, function as cProfile sees it)
ROWS = (
    ("expm", "scipy.linalg.expm", scipy.linalg.expm),
    ("dense inverse", "numpy.linalg.inv", np.linalg.inv),
    ("lu_factor", "scipy.linalg.lu_factor", scipy.linalg.lu_factor),
    ("det", "numpy.linalg.det", np.linalg.det),
    ("ToeplitzOp.mul", "toeplitz_calculus.ToeplitzOp.mul", ToeplitzOp.mul),
    ("ToeplitzOp.exp", "toeplitz_calculus.ToeplitzOp.exp", ToeplitzOp.exp),
    ("ToeplitzOp.inv", "toeplitz_calculus.ToeplitzOp.inv", ToeplitzOp.inv),
)


def _profile_key(fn):
    code = getattr(fn, "__wrapped__", fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def main(argv=None):
    ap = argparse.ArgumentParser(description="tracer vs cProfile on one symbol")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--index", type=int, default=1)
    args = ap.parse_args(argv)

    kind, sym = workloads.symbol_operator(args.seed).op(args.index)
    kind.compute(sym)                                  # warm-up

    t0 = time.perf_counter()
    kind.compute(sym)
    plain = time.perf_counter() - t0

    tracer = tr.Tracer()
    tracer.install()
    tracer.recording = True
    t0 = time.perf_counter()
    try:
        kind.compute(sym)
    finally:
        tracer.recording = False
        tracer.uninstall()
    traced = time.perf_counter() - t0
    totals = tracer.totals()

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.runcall(kind.compute, sym)
    profiled = time.perf_counter() - t0
    stats = pstats.Stats(prof).stats

    print(f"one op, seed {args.seed} symbol {args.index}: untraced {plain:.3f} s, "
          f"traced {traced:.3f} s, cProfile {profiled:.3f} s")
    print(f"{'function':<16}{'tracer calls':>13}{'incl s':>9}{'self s':>9}"
          f"{'cProfile calls':>16}{'cum s':>9}{'tot s':>9}")
    for label, span, fn in ROWS:
        calls, self_s, incl = totals.get(span, (0, 0.0, 0.0))
        _cc, pc, ptot, pcum, _callers = stats.get(_profile_key(fn), (0, 0, 0.0, 0.0, None))
        print(f"{label:<16}{calls:>13}{incl:>9.3f}{self_s:>9.3f}{pc:>16}{pcum:>9.3f}{ptot:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
