"""What each determinant route does on symbols of large winding and log.

For 300 seeded symbols {zⁿ·e^{a}, z^m·e^{b}} it runs every route and sorts
each outcome into one of three kinds, against the closed formula:

  agree    a value within 1e-8 (relative) of ``det_invariant_closed``;
  refused  a ``FredK2Error``, counted by its message (window sizes in a
           message are dropped, so one cause is one line);
  wrong    a value further than 1e-8 from the closed one, returned
           silently.

Routes: ``closed``, ``integral``, ``operator`` (``det_invariant_operator``
at its defaults: cap 256, strict) and ``h2`` (``h2_representative_det`` on
the window that covers the shift, zⁿ, z^m, both logs and their split
exponentials, at most 256).  A route's value on a symbol whose closed value
was refused counts as ``unchecked``.

Symbols (seed 1): windings in [-12, 12]; each log has 1-5 terms at distinct
|k| <= 12 with uniform phases, scaled to an l1 norm uniform in [0.1, 3].
A report, not a gate.

    python3 tools/route_census.py

Standard library and numpy only; the package is imported from this
checkout's ``src``.
"""

import cmath
import collections
import math
import os
import re
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SYMBOLS = 300
WINDING = 12
BAND = 12
AGREE = 1e-8


def rand_log(rng):
    from fredk2 import FourierLoop

    ks = rng.choice(np.arange(-BAND, BAND + 1), size=rng.integers(1, 6), replace=False)
    cs = rng.uniform(0.1, 1.0, ks.size) * np.exp(2j * math.pi * rng.uniform(0, 1, ks.size))
    cs *= rng.uniform(0.1, 3.0) / np.abs(cs).sum()
    return FourierLoop({int(k): complex(c) for k, c in zip(ks, cs)})


def rand_symbol(rng):
    from fredk2 import LoopLog, SteinbergSymbol

    return SteinbergSymbol(*(LoopLog(int(rng.integers(-WINDING, WINDING + 1)), rand_log(rng))
                             for _ in "uv"))


def h2_at_lift_bands(sym):
    from fredk2 import invariants as inv

    loops = [inv.z_loop(1)]
    for ll in (sym.u, sym.v):
        loops += [inv.z_loop(ll.winding), ll.log_part, *inv.split_exponentials(ll.log_part)]
    window = min(inv.DEFAULT_WINDOW, inv.needed_window(*loops))
    return inv.h2_representative_det(sym, window=window)


def routes():
    from fredk2 import invariants as inv

    return {"closed": inv.det_invariant_closed, "integral": inv.det_invariant_integral,
            "operator": inv.det_invariant_operator, "h2": h2_at_lift_bands}


def census():
    """({route: Counter of outcomes}, {route: seconds})."""
    from fredk2 import FredK2Error

    rng = np.random.default_rng(SEED)
    syms = [rand_symbol(rng) for _ in range(SYMBOLS)]
    counts = {name: collections.Counter() for name in routes()}
    seconds = dict.fromkeys(routes(), 0.0)
    closed = []  # the closed value of each symbol, None where it is refused
    for name, route in routes().items():
        for i, sym in enumerate(syms):
            t0 = time.perf_counter()
            try:
                value = route(sym)
            except FredK2Error as exc:
                value, outcome = None, "refused: " + re.sub(r"\(?needs \d+\)?|\d+", "", str(exc))
            seconds[name] += time.perf_counter() - t0
            if name == "closed":
                closed.append(value)
            want = closed[i]
            if value is not None:
                outcome = ("unchecked" if want is None
                           else "agree" if cmath.isfinite(value) and abs(value - want) <= AGREE * abs(want)
                           else "wrong")
            counts[name][" ".join(outcome.split())] += 1
    return counts, seconds


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    counts, seconds = census()
    print(f"{SYMBOLS} symbols, seed {SEED}: windings |n| <= {WINDING}, "
          f"1-5 log terms at |k| <= {BAND}, log l1 in [0.1, 3]")
    for name, outcomes in counts.items():
        print(f"{name:<9} agree {outcomes.pop('agree', 0):>4}  wrong {outcomes.pop('wrong', 0):>4}"
              f"  unchecked {outcomes.pop('unchecked', 0):>4}  ({seconds[name]:.1f} s)")
        for outcome, n in sorted(outcomes.items()):
            print(f"{'':<9} {n:>4}  {outcome}")


if __name__ == "__main__":
    main()
