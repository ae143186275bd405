"""One sha256 per section over the symbol-side outputs of fredk2.

Run it on two trees and compare the lines: equal digests mean bit-equal
outputs, in the same order.  A report, not a gate.

    python3 tools/symbol_digest.py

Sections:

  routes   ``det_invariant_closed``, ``det_invariant_integral``,
           ``det_invariant_operator`` (default window) and
           ``mult_character`` on 50 seeded symbols of the
           acceptance-corpus distribution: windings in [-3, 3], logs of
           1-4 terms at distinct |k| <= 6 with |c| in [0.05, 0.3];
  ingest   ``log_split`` of the reconstructed loops zⁿ·e^{a} of the same
           symbols;
  chains   on seeded inputs: ``gamma_log`` of a 2-simplex e^{t1 X} e^{t2 Y}
           and of its boundary ``dN`` (materialized), ``tilde_gamma`` of two
           curved paths, ``path_log_det`` of e^{tX} e^{tY},
           ``tau_cocycle(1, .)`` and ``relative_boundary_trace`` of a cyclic
           1-chain of ρ blocks at window 64, and ``h2_representative_det``
           at window 32.

Floats are encoded by ``float.hex`` of each part, maps in insertion order.
Standard library and numpy only; the package is imported from this
checkout's ``src``.
"""

import cmath
import hashlib
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2035
SYMBOLS = 50
CHAIN_INPUTS = 8  # seeded inputs per chain kind
RHO_WINDOW = 64
H2_WINDOW = 32


def key(obj):
    """A repr-stable record of an output: floats as hex, loops as their
    {k: c} map in insertion order with the tail, arrays as shape and entries."""
    from fredk2.fourier_loops import FourierLoop, LoopLog

    if isinstance(obj, (complex, np.complexfloating)):
        return (float(obj.real).hex(), float(obj.imag).hex())
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, FourierLoop):
        return ([(k, key(c)) for k, c in obj.coeffs.items()], key(obj.tail))
    if isinstance(obj, LoopLog):
        return (obj.winding, key(obj.log_part))
    if isinstance(obj, np.ndarray):
        return (obj.shape, [key(v) for v in obj.reshape(-1).tolist()])
    if isinstance(obj, (list, tuple)):
        return [key(v) for v in obj]
    return obj


def rand_log(rng, band=6):
    """1-4 terms at distinct |k| <= band, |c| in [0.05, 0.3], uniform phase."""
    from fredk2 import FourierLoop

    ks = rng.choice(np.arange(-band, band + 1), size=rng.integers(1, 5), replace=False)
    return FourierLoop({int(k): rng.uniform(0.05, 0.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                        for k in ks})


def rand_symbol(rng):
    from fredk2 import LoopLog, SteinbergSymbol

    return SteinbergSymbol(*(LoopLog(int(rng.integers(-3, 4)), rand_log(rng)) for _ in "uv"))


def rand_mat(rng, m, scale):
    return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


def chain_records(rng):
    """(kind, output) of every chain-side call, inputs drawn from ``rng``."""
    from scipy.linalg import expm

    from fredk2 import cyclic_chains as cc
    from fredk2 import fredholm as fr
    from fredk2 import invariants as inv

    out = []
    for _ in range(CHAIN_INPUTS):
        x, y = (m * (1.5 / np.linalg.norm(m)) for m in (rand_mat(rng, 4, 1.0),
                                                         rand_mat(rng, 4, 1.0)))
        sig = cc.SimplexPath(2, lambda t1, t2: expm(t1 * x) @ expm(t2 * y),
                             lambda i, t1, t2: (x @ expm(t1 * x) @ expm(t2 * y) if i == 1
                                                else expm(t1 * x) @ y @ expm(t2 * y)))
        out.append(("gamma_log", cc.gamma_log(sig).materialize(),
                    cc.gamma_log(cc.dN(sig)).materialize()))
    for _ in range(CHAIN_INPUTS):
        x, y = rand_mat(rng, 3, 0.5), rand_mat(rng, 3, 0.5)
        s1, s2 = (cc.SimplexPath(1, lambda t, a=a, b=b: expm(t * a) @ expm(t * t * b),
                                 lambda _i, t, a=a, b=b: (a @ expm(t * a) @ expm(t * t * b)
                                                          + expm(t * a) @ (2 * t * b)
                                                          @ expm(t * t * b)))
                  for a, b in ((x, y), (y, x)))
        out.append(("tilde_gamma", cc.tilde_gamma(s1, s2)))
    for _ in range(CHAIN_INPUTS):
        path = fr.OperatorPath.product(fr.OperatorPath.exponential(rand_mat(rng, 8, 0.4)),
                                       fr.OperatorPath.exponential(rand_mat(rng, 8, 0.4)))
        out.append(("path_log_det", fr.path_log_det(path)))
    for _ in range(CHAIN_INPUTS):
        terms = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (inv.rho(rand_log(rng, 3), RHO_WINDOW), inv.rho(rand_log(rng, 3), RHO_WINDOW)))
                 for _ in range(rng.integers(1, 4))]
        chain = cc.CyclicChain(1, terms)
        out.append(("tau_cocycle", cc.tau_cocycle(1, chain), inv.relative_boundary_trace(chain)))
    for _ in range(CHAIN_INPUTS):
        out.append(("h2_representative_det",
                    inv.h2_representative_det(rand_symbol(rng), window=H2_WINDOW)))
    return out


def sections():
    """{section: list of output records}."""
    from fredk2 import invariants as inv
    from fredk2.fourier_loops import log_split

    rng = np.random.default_rng(SEED)
    syms = [rand_symbol(rng) for _ in range(SYMBOLS)]
    return {
        "routes": [(inv.det_invariant_closed(s), inv.det_invariant_integral(s),
                    inv.det_invariant_operator(s), inv.mult_character(s)) for s in syms],
        "ingest": [(log_split(s.u.reconstruct()), log_split(s.v.reconstruct())) for s in syms],
        "chains": chain_records(rng),
    }


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for section, records in sections().items():
        digest = hashlib.sha256(repr(key(records)).encode()).hexdigest()
        print("%-7s %4d  %s" % (section, len(records), digest))


if __name__ == "__main__":
    main()
