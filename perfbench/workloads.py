"""The benchmark's four workloads: seeded input generators, the op each
input is fed to, and the check each op's output must pass.

A workload is a *round*: a list of (kind, inputs) slots run in order, one
op per slot.  Op ``i`` runs slot ``i % len(round)`` on that slot's input
number ``i // len(round)`` (cycling when a run outlasts the pool).  Every
input is generated here from the seed, before anything is timed; the
program only ever receives these inputs.  The generators live in this
file, not in ``tests/``, so test edits cannot move the benchmark's inputs.

fredk2 is called through module attributes (``inv.det_invariant_operator``)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import hashlib
import math

import numpy as np
import scipy.linalg

from fredk2 import cyclic_chains as cc
from fredk2 import fredholm as fr
from fredk2 import group_homology as gh
from fredk2 import invariants as inv
from fredk2.fourier_loops import FourierLoop, LoopLog

OPERATOR_WINDOW = 256
OPERATOR_WARMUP_WINDOW = 32
GAMMA_NORM = 1.5   # Frobenius norm of X and Y in the gamma_log simplices
WARMUP_SEED = 0    # warm-up inputs are the same for every seed, so set-up
                   # does the same work on every run
H2_WINDOW = 32
RHO_WINDOW = 64
TWO_PATH_SAMPLES = 100   # 2-cycles per two-path check
# Distinct inputs per round slot; a run that outlasts them cycles.
OPERATOR_POOL = 64
INGEST_POOL = 512
HOMOLOGY_POOL = 8
CHAINS_POOL = 32
TWO_PATH_SLOTS = 2       # two-path slots per catalog surjection in a homology round
# Wall seconds of one round on the host the bounds were measured on (see
# README).  A run does a fixed number of whole rounds, ``--seconds`` over
# this, so a seed runs, and fails, the same ops however fast the host is.
OPERATOR_ROUND_S = 0.69
INGEST_ROUND_S = 0.0286
HOMOLOGY_ROUND_S = 6.5
CHAINS_ROUND_S = 1.67
LOG_MAX_BAND = 6         # acceptance-corpus logs: band <= 6,
LOG_MAX_TERMS = 4        # 1..4 terms,
LOG_MAX_ABS = 0.3        # |c| in [0.05, 0.3]


class Miss(Exception):
    """An op returned a value outside its check's tolerance."""


def _rel(got, want):
    return abs(got - want) / abs(want)


def _require(ok, what):
    if not ok:
        raise Miss(what)


class Kind:
    """One kind of op: ``compute`` is timed, ``check`` is not."""

    def __init__(self, name, compute, check):
        self.name = name
        self.compute = compute
        self.check = check


class Workload:
    def __init__(self, name, round_, warmup, round_s, labels=None):
        self.name = name
        self.round = round_      # [(Kind, [input, ...]), ...]
        self.warmup = warmup     # [(Kind, input), ...]
        self.round_s = round_s
        self.labels = labels or [kind.name for kind, _inputs in round_]
        self.inputs_sha256 = _digest([inputs for _kind, inputs in round_]
                                     + [inp for _kind, inp in warmup])

    def rounds(self, seconds):
        """Whole rounds a run of ``seconds`` does: at least one."""
        return max(1, round(seconds / self.round_s))

    def op(self, i):
        kind, inputs = self.round[i % len(self.round)]
        return kind, inputs[(i // len(self.round)) % len(inputs)]


# -- input digest ------------------------------------------------------------


def _feed(h, obj):
    if isinstance(obj, FourierLoop):
        h.update(b"F")
        _feed(h, sorted(obj.coeffs.items()))
    elif isinstance(obj, LoopLog):
        h.update(b"L")
        _feed(h, (obj.winding, obj.log_part))
    elif isinstance(obj, inv.SteinbergSymbol):
        h.update(b"S")
        _feed(h, (obj.u, obj.v))
    elif isinstance(obj, gh.FiniteGroup):
        h.update(b"G")
        _feed(h, np.asarray(obj.table, dtype=np.int64))
    elif isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"T{len(obj)}(".encode())
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, (bool, int, float, complex, str)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"no canonical form for {type(obj)!r}")


def _digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# -- generators (acceptance-corpus distribution) -----------------------------


def rand_log(rng, band=LOG_MAX_BAND):
    """1..LOG_MAX_TERMS Fourier terms at distinct |k| <= band, |c| in
    [0.05, LOG_MAX_ABS]."""
    ks = rng.choice(np.arange(-band, band + 1),
                    size=rng.integers(1, LOG_MAX_TERMS + 1), replace=False)
    coeffs = {}
    for k in ks:
        r = rng.uniform(0.05, LOG_MAX_ABS)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        coeffs[int(k)] = r * cmath.exp(1j * ph)
    return FourierLoop(coeffs)


def rand_winding(rng):
    return int(rng.integers(-3, 4))


def rand_symbol(rng):
    return inv.SteinbergSymbol(LoopLog(rand_winding(rng), rand_log(rng)),
                               LoopLog(rand_winding(rng), rand_log(rng)))


def rand_mat(rng, m, scale):
    return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


def rand_mat_norm(rng, m, norm):
    """Random direction, fixed Frobenius norm."""
    x = rand_mat(rng, m, 1.0)
    return x * (norm / np.linalg.norm(x))


def stratified(rng, make, size, key):
    """``size`` inputs from ``make(rng)``, spread evenly over ``key``.

    Draws four times ``size`` inputs, sorts them by ``key`` and keeps
    the middle one of every four in a row, so the kept inputs sit
    at evenly spaced quantiles of the generator's distribution.  They are
    returned in bit-reversed rank order, so that every prefix -- a run
    uses only as many as fit in its time -- also spans the whole range.
    Across seeds, the quantiles of a run's inputs then vary far less than
    those of as many independent draws.
    """
    ranked = sorted((make(rng) for _ in range(4 * size)), key=key)
    kept = ranked[2::4]
    bits = max(1, (size - 1).bit_length())
    order = sorted(range(size), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [kept[i] for i in order]


def log_size(sym):
    """Total log band times total log l1 norm of a symbol.  Of the simple
    features tried, it tracks the cost of the operator route and of
    h2_representative_det best (Spearman 0.68 and 0.79 over 24 and 48
    corpus symbols)."""
    logs = (sym.u.log_part, sym.v.log_part)
    return sum(f.band for f in logs) * sum(f.l1() for f in logs)


# -- symbol-operator ---------------------------------------------------------


def _operator_routes(sym, window):
    return (inv.det_invariant_closed(sym),
            inv.det_invariant_integral(sym),
            inv.det_invariant_operator(sym, window=window, strict=True),
            inv.mult_character(sym))


def _operator_check(sym, out):
    closed, integral, operator, character = out
    _require(_rel(integral, closed) <= 1e-10, "integral vs closed > 1e-10")
    _require(_rel(operator, closed) <= 1e-8, "operator vs closed > 1e-8")
    _require(_rel(cmath.exp(character), closed) <= 1e-10,
             "exp(character) vs closed > 1e-10")


OPERATOR = Kind("operator", lambda sym: _operator_routes(sym, OPERATOR_WINDOW),
                _operator_check)
# The warm-up runs every route at a small window, which takes a tenth of
# the time: a fresh process's first w=256 op is no slower after it than
# after a w=256 warm-up, and set-up time is less of the host's BLAS speed.
OPERATOR_WARMUP = Kind("operator",
                       lambda sym: _operator_routes(sym, OPERATOR_WARMUP_WINDOW),
                       _operator_check)


def symbol_operator(seed):
    """Symbols stratified by ``log_size``: a run has only about 26 ops,
    and the operator route's cost grows with it."""
    rng = np.random.default_rng(seed)
    syms = stratified(rng, rand_symbol, OPERATOR_POOL, log_size)
    warm = np.random.default_rng(WARMUP_SEED)
    return Workload("symbol-operator", [(OPERATOR, syms)],
                    [(OPERATOR_WARMUP, rand_symbol(warm))], OPERATOR_ROUND_S)


# -- symbol-ingest -----------------------------------------------------------


def _ingest_input(rng):
    n1, n2, m = rand_winding(rng), rand_winding(rng), rand_winding(rng)
    a1 = LoopLog(n1, rand_log(rng)).reconstruct()
    a2 = LoopLog(n2, rand_log(rng)).reconstruct()
    beta = LoopLog(m, rand_log(rng)).reconstruct()
    return (n1, n2, m, a1, a2, beta)


def _ingest_compute(inp):
    _n1, _n2, _m, a1, a2, beta = inp
    alpha = a1.mul(a2)
    sym = inv.SteinbergSymbol.from_loops(alpha, beta)
    sym1 = inv.SteinbergSymbol.from_loops(a1, beta)
    sym2 = inv.SteinbergSymbol.from_loops(a2, beta)
    return (sym, sym1, sym2,
            inv.det_invariant_closed(sym),
            inv.det_invariant_closed(sym1),
            inv.det_invariant_closed(sym2),
            inv.det_invariant_integral(sym),
            inv.mult_character(sym))


def _ingest_check(inp, out):
    n1, n2, m, *_loops = inp
    sym, sym1, sym2, closed, closed1, closed2, integral, character = out
    _require((sym.u.winding, sym1.u.winding, sym2.u.winding) == (n1 + n2, n1, n2)
             and sym.v.winding == sym1.v.winding == sym2.v.winding == m,
             "recovered windings differ from the generated ones")
    _require(_rel(closed1 * closed2, closed) <= 1e-10, "bimultiplicativity > 1e-10")
    _require(_rel(integral, closed) <= 1e-10, "integral vs closed > 1e-10")
    _require(_rel(cmath.exp(character), closed) <= 1e-10,
             "exp(character) vs closed > 1e-10")


INGEST = Kind("ingest", _ingest_compute, _ingest_check)


def symbol_ingest(seed):
    rng = np.random.default_rng(seed)
    inputs = [_ingest_input(rng) for _ in range(INGEST_POOL)]
    warm = np.random.default_rng(WARMUP_SEED)
    return Workload("symbol-ingest", [(INGEST, inputs)],
                    [(INGEST, _ingest_input(warm))], INGEST_ROUND_S)


# -- homology ----------------------------------------------------------------

# (name, constructor, H_2 torsion) -- every H_2 here has rank 0.  Orders 12
# and 16 take 12.5 s and 86.5 s per group and are left out for run length.
GROUPS = (
    ("Z4", lambda: gh.FiniteGroup.cyclic(4), []),
    ("Z2xZ2", lambda: _product(2, 2), [2]),
    ("S3", lambda: gh.FiniteGroup.dihedral(3), []),
    ("Z6", lambda: gh.FiniteGroup.cyclic(6), []),
    ("Z8", lambda: gh.FiniteGroup.cyclic(8), []),
    ("D4", lambda: gh.FiniteGroup.dihedral(4), [2]),
    ("Q8", lambda: gh.FiniteGroup.quaternion(), []),
    ("Z2^3", lambda: gh.FiniteGroup.direct_product(_product(2, 2),
                                                   gh.FiniteGroup.cyclic(2)), [2, 2, 2]),
    ("Z9", lambda: gh.FiniteGroup.cyclic(9), []),
    ("Z3xZ3", lambda: _product(3, 3), [3]),
    ("D5", lambda: gh.FiniteGroup.dihedral(5), []),
)

# H_2 torsion of each catalog target (Z2 and Z2xZ2).
TARGET_TORSION = {2: [], 4: [2]}


def _product(m, n):
    return gh.FiniteGroup.direct_product(gh.FiniteGroup.cyclic(m),
                                         gh.FiniteGroup.cyclic(n))


def _h2_compute(inp):
    _name, group, _torsion = inp
    return gh.homology(group, 2)


def _h2_check(inp, res):
    name, _group, torsion = inp
    _require(res.rank == 0 and list(res.torsion) == torsion,
             f"H_2({name}) = {res!r}, expected torsion {torsion}")


def _two_path_compute(inp):
    """One catalog surjection as ``fredk2 homology`` checks it: H_2 of the
    target, then each sampled 2-cycle through both paths."""
    name, draws = inp
    hom = gh.builtin_catalog()[name]
    target = hom.target
    h2 = gh.homology(target, 2)
    basis = gh.cycle_basis(target, 2)
    agree = 0
    for coeffs, extra in draws:
        cyc = gh.GroupChain(target, 2)
        for chain, z in zip(basis, coeffs):
            cyc = cyc.add(chain.scale(z))
        boundary = gh.GroupChain(target, 3)
        for cell, z in extra:
            boundary.add_cell(cell, z)
        cyc = cyc.add(gh.bar_boundary(boundary))
        direct = gh.f_phi_section(hom, cyc)
        via = gh.psi(gh.coker_representative(gh.boundary_to_relative(cyc, hom), hom))
        agree += direct == via
    return target.order, h2, agree


def _two_path_check(inp, out):
    name, draws = inp
    order, h2, agree = out
    _require(h2.rank == 0 and list(h2.torsion) == TARGET_TORSION[order],
             f"H_2 of the {name} target = {h2!r}")
    _require(agree == len(draws), f"{name}: {len(draws) - agree} two-path disagreements")


H2 = Kind("h2", _h2_compute, _h2_check)
TWO_PATH = Kind("two_path", _two_path_compute, _two_path_check)


def _cycle_draws(rng, order):
    """Per sampled cycle: one coefficient in [-2, 2] per basis 2-cycle (the
    basis has at most order² members) and three random 3-cells with
    coefficients in [-2, 2] whose boundary is added."""
    out = []
    for _ in range(TWO_PATH_SAMPLES):
        coeffs = tuple(int(z) for z in rng.integers(-2, 3, size=order * order))
        extra = tuple((tuple(int(g) for g in rng.integers(order, size=3)),
                       int(rng.integers(-2, 3))) for _ in range(3))
        out.append((coeffs, extra))
    return out


def homology(seed):
    """A round is every group's H_2 and ``TWO_PATH_SLOTS`` two-path checks
    per catalog surjection.  With two slots each, the round's median op
    is one of four Klein-target two-path checks instead of the one or two
    small-group H_2 ops that would otherwise sit there, so ``op_s.p50``
    rests on more samples per run."""
    rng = np.random.default_rng(seed)
    round_ = [(H2, [(name, make(), torsion)]) for name, make, torsion in GROUPS]
    labels = [f"h2:{name}" for name, _make, _torsion in GROUPS]
    catalog = gh.builtin_catalog()
    for name in sorted(catalog):
        order = catalog[name].target.order
        for slot in range(TWO_PATH_SLOTS):
            round_.append((TWO_PATH, [(name, _cycle_draws(rng, order))
                                      for _ in range(HOMOLOGY_POOL)]))
            labels.append(f"two_path:{name}/{slot}")
    # Each surjection's first checks run markedly slower than later ones,
    # so every surjection is warmed, plus the cheap H_2 ops.
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warm = [(H2, inputs[0]) for _kind, inputs in round_[:len(GROUPS)]
            if inputs[0][1].order <= 6]
    warm += [(TWO_PATH, (name, _cycle_draws(warm_rng, catalog[name].target.order)))
             for name in sorted(catalog)]
    return Workload("homology", round_, warm, HOMOLOGY_ROUND_S, labels)


# -- chains ------------------------------------------------------------------


def _expm_simplex(x, y):
    """σ(t1, t2) = e^{t1 X} e^{t2 Y} with exact partials."""
    expm = scipy.linalg.expm
    return cc.SimplexPath(
        2,
        lambda t1, t2: expm(t1 * x) @ expm(t2 * y),
        lambda i, t1, t2: (x @ expm(t1 * x) @ expm(t2 * y) if i == 1
                           else expm(t1 * x) @ y @ expm(t2 * y)))


def _curved_path(x, y):
    """t ↦ e^{tX} e^{t²Y} with its exact derivative."""
    expm = scipy.linalg.expm
    return cc.SimplexPath(
        1,
        lambda t: expm(t * x) @ expm(t * t * y),
        lambda _i, t: (x @ expm(t * x) @ expm(t * t * y)
                       + expm(t * x) @ (2 * t * y) @ expm(t * t * y)))


def _gamma_compute(inp):
    sig = _expm_simplex(*inp)
    return (cc.cyclic_b(cc.gamma_log(sig)).materialize(),
            cc.gamma_log(cc.dN(sig)).materialize())


def _gamma_check(_inp, out):
    lhs, rhs = out
    rel = np.linalg.norm(lhs + rhs) / max(1.0, np.linalg.norm(lhs))
    _require(rel <= 1e-7, "b(gamma) vs -gamma(dN) > 1e-7")


def _tilde_compute(inp):
    x, y = inp
    s1, s2 = _curved_path(x, y), _curved_path(y, x)
    return cc.tilde_gamma(s1, s2, tol=1e-9), s1.at(1.0), s2.at(1.0)


def _tilde_check(_inp, out):
    val, end1, end2 = out
    target = complex(np.linalg.det(np.linalg.inv(end1) @ end2))
    _require(_rel(cmath.exp(val), target) <= 1e-9, "relative log vs endpoint det > 1e-9")


def _path_compute(inp):
    x, y = inp
    path = fr.OperatorPath.product(fr.OperatorPath.exponential(x),
                                   fr.OperatorPath.exponential(y))
    return fr.path_log_det(path), path(1.0)


def _path_check(_inp, out):
    val, end = out
    want = complex(np.linalg.det(end))
    _require(_rel(cmath.exp(val), want) <= 1e-9, "path log det vs endpoint det > 1e-9")


def _tau_compute(terms):
    chain = cc.CyclicChain(1, [(co, (inv.rho(f, RHO_WINDOW), inv.rho(g, RHO_WINDOW)))
                               for co, f, g in terms])
    return cc.tau_cocycle(1, chain), inv.relative_boundary_trace(chain)


def _tau_check(_terms, out):
    tau, trace = out
    _require(abs(tau - trace) <= 1e-9, "tau_1 vs relative boundary trace > 1e-9")


def _h2det_compute(sym):
    return (inv.h2_representative_det(sym, window=H2_WINDOW),
            inv.det_invariant_closed(sym))


def _h2det_check(_sym, out):
    h2, closed = out
    _require(_rel(h2, closed) <= 1e-8, "h2 representative det vs closed > 1e-8")


def _tau_input(rng):
    return tuple((complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  rand_log(rng, band=3), rand_log(rng, band=3))
                 for _ in range(rng.integers(1, 4)))


CHAIN_KINDS = (
    (Kind("gamma_log", _gamma_compute, _gamma_check),
     lambda rng: (rand_mat_norm(rng, 4, GAMMA_NORM), rand_mat_norm(rng, 4, GAMMA_NORM))),
    (Kind("tilde_gamma", _tilde_compute, _tilde_check),
     lambda rng: (rand_mat(rng, 3, 0.5), rand_mat(rng, 3, 0.5))),
    (Kind("path_log_det", _path_compute, _path_check),
     lambda rng: (rand_mat(rng, 8, 0.4), rand_mat(rng, 8, 0.4))),
    (Kind("tau_cocycle", _tau_compute, _tau_check), _tau_input),
    (Kind("h2_representative_det", _h2det_compute, _h2det_check), rand_symbol),
)


def chains(seed):
    """The h2_representative_det symbols are stratified by ``log_size``:
    their cost spans about 7x across corpus symbols, and a run has only a
    dozen of them, whose upper quantiles set the workload's tail."""
    rng = np.random.default_rng(seed)
    round_ = [(kind, stratified(rng, make, CHAINS_POOL, log_size) if make is rand_symbol
               else [make(rng) for _ in range(CHAINS_POOL)]) for kind, make in CHAIN_KINDS]
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warm = [(kind, make(warm_rng)) for kind, make in CHAIN_KINDS]
    return Workload("chains", round_, warm, CHAINS_ROUND_S)


WORKLOADS = {
    "symbol-operator": symbol_operator,
    "symbol-ingest": symbol_ingest,
    "homology": homology,
    "chains": chains,
}
