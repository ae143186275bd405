"""Determinant invariant and multiplicative character of loop Steinberg symbols.

A symbol {u, v} of commuting nonvanishing smooth loops on the circle gets a
determinant value through three independent routes: a closed coefficient
formula, circle integrals, and operator determinants in the Toeplitz
picture: the cross factor {z, e^c} as the 2x2 determinant that Sylvester's
identity makes of its rank-two defect, and the Helton–Howe factor as the
Fredholm determinant of an explicit multiplicative commutator.  The
module also houses the 2x2 block realization of multiplication operators in
the shift basis, the chain-level bridge between the cyclic 1-cocycle and the
relative boundary trace, and the degree-2 bar cycle attached to a symbol
together with its 3x3 stabilized operator lift.
"""

import cmath
import functools
import math
import operator

import numpy as np

from ._errors import InputError, InvariantViolation, NumericalError
from .fourier_loops import (
    FourierLoop,
    LoopLog,
    _trapezoid_grid,
    circle_integral,
    coeff_run,
    log_split,
    z_loop,
    zero_loop,
)
from .toeplitz_calculus import (
    DEFAULT_WINDOW,
    HankelWindow,
    ToeplitzOp,
    commutator,
    commutator_trace_closed,
    coshift_op,
    identity_op,
    mul,
    needed_window,
    op_trace,
    shift_conjugation_trace,
    shift_op,
    split_exponentials,
    toeplitz,
    wiener_hopf_pair,
    zero_op,
    _require_window,
    _toeplitz_times,
)
from .fredholm import _unit_deviation_l1, det1p, mult_commutator_det
from .cyclic_chains import BlockOp, CyclicChain, _chain_degree
from .group_homology import _bar_terms

TWO_PI = 2.0 * math.pi


# -- symbols ------------------------------------------------------------


class SteinbergSymbol:
    """Pair {u, v} of nonvanishing loops in factored form zⁿ·e^{a}."""

    __slots__ = ("u", "v")

    def __init__(self, u: LoopLog, v: LoopLog):
        if not isinstance(u, LoopLog) or not isinstance(v, LoopLog):
            raise InputError("symbol entries must be factored loops")
        self.u = u
        self.v = v

    @classmethod
    def from_loops(cls, alpha: FourierLoop, beta: FourierLoop) -> "SteinbergSymbol":
        return cls(log_split(alpha), log_split(beta))

    def swap(self) -> "SteinbergSymbol":
        return SteinbergSymbol(self.v, self.u)


# -- block operators ----------------------------------------------------


def _schatten2_est(x: ToeplitzOp) -> float:
    if not x.symbol.is_zero():
        raise InvariantViolation("not Hilbert-Schmidt: nonzero symbol part")
    return float(np.linalg.norm(x.corner)) + x.tail_bound


def hankel_op(f: FourierLoop, window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """H_f as an operator with zero symbol; finite rank and exact inside
    the window for band-limited f."""
    _require_window(window, f)
    # H_f is live in its p×p corner, p the highest index of f
    p = max(f.lo + f.run.size - 1, 0)
    return ToeplitzOp._of(zero_loop(), HankelWindow(f, p).matrix, window)


def rho(f: FourierLoop, window: int = DEFAULT_WINDOW) -> BlockOp:
    """Multiplication by f on L²(S¹) compressed against the Hardy projection:
    [[T_f, H_f], [H_{f̌}, T_{f̌}]] with f̌(z) = f(1/z)."""
    fr = f.reflect()
    return BlockOp(((toeplitz(f, window), hankel_op(f, window)),
                    (hankel_op(fr, window), toeplitz(fr, window))))


def rho_z(window: int = DEFAULT_WINDOW) -> BlockOp:
    """[[S, 1−SS*], [0, S*]]."""
    return rho(FourierLoop({1: 1.0}), window)


def rho_zinv(window: int = DEFAULT_WINDOW) -> BlockOp:
    """[[S*, 0], [1−SS*, S]]."""
    return rho(FourierLoop({-1: 1.0}), window)


def f_commutator_schatten2(x: BlockOp) -> float:
    """Schatten-2 norm of [F, x] with F = diag(1, −1): twice the joint
    off-diagonal Hilbert-Schmidt norm of the 2x2 block operator x."""
    return 2.0 * math.hypot(_schatten2_est(x.block(1, 2)),
                            _schatten2_est(x.block(2, 1)))


def t1_section(x: BlockOp) -> BlockOp:
    """Canonical section into pairs: attach the (1,1) block itself, so the
    pair defect is exactly zero."""
    return BlockOp(x.rows, first=x.block(1, 1))


def relative_boundary_trace(chain: CyclicChain) -> complex:
    """Trace of the diagonal defect produced by pushing a cyclic 1-cycle of
    2x2 block elements through the pair section and the bar boundary.

    For w = Σ c·(x ⊗ y) the sectioned boundary lands in the trace-class
    corner and equals −Σ c·[x₁₁, y₁₁]; its trace matches tau_cocycle(1, w)
    whenever w is a cycle.
    """
    if chain.degree != 1:
        raise InputError("relative boundary trace needs a degree-1 chain")
    terms = [commutator(x.block(1, 1), y.block(1, 1)).scalar_mul(-co)
             for co, (x, y) in chain.terms]
    return op_trace(functools.reduce(operator.add, terms)) if terms else 0j


# -- determinant invariant, three routes --------------------------------


def _parts(sym: SteinbergSymbol):
    return (sym.u.winding, sym.u.log_part, sym.v.winding, sym.v.log_part)


def _winding_sign(n: int, m: int) -> float:
    return -1.0 if (n * m) % 2 else 1.0


def _exp(x: complex) -> complex:
    """cmath.exp, an overflow reported as a numerical failure."""
    try:
        return cmath.exp(x)
    except OverflowError as exc:
        raise NumericalError("exponential overflows") from exc


def det_invariant_closed(sym: SteinbergSymbol) -> complex:
    """(−1)^{nm} · exp(m·a₀ − n·b₀ + Σ_k k·a_{−k}·b_k), assembled from the
    shift-conjugation and commutator trace formulas."""
    n, a, m, b = _parts(sym)
    expo = (n * shift_conjugation_trace(b) - m * shift_conjugation_trace(a)
            + commutator_trace_closed(a, b))
    return _winding_sign(n, m) * _exp(expo)


def det_invariant_integral(sym: SteinbergSymbol) -> complex:
    """(−1)^{nm} · exp((1/2π)∫(m·a − n·b) dθ + (1/2πi)∫ a·b′ dθ).

    Both integrals are periodic trapezoid means of grid values, reading no
    coefficient; a·b′ is taken on the ``_trapezoid_grid`` of the joint band.
    """
    n, a, m, b = _parts(sym)
    mean = circle_integral(a.scalar_mul(m).sub(b.scalar_mul(n)))
    grid = _trapezoid_grid(a.band + b.band)
    pairing = complex(np.mean(a.eval_grid(grid) * b.derivative().eval_grid(grid))) / 1j
    return _winding_sign(n, m) * _exp(mean + pairing)


def w0_representative(c: FourierLoop, window: int = DEFAULT_WINDOW,
                      exps: tuple[FourierLoop, ...] | None = None) -> ToeplitzOp:
    """S U S* U⁻¹ + (1 − SS*) U⁻¹, the determinant-class representative of
    the cross part {z, e^c}, with U = T(e^c) and its exact inverse U⁻¹ from
    wiener_hopf_pair (given c's split exponentials ``exps``, if known).  The
    operator route takes its determinant by ``_cross_det`` and never builds
    it; ``fredk2 symbol`` builds it for its report."""
    s = shift_op(window)
    st = coshift_op(window)
    u, u_inv = wiener_hopf_pair(c, window, exps)
    p0 = identity_op(window).sub(mul(s, st))
    return mul(mul(mul(s, u), st), u_inv).add(mul(p0, u_inv))


def _cross_det(c: FourierLoop, exps: tuple[FourierLoop, ...], window: int) -> complex:
    """det w0_representative(c, w, exps) on a window w that holds its
    corrections whole, without building it.

    With U = T(f), f = e^{c₋}·e^{c₊}, and U⁻¹ = T(e^{−c₊})·T(e^{−c₋}), the
    representative is I + D·U⁻¹, D = S U S* + P₀ − U = e₀αᵀ + βe₀ᵀ with
    α = (1 − f₀, −f₋₁, −f₋₂, …) and β = (0, −f₁, −f₂, …).  By Sylvester's
    identity its determinant is det(I₂ + M), M = [[αᵀU⁻¹e₀, αᵀU⁻¹β],
    [(U⁻¹e₀)₀, (U⁻¹β)₀]], exact on these finitely supported vectors, so no
    window cuts it: ``window`` is only checked against c's band.  det1p
    takes det(I₂ + M) as the Fredholm determinant of the rank-two
    correction M, with its non-finite check."""
    _require_window(window, c)
    e_minus, e_plus, e_plus_inv, e_minus_inv = exps
    f = e_minus.mul(e_plus)
    _unit_deviation_l1(f.mul(e_plus_inv.mul(e_minus_inv)).sub(FourierLoop({0: 1.0})))
    size = max(1 - f.lo, f.lo + f.run.size)  # the longer of α and β
    alpha = -coeff_run(f, 1 - size, size)[::-1]
    alpha[0] += 1.0
    cols = np.zeros((size, 2), dtype=complex)  # e₀ and β
    cols[0, 0] = 1.0
    cols[1:, 1] = -coeff_run(f, 1, size - 1)
    for g in (e_minus_inv, e_plus_inv):  # a product by T(g) grows the support by g's top index
        cols = _toeplitz_times(g, cols, cols.shape[0] + max(g.lo + g.run.size - 1, 0))
    m = np.array([alpha @ cols[:size], cols[0]])
    return det1p(ToeplitzOp(FourierLoop({0: 1.0}), m, 2))


def det_invariant_operator(sym: SteinbergSymbol, window: int = DEFAULT_WINDOW,
                           strict: bool = True) -> complex:
    """Operator route through the factorization {u, v} = {z, z}^{nm} ·
    {z, e^{c₀}} · {z, e^{c−c₀}} · {e^a, e^b}, c = nb − ma: (−1)^{nm}, e^{−c₀}
    exactly, the cross determinant det w0_representative(c − c₀) as a 2x2
    determinant (``_cross_det``), and the multiplicative commutator
    determinant of the Wiener–Hopf lifts of e^{a−a₀}, e^{b−b₀} with their
    exact inverses (the constants cancel).

    Each determinant is taken on the window its lifts need (see
    route_windows), at most ``window``; a cap below that need truncates
    the Helton–Howe lifts, with the discarded mass in their tail bounds,
    and leaves the cross determinant exact."""
    parts = RouteParts(sym)
    return operator_route_at(parts, route_windows(parts, window), strict)


def _nonconstant(f: FourierLoop) -> FourierLoop:
    """f without its constant coefficient."""
    return f.sub(FourierLoop({0: f[0]}))


def _split_constants(sym: SteinbergSymbol):
    """(e^{m·a₀ − n·b₀}, {zⁿ·e^{a−a₀}, z^m·e^{b−b₀}}) for sym = {zⁿ·e^a,
    z^m·e^b}: the determinant of the constants' part, exact, and the
    symbol left once they are split off."""
    n, a, m, b = _parts(sym)
    return (_exp(m * a[0] - n * b[0]),
            SteinbergSymbol(LoopLog(n, _nonconstant(a)), LoopLog(m, _nonconstant(b))))


class RouteParts:
    """The operator route's inputs for sym = {zⁿ·e^a, z^m·e^b}, the log
    constants split off: the exact scalar (−1)^{nm}·e^{m·a₀ − n·b₀}, the
    cross log c = nb − ma, and the Helton–Howe logs a, b (``helton`` is
    None when one of them is zero), each log paired with its
    split_exponentials, computed once."""

    __slots__ = ("sign", "factor", "cross", "helton")

    def __init__(self, sym: SteinbergSymbol):
        self.factor, bare = _split_constants(sym)
        n, a, m, b = _parts(bare)
        self.sign = _winding_sign(n, m)
        self.cross = _with_exps(b.scalar_mul(n).sub(a.scalar_mul(m)))
        self.helton = (None if a.is_zero() or b.is_zero()
                       else (_with_exps(a), _with_exps(b)))


def _with_exps(f: FourierLoop):
    return f, split_exponentials(f)


def route_windows(parts: RouteParts, cap: float) -> tuple:
    """(cross, Helton–Howe) windows of the operator route, each at most
    ``cap``.  The cross window covers c, its split exponentials and the
    shift; the Helton–Howe window covers a, b and theirs (None when that
    part is not taken)."""
    c, c_exps = parts.cross
    w_c = needed_window(c, *c_exps, z_loop(1))
    if parts.helton is None:
        return min(cap, w_c), None
    (a, a_exps), (b, b_exps) = parts.helton
    return min(cap, w_c), min(cap, needed_window(a, *a_exps, b, *b_exps))


def operator_route_at(parts: RouteParts, windows: tuple, strict: bool) -> complex:
    """The operator route's value on the explicit (cross, Helton–Howe)
    windows: the cross factor by ``_cross_det``, which builds no
    representative and is exact at every window, and the Helton–Howe
    factor by det1p on its window section."""
    (c, c_exps), w_h = parts.cross, windows[1]
    cross = parts.factor * _cross_det(c, c_exps, windows[0])
    if parts.helton is None:
        helton = 1.0 + 0j
    else:
        (a, a_exps), (b, b_exps) = parts.helton
        ea, ea_inv = wiener_hopf_pair(a, w_h, a_exps)
        eb, eb_inv = wiener_hopf_pair(b, w_h, b_exps)
        helton = mult_commutator_det(ea, eb, strict=strict,
                                     u_inv=ea_inv, v_inv=eb_inv)
    return parts.sign * cross * helton


def mult_character(sym: SteinbergSymbol) -> complex:
    """nm·πi + m·a₀ − n·b₀ + Σ_k k·a_{−k}·b_k reduced mod 2πi; the
    imaginary part is normalized into (−π, π] and exp of the returned
    value recovers det_invariant_closed."""
    n, a, m, b = _parts(sym)
    val = ((n * m) * math.pi * 1j
           + n * shift_conjugation_trace(b) - m * shift_conjugation_trace(a)
           + commutator_trace_closed(a, b))
    im = math.remainder(val.imag, TWO_PI)
    if im <= -math.pi:
        im += TWO_PI
    return complex(val.real, im)


# -- operator labels and the degree-2 bar cycle -------------------------


# the bar cycle's operator labels are factored loops under their group law
LoopLabel = LoopLog


class Diag3Label:
    """Diagonal 3x3 stabilization of labels, multiplied entrywise."""

    __slots__ = ("entries",)

    def __init__(self, e1, e2, e3):
        self.entries = (e1, e2, e3)

    def mul(self, other: "Diag3Label") -> "Diag3Label":
        return Diag3Label(*(a.mul(b) for a, b in zip(self.entries, other.entries)))

    def inv(self) -> "Diag3Label":
        return Diag3Label(*(a.inv() for a in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Diag3Label):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


def d12(x) -> Diag3Label:
    """diag(x, x⁻¹, 1)."""
    xi = x.inv()
    return Diag3Label(x, xi, x.mul(xi))


def d13(x) -> Diag3Label:
    """diag(x, 1, x⁻¹)."""
    xi = x.inv()
    return Diag3Label(x, x.mul(xi), xi)


class LabelChain:
    """Integer chain on tuples of hashable labels (free-module bar complex)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int):
        self.degree = _chain_degree(degree)
        self.coeffs = {}

    def add_cell(self, cell, co):
        cell = tuple(cell)
        if len(cell) != self.degree:
            raise InputError("cell length does not match chain degree")
        new = self.coeffs.get(cell, 0) + int(co)
        if new:
            self.coeffs[cell] = new
        else:
            self.coeffs.pop(cell, None)

    def is_zero(self) -> bool:
        return not self.coeffs

    def boundary(self) -> "LabelChain":
        if self.degree == 0:
            raise InputError("degree-0 chains have no boundary")
        table = {}  # the products _bar_terms reads, table[a][b] = a.mul(b)
        for a, b in {pair for cell in self.coeffs for pair in zip(cell, cell[1:])}:
            table.setdefault(a, {})[b] = a.mul(b)
        out = LabelChain(self.degree - 1)
        for cell, co in self.coeffs.items():
            for face, sign in _bar_terms(cell, table):
                out.add_cell(face, sign * co)
        return out


def steinberg_to_h2_cycle(u, v) -> LabelChain:
    """(d₁₃(v), d₁₂(u)) − (d₁₂(u), d₁₃(v)) as a degree-2 chain over exact
    operator labels; the bar boundary is checked to vanish identically,
    which is exactly commutativity of the stabilized labels.  Raw
    FourierLoops are factored first; other labels are taken as they are."""
    lu, lv = (log_split(x) if isinstance(x, FourierLoop) else x for x in (u, v))
    cu, cv = d12(lu), d13(lv)
    chain = LabelChain(2)
    chain.add_cell((cv, cu), 1)
    chain.add_cell((cu, cv), -1)
    if not chain.boundary().is_zero():
        raise InputError("inputs do not commute")
    return chain


# -- 3x3 stabilized operator lifts ---------------------------------------


def _lift(ll: LoopLog, window: int):
    """The 2x2 block lift ρ(zⁿ)·diag(T(e^a), T(e^{−a})) of zⁿ·e^{a} and its
    exact inverse diag(T(e^{−a}), T(e^a))·ρ(z⁻ⁿ), with T(e^{±a}) from
    wiener_hopf_pair; ρ(zⁿ) = ρ(z)ⁿ and ρ(z⁻ⁿ) are exact inverses."""
    n, a = ll.winding, ll.log_part
    e_pos, e_neg = wiener_hopf_pair(a, window)
    ef = BlockOp.diagonal(e_pos, e_neg, window)
    eb = BlockOp.diagonal(e_neg, e_pos, window)
    if n == 0:
        return ef, eb
    return rho(z_loop(n), window).mul(ef), eb.mul(rho(z_loop(-n), window))


def _stabilized_product(x: BlockOp, y: BlockOp) -> BlockOp:
    """L_x·L_y with the 2x2 block operators x at rows and columns (1, 2) and
    y at (1, 3) of the 3x3 identity: four block products."""
    (x11, x12), (x21, x22) = x.rows
    (y11, y12), (y21, y22) = y.rows
    return BlockOp(((x11.mul(y11), x12, x11.mul(y12)),
                    (x21.mul(y11), x22, x21.mul(y12)),
                    (y21, zero_op(x.window), y22)))


def _times_lift(p: BlockOp, x: BlockOp, k: int) -> BlockOp:
    """p·L_x with the 2x2 block operator x at rows and columns (1, k) of the
    3x3 identity: only columns 1 and k of p change."""
    (x11, x12), (x21, x22) = x.rows
    rows = [list(r) for r in p.rows]
    for r in rows:
        r[0], r[k - 1] = (r[0].mul(x11).add(r[k - 1].mul(x21)),
                          r[0].mul(x12).add(r[k - 1].mul(x22)))
    return BlockOp(rows)


def h2_psi_representative(sym: SteinbergSymbol, window: int = 64) -> BlockOp:
    """Multiplicative-commutator representative of the boundary class of the
    degree-2 cycle: L_u · L_v · L_u⁻¹ · L_v⁻¹ with L_u the d₁₂ lift of u
    and L_v the d₁₃ lift of v."""
    lu, lui = _lift(sym.u, window)
    lv, lvi = _lift(sym.v, window)
    return _times_lift(_times_lift(_stabilized_product(lu, lv), lui, 2), lvi, 3)


def h2_representative_det(sym: SteinbergSymbol, window: int = 64) -> complex:
    """Fredholm determinant of the 3x3 representative, a fourth route to
    the invariant that needs no factorization into {z, z}, cross and
    Helton–Howe parts.  The log constants are split off exactly first, as
    on the operator route."""
    factor, bare = _split_constants(sym)
    return factor * det1p(h2_psi_representative(bare, window))
