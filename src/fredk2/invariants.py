"""Determinant invariant and multiplicative character of loop Steinberg symbols.

A symbol {u, v} of commuting nonvanishing smooth loops on the circle gets a
determinant value through three independent routes: a closed coefficient
formula, circle integrals, and operator determinants of explicit
multiplicative-commutator representatives in the Toeplitz picture.  The
module also houses the 2x2 block realization of multiplication operators in
the shift basis, the chain-level bridge between the cyclic 1-cocycle and the
relative boundary trace, and the degree-2 bar cycle attached to a symbol
together with its 3x3 stabilized operator lift.
"""

import cmath
import math

import numpy as np

from ._errors import InputError, InvariantViolation, NumericalError
from .fourier_loops import (
    FourierLoop,
    LoopLog,
    circle_integral,
    log_split,
    pairing_integral,
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
    op_trace,
    shift_conjugation_trace,
    shift_op,
    toeplitz,
    wiener_hopf_pair,
    zero_op,
    _require_window,
)
from .fredholm import det1p, mult_commutator_det
from .cyclic_chains import BlockOp, CyclicChain
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

    def __repr__(self):
        return f"SteinbergSymbol({self.u!r}, {self.v!r})"


# -- block operators ----------------------------------------------------


def _schatten2_est(x: ToeplitzOp) -> float:
    if not x.symbol.is_zero():
        raise InvariantViolation("not Hilbert-Schmidt: nonzero symbol part")
    return float(np.linalg.norm(x.correction)) + x.tail_bound


def hankel_op(f: FourierLoop, window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """H_f as an operator with zero symbol; finite rank and exact inside
    the window for band-limited f."""
    _require_window(window, f.band)
    return ToeplitzOp(zero_loop(), HankelWindow(f, window).matrix, window, 0.0)


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
    defect = None
    for co, (x, y) in chain.terms:
        term = commutator(x.block(1, 1), y.block(1, 1)).scalar_mul(-co)
        defect = term if defect is None else defect.add(term)
    if defect is None:
        return 0j
    return op_trace(defect)


# -- determinant invariant, three routes --------------------------------


def _parts(sym: SteinbergSymbol):
    return (sym.u.winding, sym.u.log_part, sym.v.winding, sym.v.log_part)


def _winding_sign(n: int, m: int) -> float:
    return -1.0 if (n * m) % 2 else 1.0


def det_invariant_closed(sym: SteinbergSymbol) -> complex:
    """(−1)^{nm} · exp(m·a₀ − n·b₀ + Σ_k k·a_{−k}·b_k), assembled from the
    shift-conjugation and commutator trace formulas."""
    n, a, m, b = _parts(sym)
    expo = (n * shift_conjugation_trace(b) - m * shift_conjugation_trace(a)
            + commutator_trace_closed(a, b))
    return _winding_sign(n, m) * cmath.exp(expo)


def det_invariant_integral(sym: SteinbergSymbol, grid: int = None) -> complex:
    """(−1)^{nm} · exp((1/2π)∫(m·a − n·b) dθ + (1/2πi)∫ a·b′ dθ).

    Both integrals are evaluated with a quadrature cross-check against
    their coefficient read-offs.  ``grid`` overrides the number of
    quadrature nodes; it must resolve the joint band.
    """
    n, a, m, b = _parts(sym)
    mean = circle_integral(a.scalar_mul(m).sub(b.scalar_mul(n)), cross_check=True)
    pairing = pairing_integral(a, b)
    if grid is None:
        grid = 1 << max(4, (2 * (a.band + b.band) + 2).bit_length())
    elif grid <= 2 * (a.band + b.band):
        raise InputError("quadrature order does not resolve the joint band")
    quad = complex(np.mean(a.eval_grid(grid) * b.derivative().eval_grid(grid))) / 1j
    if abs(quad - pairing) > 1e-10 * max(1.0, a.l1() * b.derivative().l1()):
        raise InvariantViolation("quadrature disagrees with coefficient read-off")
    return _winding_sign(n, m) * cmath.exp(mean + pairing)


def w0_representative(c: FourierLoop, window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """S U S* U⁻¹ + (1 − SS*) U⁻¹, the determinant-class representative of
    the cross part {z, e^c}, with U = T(e^c) and its exact inverse U⁻¹ from
    wiener_hopf_pair."""
    s = shift_op(window)
    st = coshift_op(window)
    u, u_inv = wiener_hopf_pair(c, window)
    p0 = identity_op(window).sub(mul(s, st))
    return mul(mul(mul(s, u), st), u_inv).add(mul(p0, u_inv))


def det_invariant_operator(sym: SteinbergSymbol, window: int = DEFAULT_WINDOW,
                           strict: bool = True) -> complex:
    """Operator route through the factorization {u, v} = {z, z}^{nm} ·
    {z, e^{c₀}} · {z, e^{c−c₀}} · {e^a, e^b}, c = nb − ma: (−1)^{nm}, e^{−c₀}
    exactly, the Fredholm determinant of w0_representative(c − c₀), and the
    multiplicative commutator determinant of the Wiener–Hopf lifts of
    e^{a−a₀}, e^{b−b₀} with their exact inverses (the constants cancel)."""
    return _operator_route(sym, window, strict)[0]


def _nonconstant(f: FourierLoop) -> FourierLoop:
    """f without its constant coefficient."""
    return f.sub(FourierLoop({0: f[0]}))


def _split_constants(sym: SteinbergSymbol):
    """(e^{m·a₀ − n·b₀}, {zⁿ·e^{a−a₀}, z^m·e^{b−b₀}}) for sym = {zⁿ·e^a,
    z^m·e^b}: the determinant of the constants' part, exact, and the
    symbol left once they are split off."""
    n, a, m, b = _parts(sym)
    try:
        factor = cmath.exp(m * a[0] - n * b[0])
    except OverflowError as exc:
        raise NumericalError("exponential overflows") from exc
    return factor, SteinbergSymbol(LoopLog(n, _nonconstant(a)),
                                   LoopLog(m, _nonconstant(b)))


def _operator_route(sym: SteinbergSymbol, window: int, strict: bool):
    """det_invariant_operator's value and the w0_representative it used."""
    factor, bare = _split_constants(sym)
    n, a, m, b = _parts(bare)
    rep = w0_representative(b.scalar_mul(n).sub(a.scalar_mul(m)), window)
    cross = factor * det1p(rep, strict=strict)
    if a.is_zero() or b.is_zero():
        helton = 1.0 + 0j
    else:
        ea, ea_inv = wiener_hopf_pair(a, window)
        eb, eb_inv = wiener_hopf_pair(b, window)
        helton = mult_commutator_det(ea, eb, strict=strict,
                                     u_inv=ea_inv, v_inv=eb_inv)
    return _winding_sign(n, m) * cross * helton, rep


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


class LoopLabel:
    """Exact symbol-level label zⁿ·e^{a} with hashable group structure.

    Products add windings and log coefficients; exact float cancellation in
    the loop arithmetic makes x·x⁻¹ the canonical identity label.
    """

    __slots__ = ("winding", "log_part")

    def __init__(self, winding: int, log_part: FourierLoop):
        self.winding = int(winding)
        self.log_part = log_part

    @classmethod
    def from_log(cls, ll: LoopLog) -> "LoopLabel":
        return cls(ll.winding, ll.log_part)

    @classmethod
    def identity(cls) -> "LoopLabel":
        return cls(0, zero_loop())

    def mul(self, other: "LoopLabel") -> "LoopLabel":
        return LoopLabel(self.winding + other.winding,
                         self.log_part.add(other.log_part))

    def inv(self) -> "LoopLabel":
        return LoopLabel(-self.winding, self.log_part.neg())

    def _key(self):
        return (self.winding, tuple(sorted(self.log_part.coeffs.items())))

    def __eq__(self, other):
        if not isinstance(other, LoopLabel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LoopLabel({self.winding}, {dict(self.log_part.coeffs)!r})"


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

    def __repr__(self):
        return f"Diag3Label{self.entries!r}"


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

    def __init__(self, degree: int, coeffs=None):
        self.degree = int(degree)
        self.coeffs = {}
        for cell, co in (coeffs or {}).items():
            self.add_cell(cell, co)

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
        out = LabelChain(self.degree - 1)
        for cell, co in self.coeffs.items():
            for face, sign in _bar_terms(cell, lambda a, b: a.mul(b)):
                out.add_cell(face, sign * co)
        return out


def _as_label(x) -> "LoopLabel | object":
    if isinstance(x, LoopLog):
        return LoopLabel.from_log(x)
    if isinstance(x, FourierLoop):
        return LoopLabel.from_log(log_split(x))
    return x


def steinberg_to_h2_cycle(u, v) -> LabelChain:
    """(d₁₃(v), d₁₂(u)) − (d₁₂(u), d₁₃(v)) as a degree-2 chain over exact
    operator labels; the bar boundary is checked to vanish identically,
    which is exactly commutativity of the stabilized labels."""
    lu = _as_label(u)
    lv = _as_label(v)
    cu = d12(lu)
    cv = d13(lv)
    chain = LabelChain(2)
    chain.add_cell((cv, cu), 1)
    chain.add_cell((cu, cv), -1)
    if not chain.boundary().is_zero():
        raise InputError("inputs do not commute")
    return chain


# -- 3x3 stabilized operator lifts ---------------------------------------


def _embed(x: BlockOp, k: int, window: int) -> BlockOp:
    """The 2x2 block operator x placed at rows and columns (1, k) of the
    3x3 identity."""
    one, z = identity_op(window), zero_op(window)
    at = {1: 1, k: 2}
    return BlockOp([[x.block(at[i], at[j]) if i in at and j in at
                     else one if i == j else z for j in (1, 2, 3)]
                    for i in (1, 2, 3)])


def _lift(k: int, ll: LoopLog, window: int):
    """The d₁ₖ lift of zⁿ·e^{a} and its exact inverse: ρ(z)ⁿ·diag(T(e^a),
    T(e^{−a})) in the 2x2 picture, with T(e^a) and its inverse from
    wiener_hopf_pair, placed at rows and columns (1, k).  The corner
    1−SS* of ρ(z) and ρ(z⁻¹) makes them a true inverse pair in the
    correction calculus."""
    zf, zb = rho_z(window), rho_zinv(window)
    if ll.winding < 0:
        zf, zb = zb, zf
    fwd = bwd = None
    for _ in range(abs(ll.winding)):
        fwd = zf if fwd is None else fwd.mul(zf)
        bwd = zb if bwd is None else bwd.mul(zb)
    if not ll.log_part.is_zero():
        e_pos, e_neg = wiener_hopf_pair(ll.log_part, window)
        ef = BlockOp.diagonal(e_pos, e_neg, window)
        eb = BlockOp.diagonal(e_neg, e_pos, window)
        fwd = ef if fwd is None else fwd.mul(ef)
        bwd = eb if bwd is None else eb.mul(bwd)
    if fwd is None:
        one = identity_op(window)
        fwd = bwd = BlockOp.diagonal(one, one, window)
    return _embed(fwd, k, window), _embed(bwd, k, window)


def h2_psi_representative(sym: SteinbergSymbol, window: int = 64) -> BlockOp:
    """Multiplicative-commutator representative of the boundary class of the
    degree-2 cycle: L_u · L_v · L_u⁻¹ · L_v⁻¹ with L_u the d₁₂ lift of u
    and L_v the d₁₃ lift of v."""
    lu, lui = _lift(2, sym.u, window)
    lv, lvi = _lift(3, sym.v, window)
    return lu.mul(lv).mul(lui).mul(lvi)


def h2_representative_det(sym: SteinbergSymbol, window: int = 64,
                          strict: bool = True) -> complex:
    """Fredholm determinant of the 3x3 representative, a fourth route to
    the invariant that needs no factorization into {z, z}, cross and
    Helton–Howe parts.  The log constants are split off exactly first, as
    on the operator route."""
    factor, bare = _split_constants(sym)
    return factor * det1p(h2_psi_representative(bare, window), strict)
