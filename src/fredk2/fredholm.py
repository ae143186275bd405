"""Fredholm determinants of determinant-class operators.

det(1 + K) for trace-class K is the LU determinant of the correction
window; strict mode bounds its change on the doubled window from the same
LU.  Square block operators of Toeplitz operators that are the identity
modulo trace class are taken the same way.  Also provides the exp-pair
identity det(e^x e^{−y}) = e^{Tr(x−y)} and the Gohberg–Krein path determinant

    log det F(1)/det F(0) = ∫₀¹ Tr(F′(t) F(t)⁻¹) dt,

with the adaptive Gauss–Legendre driver, the log-derivative F′F⁻¹ and the
line driver with its endpoint check that every path integral here uses.
"""

from __future__ import annotations

import cmath
import functools
import operator

import numpy as np
import scipy.linalg
import scipy.special

from ._errors import InvariantViolation, NumericalError
from .fourier_loops import _ONE, FourierLoop, coeff_run
from .toeplitz_calculus import ToeplitzOp

UNIT_SYMBOL_TOL = 1e-9
GL_START_ORDER = 6
FD_STEP = 1e-4    # step of central_difference


def _unit_deviation_l1(dev: FourierLoop) -> float:
    """‖dev‖₁ of a symbol's deviation from its unit value, the one symbol
    check of a determinant: NumericalError when it is not finite,
    InvariantViolation beyond UNIT_SYMBOL_TOL."""
    if not np.isfinite(l1 := dev.l1()):
        raise NumericalError("non-finite symbol coefficient")
    if l1 > UNIT_SYMBOL_TOL:
        raise InvariantViolation("not determinant class")
    return l1


@functools.lru_cache(maxsize=None)
def _section_weights(w: int) -> np.ndarray:
    """min(|k|, 2w − |k|) for k = −2w … 2w: the number of entries δ_k has in
    B (k < 0) or C (k > 0) of det1p's doubled window, read-only."""
    weight = w - np.abs(np.abs(np.arange(-2 * w, 2 * w + 1)) - w)
    weight.flags.writeable = False
    return weight


def det1p(x, strict: bool = True) -> complex:
    """Fredholm determinant of a determinant-class operator: a ToeplitzOp
    with unit symbol, or a square BlockOp of ToeplitzOps whose diagonal
    symbols are 1 and off-diagonal symbols 0.  The value is det M_w, M_w
    the window section, from one LU.  NumericalError on a non-finite symbol
    or correction entry, and in strict mode when a bound on
    |det M_2w / det M_w − 1| from that LU exceeds 1e-9.

    With each block's first w indices first, M_2w = [[M_w, B], [C, D]], B, C,
    D − 1 Toeplitz in the deviations δ, and det M_2w / det M_w = det(1 + F),
    F = D − 1 − C M_w⁻¹ B: tr(D − 1) = w Σᵢ δᵢᵢ,₀, ‖D − 1‖₁ ≤ w Σ (‖δ‖₁ + tail),
    ‖C M_w⁻¹ B‖₁ ≤ ‖C‖_F ‖B‖_F √n ‖M_w⁻ᵀ‖₁ (``gecon`` estimate), ‖B‖_F², ‖C‖_F²
    sum min(|k|, 2w − |k|)·|δ_k|² over k < 0, k > 0, and |log det(1 + F) − tr F|
    ≤ ‖F‖₁²/(2(1 − ‖F‖₁)).  A singular M_w passes only with B or C zero.
    NumericalError too on a non-finite ``tail_bound``: the value would
    stand for an operator it does not bound."""
    w = x.window
    trace = d_norm = b2 = c2 = 0.0
    # a ToeplitzOp is checked as its own 1x1 block matrix
    for i, row in enumerate(getattr(x, "rows", ((x,),))):
        for j, blk in enumerate(row):
            dev = blk.symbol.sub(_ONE) if i == j else blk.symbol
            l1 = _unit_deviation_l1(dev)
            if not np.isfinite(blk.corner).all():
                raise NumericalError("non-finite correction")
            if not np.isfinite(blk.tail_bound):
                raise NumericalError("non-finite tail bound")
            d_norm += l1 + dev.tail
            if dev.run.size:  # a zero deviation adds nothing below
                trace += dev[0] if i == j else 0
                mass = _section_weights(w) * np.abs(coeff_run(dev, -2 * w, 4 * w + 1)) ** 2
                b2, c2 = b2 + mass[:2 * w].sum(), c2 + mass[2 * w + 1:].sum()
    section = x.dense_section(w)
    if not section.size:
        return 1 + 0j
    anorm = np.abs(section).sum(axis=1).max()
    # LU of the transpose, which is Fortran-ordered: no copy, same det
    lu, piv, _ = scipy.linalg.lapack.zgetrf(section.T, overwrite_a=True)
    value = complex(np.prod(lu.diagonal()) * (-1) ** (piv != np.arange(piv.size)).sum())
    coupling = 0.0
    if strict and b2 and c2:
        rcond = scipy.linalg.lapack.zgecon(lu, anorm)[0]
        coupling = np.sqrt(b2 * c2 * piv.size) / (rcond * anorm) if rcond else np.inf
    f = w * d_norm + coupling
    bound = np.expm1(w * abs(trace) + coupling + f * f / (2 - 2 * f)) if f < 1 else np.inf
    if strict and bound > 1e-9:
        raise NumericalError("window too small")
    return value


def det_exp_pair(x: np.ndarray, y: np.ndarray) -> complex:
    """det(e^x e^{−y}) = e^{Tr(x−y)}."""
    return cmath.exp(complex(np.trace(x) - np.trace(y)))


def det_exp_pair_verify(x: np.ndarray, y: np.ndarray) -> complex:
    """Evaluate both sides of the exp-pair identity and assert agreement."""
    value = det_exp_pair(x, y)
    direct = complex(np.linalg.det(scipy.linalg.expm(x) @ scipy.linalg.expm(-y)))
    if abs(direct - value) > 1e-10 * max(1.0, abs(value)):
        raise InvariantViolation("determinant of exponential pair deviates "
                                 f"from e^Tr: |Δ| = {abs(direct - value):.3e}")
    return value


def central_difference(f, t: float):
    """f′(t) by the fourth-order central difference of step FD_STEP; f may be
    matrix- or operator-valued and must extend 2·FD_STEP past its interval."""
    h = FD_STEP
    far = f(t - 2.0 * h) - f(t + 2.0 * h)
    near = f(t + h) - f(t - h)
    return (1.0 / (12.0 * h)) * (far + 8.0 * near)


def _as_matrix(v):
    if isinstance(v, np.ndarray):
        return v
    raise TypeError(f"path value of unsupported type {type(v)!r}")


class OperatorPath:
    """C² path t ∈ [0,1] ↦ invertible matrix, as value/derivative callables.

    When no derivative is supplied, ``central_difference`` is used; the
    value callable must then tolerate arguments slightly outside [0, 1].
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative=None):
        self.value = value
        self.derivative = derivative

    def __call__(self, t: float) -> np.ndarray:
        return _as_matrix(self.value(t))

    def deriv(self, t: float) -> np.ndarray:
        if self.derivative is not None:
            return _as_matrix(self.derivative(t))
        return central_difference(self, t)

    @classmethod
    def exponential(cls, x: np.ndarray) -> "OperatorPath":
        """t ↦ e^{tx}."""
        x = np.asarray(x, dtype=complex)
        return cls(lambda t: scipy.linalg.expm(t * x),
                   lambda t: x @ scipy.linalg.expm(t * x))

    @classmethod
    def product(cls, *paths: "OperatorPath") -> "OperatorPath":
        """Pointwise product path with product-rule derivative."""

        def value(t):
            out = paths[0](t)
            for p in paths[1:]:
                out = out @ p(t)
            return out

        def derivative(t):
            vals = [p(t) for p in paths]
            out = np.zeros_like(vals[0])
            for i, p in enumerate(paths):
                term = p.deriv(t)
                for v in vals[:i][::-1]:
                    term = v @ term
                for v in vals[i + 1:]:
                    term = term @ v
                out = out + term
            return out

        return cls(value, derivative)


def gl_nodes(order: int):
    """Gauss–Legendre nodes and weights of the given order on [0, 1]."""
    nodes, weights = scipy.special.roots_legendre(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def gl_adaptive(estimate, max_order: int, tol: float, measure=None):
    """Adaptive Gauss–Legendre quadrature on the ladder o → ⌈3o/2⌉.

    ``estimate(o)`` is the rule of order o (a number, matrix or chain),
    taken at o = GL_START_ORDER = 6, 9, 14, 21, 32, 48, … with the last
    rung clamped to max_order, until two successive values agree,
    ‖m(cur) − m(prev)‖ ≤ tol·max(1, ‖m(cur)‖) with m = ``measure`` (the
    identity by default); the later one is returned.  Nodes against the
    doubling ladder 8, 16, 32, …: e^{40it}, resolved near order 32, takes
    130 on a line for 120, and e^{40i(t₁+t₂)} 1,778 on a triangle for
    5,440; a refusal takes 1,592 on a line (max order 512) for 1,016 and
    37,314 on a triangle (max order 128) for 21,824."""
    m = measure or (lambda v: v)
    o = GL_START_ORDER
    prev = m(estimate(o))
    while o < max_order:
        o = min(-(-3 * o // 2), max_order)
        cur = estimate(o)
        cur_m = m(cur)
        if np.linalg.norm(cur_m - prev) <= tol * max(1.0, np.linalg.norm(cur_m)):
            return cur
        prev = cur_m
    raise NumericalError("quadrature did not converge")


def _log_det(x) -> complex:
    """log det x with the principal phase, of a matrix or (by det1p) of a
    determinant-class operator.  NumericalError on a zero or non-finite one."""
    sign, log_abs = np.linalg.slogdet(x if isinstance(x, np.ndarray) else [[det1p(x)]])
    if not np.isfinite(log_abs):
        raise NumericalError("path leaves invertibles")
    return complex(log_abs, np.angle(sign))


_SINGULAR_NODE = "path leaves invertibles: singular simplex value at a quadrature node"


def _inverse(x):
    """x⁻¹ of a matrix, or of an operator by its own ``inv``; NumericalError
    on a singular matrix."""
    if not isinstance(x, np.ndarray):
        return x.inv()
    try:
        return np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(_SINGULAR_NODE) from exc


def _log_derivative(f, f_prime):
    """F′F⁻¹ at one node, of matrix or operator values F = f, F′ = f_prime;
    NumericalError there on a singular F or a non-finite matrix result."""
    with np.errstate(all="ignore"):  # an inf·0 is refused below, not warned
        out = f_prime @ _inverse(f)
    if isinstance(out, np.ndarray) and not np.isfinite(out).all():
        raise NumericalError(_SINGULAR_NODE)
    return out


def _trace(x) -> complex:
    """Tr x of a matrix, or of a trace-class operator by its ``op_trace``."""
    return complex(np.trace(x)) if isinstance(x, np.ndarray) else x.op_trace()


def endpoint_check(want: complex, log_det: complex, tol: float) -> None:
    """NumericalError unless the quadrature log_det of ∫Tr F′F⁻¹ matches
    want = log det F(1)/det F(0) from ``_log_det``: real parts within tol
    relative to max(1, |Re want|), phases within tol.  A crossing of the
    singular set can cancel in the quadrature (a symmetric pole of the
    integrand), and a wrong derivative inside a trace; neither keeps this
    identity."""
    if (abs(log_det.real - want.real) > tol * max(1.0, abs(want.real))
            or abs(cmath.exp(1j * (log_det.imag - want.imag)) - 1) > tol):
        raise NumericalError("path leaves invertibles, or a derivative is not the path's: "
                             "∫Tr F′F⁻¹ misses log det F(1)/det F(0)")


def _line_log(form, log_det_at, max_order: int, tol: float):
    """∫₀¹ form(t) dt by ``gl_adaptive`` to 1e-11 up to max_order; ``endpoint_check``
    holds its trace (a number is its own) to log_det_at(1) − log_det_at(0) within tol."""

    def rule(order):
        nodes, weights = gl_nodes(order)
        return functools.reduce(operator.add, (w * form(float(t)) for t, w in zip(nodes, weights)))

    val = gl_adaptive(rule, max_order, 1e-11)
    endpoint_check(log_det_at(1.0) - log_det_at(0.0),
                   complex(np.trace(val) if np.ndim(val) else val), tol)
    return val


def path_log_det(path) -> complex:
    """∫₀¹ Tr(F′F⁻¹) dt along an OperatorPath, by ``_line_log``."""
    return complex(_line_log(lambda t: _trace(_log_derivative(path(t), path.deriv(t))),
                             lambda t: _log_det(path(t)), 1024, 1e-6))


def mult_commutator_det(u: ToeplitzOp, v: ToeplitzOp, strict: bool = True, *,
                        u_inv: ToeplitzOp, v_inv: ToeplitzOp) -> complex:
    """det(U V U⁻¹ V⁻¹) for invertibles of E with commuting symbols, given
    their inverses (exact ones from wiener_hopf_pair, say)."""
    return det1p(u.mul(v).mul(u_inv.mul(v_inv)), strict=strict)
