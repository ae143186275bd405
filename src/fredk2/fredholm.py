"""Fredholm determinants of determinant-class operators.

det(1 + K) for trace-class K is computed as a finite LU determinant on
the correction window, with a window-doubling consistency check in
strict mode; square block operators of Toeplitz operators that are the
identity modulo trace class are taken the same way.  Also provides the
exp-pair identity det(e^x e^{−y}) = e^{Tr(x−y)} and the Gohberg–Krein
path determinant

    log det F(1)/det F(0) = ∫₀¹ Tr(F(t)⁻¹ F′(t)) dt,

together with the adaptive Gauss–Legendre driver and endpoint check
that every path integral in the package uses.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.linalg
import scipy.special

from ._errors import InvariantViolation, NumericalError
from .fourier_loops import FourierLoop
from .toeplitz_calculus import ToeplitzOp

UNIT_SYMBOL_TOL = 1e-9
GL_START_ORDER = 8


def det1p(x, strict: bool = True) -> complex:
    """Fredholm determinant of a determinant-class operator: a ToeplitzOp
    with unit symbol, or a square BlockOp of ToeplitzOps whose diagonal
    symbols are 1 and off-diagonal symbols 0.

    Strict mode re-takes the determinant on the doubled window and
    returns it, raising NumericalError when the two disagree."""
    one = FourierLoop({0: 1.0})
    # a ToeplitzOp is checked as its own 1x1 block matrix
    for i, row in enumerate(getattr(x, "rows", ((x,),))):
        for j, blk in enumerate(row):
            dev = blk.symbol.sub(one) if i == j else blk.symbol
            if dev.l1() > UNIT_SYMBOL_TOL:
                raise InvariantViolation("not determinant class")
    w = x.window
    d_small = complex(np.linalg.det(x.dense_section(w)))
    if not strict:
        return d_small
    d_big = complex(np.linalg.det(x.dense_section(2 * w)))
    if abs(d_big - d_small) > 1e-9 * max(abs(d_big), 1e-300):
        raise NumericalError("window too small")
    return d_big


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


def _as_matrix(v):
    if isinstance(v, np.ndarray):
        return v
    if hasattr(v, "dense_section"):
        return v.dense_section(v.window)
    raise TypeError(f"path value of unsupported type {type(v)!r}")


class OperatorPath:
    """C² path t ∈ [0,1] ↦ invertible matrix, as value/derivative callables.

    When no derivative is supplied, a fourth-order central difference is
    used; the value callable must then tolerate arguments slightly
    outside [0, 1].
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
        h = 1e-3
        return (self(t - 2 * h) - 8 * self(t - h)
                + 8 * self(t + h) - self(t + 2 * h)) / (12 * h)

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


def gl_sum(fn, order: int):
    """Σ wᵢ·fn(tᵢ): the Gauss–Legendre rule of the given order for ∫₀¹ fn."""
    nodes, weights = gl_nodes(order)
    total = None
    for t, w in zip(nodes, weights):
        piece = w * fn(float(t))
        total = piece if total is None else total + piece
    return total


def gl_adaptive(estimate, max_order: int, tol: float, measure=None):
    """Adaptive Gauss–Legendre quadrature by order doubling.

    ``estimate(o)`` is the rule of order o (a number, matrix or chain),
    taken at GL_START_ORDER, twice that, … ≤ max_order until two
    successive values agree, ‖m(cur) − m(prev)‖ ≤ tol·max(1, ‖m(cur)‖)
    with m = ``measure`` (the identity by default); the later one is
    returned.  Against a start at order 32 (64), an integrand that
    needs it costs +25 % (+29 %) nodes on a line, +6 % on a triangle."""
    m = measure or (lambda v: v)
    prev = m(estimate(GL_START_ORDER))
    o = 2 * GL_START_ORDER
    while o <= max_order:
        cur = estimate(o)
        cur_m = m(cur)
        if np.linalg.norm(cur_m - prev) <= tol * max(1.0, np.linalg.norm(cur_m)):
            return cur
        prev = cur_m
        o *= 2
    raise NumericalError("quadrature did not converge")


def endpoint_check(f0: np.ndarray, f1: np.ndarray, log_det: complex) -> None:
    """NumericalError unless exp(log_det) = det f1 / det f0.

    exp(∫Tr F⁻¹F′) = det F(1)/det F(0) holds on any path inside the
    invertibles; a crossing can cancel symmetrically in the quadrature
    (pole of the integrand) yet still break this identity."""
    s0, la0 = np.linalg.slogdet(f0)
    s1, la1 = np.linalg.slogdet(f1)
    if s0 == 0 or s1 == 0 or not (np.isfinite(la0) and np.isfinite(la1)):
        raise NumericalError("path leaves invertibles")
    if abs(log_det.real - (la1 - la0)) > 1e-6 * max(1.0, abs(la1 - la0)):
        raise NumericalError("path leaves invertibles")
    if abs(np.exp(1j * log_det.imag) - s1 / s0) > 1e-6:
        raise NumericalError("path leaves invertibles")


def path_log_det(path) -> complex:
    """∫₀¹ Tr(F⁻¹F′) dt by adaptive Gauss–Legendre quadrature."""
    if not isinstance(path, OperatorPath):
        path = OperatorPath(path)

    def integrand(t: float):
        try:
            sol = np.linalg.solve(path(t), path.deriv(t))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("path leaves invertibles") from exc
        if not np.all(np.isfinite(sol)):
            raise NumericalError("path leaves invertibles")
        return np.trace(sol)

    val = complex(gl_adaptive(lambda o: gl_sum(integrand, o), 1024, 1e-11))
    endpoint_check(path(0.0), path(1.0), val)
    return val


def mult_commutator_det(u: ToeplitzOp, v: ToeplitzOp, strict: bool = True, *,
                        u_inv: ToeplitzOp, v_inv: ToeplitzOp) -> complex:
    """det(U V U⁻¹ V⁻¹) for invertibles of E with commuting symbols, given
    their inverses (exact ones from wiener_hopf_pair, say)."""
    return det1p(u.mul(v).mul(u_inv.mul(v_inv)), strict=strict)
