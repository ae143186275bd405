"""Fredholm determinants of determinant-class operators.

det(1 + K) for trace-class K is computed as a finite LU determinant on
the correction window, with a window-doubling consistency check in
strict mode.  Also provides the exp-pair identity det(e^x e^{−y}) =
e^{Tr(x−y)} and the Gohberg–Krein path determinant

    log det F(1)/det F(0) = ∫₀¹ Tr(F(t)⁻¹ F′(t)) dt.
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


def _unit_symbol_deviation(x: ToeplitzOp) -> float:
    return x.symbol.sub(FourierLoop({0: 1.0})).l1()


class DetClassOp:
    """An operator 1 + K with K trace class (zero-symbol)."""

    __slots__ = ("op", "symbol_deviation")

    def __init__(self, op: ToeplitzOp):
        dev = _unit_symbol_deviation(op)
        if dev > UNIT_SYMBOL_TOL:
            raise InvariantViolation("not determinant class")
        self.op = op
        self.symbol_deviation = dev


def det1p(x, strict: bool = True) -> complex:
    """Fredholm determinant of a determinant-class operator."""
    if isinstance(x, DetClassOp):
        x = x.op
    if _unit_symbol_deviation(x) > UNIT_SYMBOL_TOL:
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


def det_exp_pair_verify(x: np.ndarray, y: np.ndarray, tol: float = 1e-10) -> complex:
    """Evaluate both sides of the exp-pair identity and assert agreement."""
    value = det_exp_pair(x, y)
    direct = complex(np.linalg.det(scipy.linalg.expm(x) @ scipy.linalg.expm(-y)))
    if abs(direct - value) > tol * max(1.0, abs(value)):
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


def _gl_nodes(order: int):
    nodes, weights = scipy.special.roots_legendre(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def path_log_det(path, order: int = 64, tol: float = 1e-11,
                 max_order: int = 1024) -> complex:
    """∫₀¹ Tr(F⁻¹F′) dt by adaptive Gauss–Legendre quadrature."""
    if not isinstance(path, OperatorPath):
        path = OperatorPath(path)

    def integral(o: int) -> complex:
        nodes, weights = _gl_nodes(o)
        total = 0j
        for t, w in zip(nodes, weights):
            f = path(float(t))
            fp = path.deriv(float(t))
            try:
                sol = np.linalg.solve(f, fp)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("path leaves invertibles") from exc
            if not np.all(np.isfinite(sol)):
                raise NumericalError("path leaves invertibles")
            total += w * np.trace(sol)
        return complex(total)

    def endpoint_check(val: complex) -> None:
        # exp(∫Tr F⁻¹F′) = det F(1)/det F(0) holds on any path inside the
        # invertibles; a crossing can cancel symmetrically in the quadrature
        # (pole of the integrand) yet still break this identity.
        s0, la0 = np.linalg.slogdet(_as_matrix(path(0.0)))
        s1, la1 = np.linalg.slogdet(_as_matrix(path(1.0)))
        if s0 == 0 or s1 == 0 or not (np.isfinite(la0) and np.isfinite(la1)):
            raise NumericalError("path leaves invertibles")
        if abs(val.real - (la1 - la0)) > 1e-6 * max(1.0, abs(la1 - la0)):
            raise NumericalError("path leaves invertibles")
        if abs(np.exp(1j * val.imag) - s1 / s0) > 1e-6:
            raise NumericalError("path leaves invertibles")

    prev = integral(order)
    o = 2 * order
    while o <= max_order:
        cur = integral(o)
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            endpoint_check(cur)
            return cur
        prev = cur
        o *= 2
    raise NumericalError("path determinant quadrature did not converge")


def mult_commutator_det(u: ToeplitzOp, v: ToeplitzOp, strict: bool = True,
                        u_inv: ToeplitzOp | None = None,
                        v_inv: ToeplitzOp | None = None) -> complex:
    """det(U V U⁻¹ V⁻¹) for invertibles of E with commuting symbols.

    Inverses known exactly (e^{−T_a} for U = e^{T_a}) may be passed as
    ``u_inv`` / ``v_inv``; otherwise they are computed with
    ``ToeplitzOp.inv``."""
    if u_inv is None:
        u_inv = u.inv()
    if v_inv is None:
        v_inv = v.inv()
    w = u.mul(v).mul(u_inv.mul(v_inv))
    if _unit_symbol_deviation(w) > UNIT_SYMBOL_TOL:
        raise InvariantViolation("multiplicative commutator has nonunit symbol")
    return det1p(w, strict=strict)
