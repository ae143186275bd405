"""Toeplitz operators with trace-class bookkeeping.

An element of the extension algebra E = {T_φ + trace class} is stored as

    symbol φ   (a FourierLoop; T_φ has matrix (φ_{j−k})_{j,k≥0})
    correction C   (dense M×M window, the trace-class part)
    tail_bound     (bound on the trace norm of whatever fell off the window)

Bare truncated matrices are never used as operator models: the trace of a
commutator of finite matrices is identically zero, so finite sections
cannot see any of the invariants computed downstream.  All structure
lives in the symbol/correction split.

Products follow the Brown–Halmos identity

    T_φ T_ψ = T_{φψ} − H_φ H_{ψ̃},    ψ̃(z) = ψ(1/z),

with the Hankel matrix H_φ = (φ_{j+k+1})_{j,k≥0}, which is supported in a
band×band corner for band-limited symbols.  Symbol arithmetic is exact
(fsum-canonical), so the symbol map is an algebra homomorphism on the
nose and commutators have exactly zero symbol.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg

from ._errors import InputError, InvariantViolation, NumericalError
from .fourier_loops import FourierLoop, pairing_integral, winding_number, zero_loop

DEFAULT_WINDOW = 256
# Symbols with at most this many coefficients (S, S*, 1, 0) are applied
# to a block as shifted row or column slices rather than a dense product.
FEW_COEFFS = 4


def toeplitz_matrix(symbol: FourierLoop, rows: int, cols: int | None = None) -> np.ndarray:
    """Dense section (φ_{j−k}), j < rows, k < cols."""
    if cols is None:
        cols = rows
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    # diag[d + cols − 1] = φ_d for every offset d = j − k in the section
    diag = np.zeros(rows + cols - 1, dtype=complex)
    for k, c in symbol.coeffs.items():
        if -cols < k < rows:
            diag[k + cols - 1] = c
    windows = np.lib.stride_tricks.sliding_window_view(diag, cols)
    return windows[:, ::-1].copy()


class HankelWindow:
    """Dense window of the Hankel matrix (φ_{j+k+1})_{j,k≥0}."""

    __slots__ = ("matrix",)

    def __init__(self, symbol: FourierLoop, window: int):
        h = np.zeros((window, window), dtype=complex)
        for k, c in symbol.coeffs.items():
            if k >= 1:
                # anti-diagonal j + l = k - 1
                idx = np.arange(0, min(k, window))
                sel = idx[k - 1 - idx < window]
                h[sel, k - 1 - sel] = c
        self.matrix = h


def _norms(block: np.ndarray) -> tuple[float, float]:
    """(‖·‖_F, cheap trace-norm bound sqrt(rank)·‖·‖_F) of a block."""
    if block.size == 0:
        return 0.0, 0.0
    r = min(np.count_nonzero(block.any(axis=1)),
            np.count_nonzero(block.any(axis=0)))
    fro = float(np.linalg.norm(block))
    return fro, math.sqrt(r) * fro


def _nuclear_est(block: np.ndarray) -> float:
    """Cheap upper bound ‖·‖₁ ≤ sqrt(rank)·‖·‖_F."""
    return _norms(block)[1]


def _interior_spill_est(corr: np.ndarray, window: int, inner: int) -> float:
    """Estimate the trace norm of correction content outside the kept
    window, using only the interior of the computed section: the outer
    strip of a finite-section computation is boundary pollution, not
    operator content.  Doubled as a margin for the unsampled remainder."""
    inner = min(inner, corr.shape[0])
    block = corr[:inner, :inner].copy()
    w = min(window, inner)
    block[:w, :w] = 0
    return 2.0 * _nuclear_est(block)


def _from_section(sym: FourierLoop, section: np.ndarray, window: int,
                  inner: int, tail: float) -> "ToeplitzOp":
    """Operator with symbol ``sym`` read off a dense section of it: the
    correction is the section minus T_sym, kept on the window, and the
    tail adds the spill estimated on the first ``inner`` rows/columns,
    the only part of the section that is read."""
    inner = min(inner, section.shape[0])
    corr = section[:inner, :inner] - toeplitz_matrix(sym, inner)
    tail += _interior_spill_est(corr, window, inner)
    return ToeplitzOp(sym, corr[:window, :window], window, tail)


def _toeplitz_times(symbol: FourierLoop, block: np.ndarray, rows: int) -> np.ndarray:
    """T_φ[:rows, :n] @ block for a block with n rows."""
    n = block.shape[0]
    if len(symbol.coeffs) > FEW_COEFFS:
        return toeplitz_matrix(symbol, rows, n) @ block
    out = np.zeros((rows, block.shape[1]), dtype=complex)
    for k, c in symbol.coeffs.items():
        lo, hi = max(0, k), min(rows, n + k)
        if lo < hi:
            out[lo:hi] += c * block[lo - k:hi - k]
    return out


class ToeplitzOp:
    """T_φ + C with C supported (up to tail_bound) in an M×M window."""

    __slots__ = ("symbol", "correction", "window", "tail_bound")

    def __init__(self, symbol: FourierLoop, correction: np.ndarray | None = None,
                 window: int = DEFAULT_WINDOW, tail_bound: float = 0.0):
        self.symbol = symbol
        self.window = int(window)
        if correction is None:
            correction = np.zeros((self.window, self.window), dtype=complex)
        correction = np.asarray(correction, dtype=complex)
        if correction.shape != (self.window, self.window):
            raise InputError("correction window shape mismatch")
        self.correction = correction
        self.tail_bound = float(tail_bound)

    # -- structure -------------------------------------------------------

    def dense_section(self, n: int) -> np.ndarray:
        """Dense n×n section of T_φ + C."""
        out = toeplitz_matrix(self.symbol, n)
        m = min(n, self.window)
        out[:m, :m] += self.correction[:m, :m]
        return out

    def resized(self, window: int) -> "ToeplitzOp":
        if window == self.window:
            return self
        out = np.zeros((window, window), dtype=complex)
        m = min(window, self.window)
        out[:m, :m] = self.correction[:m, :m]
        tail = self.tail_bound
        if window < self.window:
            spill = self.correction.copy()
            spill[:window, :window] = 0
            tail += _nuclear_est(spill)
        return ToeplitzOp(self.symbol, out, window, tail)

    def op_norm_est(self) -> float:
        # Frobenius bounds the spectral norm; cheap and an honest over-estimate
        return (self.symbol.l1() + self.symbol.tail
                + float(np.linalg.norm(self.correction)) + self.tail_bound)

    # -- linear ops --------------------------------------------------------

    def add(self, other: "ToeplitzOp") -> "ToeplitzOp":
        w = max(self.window, other.window)
        a, b = self.resized(w), other.resized(w)
        return ToeplitzOp(a.symbol.add(b.symbol), a.correction + b.correction,
                          w, a.tail_bound + b.tail_bound)

    def sub(self, other: "ToeplitzOp") -> "ToeplitzOp":
        return self.add(other.neg())

    def neg(self) -> "ToeplitzOp":
        return ToeplitzOp(self.symbol.neg(), -self.correction, self.window,
                          self.tail_bound)

    def scalar_mul(self, s: complex) -> "ToeplitzOp":
        return ToeplitzOp(self.symbol.scalar_mul(s), complex(s) * self.correction,
                          self.window, abs(s) * self.tail_bound)

    # -- multiplication ----------------------------------------------------

    def mul(self, other: "ToeplitzOp") -> "ToeplitzOp":
        """Brown–Halmos product; correction exact on an extended window,
        then truncated back with the discarded mass bounded.

        Only nonzero blocks are multiplied: T_φ·C_y fills the first w
        columns of the extended window, C_x·T_ψ its first w rows and
        C_x·C_y the kept w×w corner."""
        w = max(self.window, other.window)
        x, y = self.resized(w), other.resized(w)
        phi, psi = x.symbol, y.symbol
        cx, cy = x.correction, y.correction
        x_live, y_live = cx.any(), cy.any()
        band = max(phi.band, psi.band)
        ext = w + band

        corr = np.zeros((ext, ext), dtype=complex)
        hb = min(max(band, 1), ext)
        ha = HankelWindow(phi, hb).matrix
        hbt = HankelWindow(psi.reflect(), hb).matrix
        corr[:hb, :hb] -= ha @ hbt
        if y_live and not phi.is_zero():
            corr[:, :w] += _toeplitz_times(phi, cy, ext)
        if x_live and not psi.is_zero():
            # C_x·T_ψ = (T_ψ̃·C_xᵀ)ᵀ, as T_ψᵀ = T_ψ̃
            corr[:w, :] += _toeplitz_times(psi.reflect(), cx.T, ext).T
        if x_live and y_live:
            corr[:w, :w] += cx @ cy

        kept = corr[:w, :w].copy()
        corr[:w, :w] = 0
        discarded = _nuclear_est(corr)
        fx, nx = _norms(cx) if x_live else (0.0, 0.0)
        fy, ny = _norms(cy) if y_live else (0.0, 0.0)
        # op_norm_est of each factor, with the Frobenius norm read once
        x_norm = phi.l1() + phi.tail + fx + x.tail_bound
        y_norm = psi.l1() + psi.tail + fy + y.tail_bound
        tail = (x.tail_bound * y_norm + x_norm * y.tail_bound
                + discarded
                + phi.tail * ny
                + nx * psi.tail)
        return ToeplitzOp(phi.mul(psi), kept, w, tail)

    def inv(self) -> "ToeplitzOp":
        """Inverse in E (winding-zero nonvanishing symbol)."""
        if winding_number(self.symbol) != 0:
            raise NumericalError("not invertible in E: index obstruction")
        psi = self.symbol.inv()
        w = self.window
        # invert on an enlarged section so the boundary layer of the
        # finite-section inverse stays outside the kept window
        big = 2 * w + 2 * max(self.symbol.band, psi.band)
        try:
            # scipy warns on an exact zero pivot; the pivot test below decides
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(self.dense_section(big))
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError("numerically singular") from exc
        diag = np.abs(np.diag(lu))
        if diag.min() <= 1e-14 * max(diag.max(), 1.0):
            raise NumericalError("numerically singular")
        inv_big = scipy.linalg.lu_solve((lu, piv), np.eye(big, dtype=complex),
                                        check_finite=False)
        return _from_section(psi, inv_big, w, (w + big) // 2,
                             self.tail_bound * float(np.linalg.norm(inv_big)) ** 2)

    def exp(self) -> "ToeplitzOp":
        """e^{T_φ + C} as symbol e^φ plus correction, via dense scaling
        and squaring on a quarantined section."""
        sym = self.symbol.exp()
        quarantine = max(2 * sym.band, 32)
        big = self.window + quarantine
        return _from_section(sym, scipy.linalg.expm(self.dense_section(big)),
                             self.window, self.window + quarantine // 2,
                             self.tail_bound * math.exp(self.op_norm_est()))

    # -- trace ----------------------------------------------------------

    def op_trace(self) -> complex:
        if not self.symbol.is_zero():
            raise InvariantViolation("trace undefined: nonzero symbol part")
        return complex(np.trace(self.correction))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        from .fourier_loops import loop_to_json
        flat = self.correction.reshape(-1)
        return {"symbol": loop_to_json(self.symbol),
                "window": self.window,
                "correction": [[v.real, v.imag] for v in flat],
                "tail_bound": self.tail_bound}


def _require_window(window: int, band: int) -> None:
    """The window must hold the band-wide corners of a band-``band`` symbol."""
    if window < 2 * band + 2:
        raise InputError("window must dominate band")


def toeplitz(a: FourierLoop, window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """T_a with zero correction."""
    _require_window(window, a.band)
    return ToeplitzOp(a, None, window, 0.0)


def identity_op(window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    return ToeplitzOp(FourierLoop({0: 1.0}), None, window, 0.0)


def zero_op(window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    return ToeplitzOp(zero_loop(), None, window, 0.0)


def shift_op(window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """S = T_z, the unilateral shift."""
    return toeplitz(FourierLoop({1: 1.0}), window)


def coshift_op(window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """S* = T_{z⁻¹}."""
    return toeplitz(FourierLoop({-1: 1.0}), window)


def mul(x: ToeplitzOp, y: ToeplitzOp) -> ToeplitzOp:
    return x.mul(y)


def inv(x: ToeplitzOp) -> ToeplitzOp:
    return x.inv()


def exp_op(x: ToeplitzOp) -> ToeplitzOp:
    return x.exp()


def wiener_hopf_pair(a: FourierLoop, window: int = DEFAULT_WINDOW
                     ) -> tuple[ToeplitzOp, ToeplitzOp]:
    """(T(e^{a₋})·T(e^{a₊}), T(e^{−a₊})·T(e^{−a₋})) with a₋ the k < 0 and
    a₊ the k ≥ 0 part of the log a.

    T(f)T(g) = T(fg) when f is coanalytic or g analytic, so the first is
    T(e^a) and the second its exact inverse: an invertible lift of e^a
    built from symbol exponentials and Brown–Halmos products alone.  The
    factors skip toeplitz()'s band check, since exp symbols can be wider
    than half the window; mul's tail carries what falls past it.  The
    log's tail bounds the ℓ¹ mass it lost on either side of the split."""
    _require_window(window, a.band)
    minus = FourierLoop({k: c for k, c in a.coeffs.items() if k < 0}, a.tail)
    plus = FourierLoop({k: c for k, c in a.coeffs.items() if k >= 0}, a.tail)

    def t_exp(f: FourierLoop) -> ToeplitzOp:
        return ToeplitzOp(f.exp(), None, window, 0.0)

    return (t_exp(minus).mul(t_exp(plus)),
            t_exp(plus.neg()).mul(t_exp(minus.neg())))


def op_trace(x: ToeplitzOp) -> complex:
    return x.op_trace()


def commutator(x: ToeplitzOp, y: ToeplitzOp) -> ToeplitzOp:
    return x.mul(y).sub(y.mul(x))


def commutator_trace_closed(a: FourierLoop, b: FourierLoop) -> complex:
    """Tr[T_a, T_b] = Σ_k k·a_{−k}·b_k."""
    return pairing_integral(a, b)


def shift_conjugation_trace(b: FourierLoop) -> complex:
    """Tr(S·T_b·S* − T_b) = −b₀."""
    return -b[0]


def schatten2_commutator_F(f: FourierLoop) -> float:
    """Hilbert–Schmidt norm of [F, π(f)] on the two-sided space,
    F = 2P − 1: equals sqrt(4·Σ_k |k|·|f_k|²)."""
    return math.sqrt(4 * math.fsum(abs(k) * abs(c) ** 2
                                   for k, c in f.coeffs.items()))
