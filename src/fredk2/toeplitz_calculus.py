"""Toeplitz operators with trace-class bookkeeping.

An element of the extension algebra E = {T_φ + trace class} is stored as

    symbol φ     (a FourierLoop; T_φ has matrix (φ_{j−k})_{j,k≥0})
    corner       (the live r×k corner of the trace-class correction C kept
                  on the M×M window: read-only, with a nonzero in its last
                  row and its last column, and 0×0 when C = 0)
    window M
    tail_bound   (bound on the trace norm of whatever fell off the window)

Bare truncated matrices are never used as operator models: the trace of a
commutator of finite matrices is identically zero, so finite sections
cannot see any of the invariants computed downstream.  All structure
lives in the symbol/correction split.

Products follow the Brown–Halmos identity

    T_φ T_ψ = T_{φψ} − H_φ H_{ψ̃},    ψ̃(z) = ψ(1/z),

with the Hankel matrix H_φ = (φ_{j+k+1})_{j,k≥0}.  For band-limited
symbols H_φ lives in the p×p corner, p the highest index of φ, and H_ψ̃
in the q×q corner, q the most negative index of ψ, negated.  So every
correction lives in a leading corner of its window, and ``ToeplitzOp.mul``
works on corners alone: it forms each term of the product from the
operands' corners and builds the result on the region the terms fill, cut
to the window and trimmed once, never on the whole window.  Symbol
products commute exactly (``FourierLoop.mul`` puts its operands in a fixed
order before one extended-precision convolution), so commutators have
exactly zero symbol.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg

from ._errors import InputError, InvariantViolation, NumericalError, WindingError
from .fourier_loops import FourierLoop, _is_index, _is_tail, coeff_run, pairing_integral, zero_loop

DEFAULT_WINDOW = 256


def toeplitz_matrix(symbol: FourierLoop, rows: int, cols: int | None = None) -> np.ndarray:
    """Dense section (φ_{j−k}), j < rows, k < cols."""
    if cols is None:
        cols = rows
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    # diag[d + cols − 1] = φ_d for every offset d = j − k in the section;
    # entry (j, k) sits j − k steps past diag[cols − 1]
    diag = coeff_run(symbol, 1 - cols, rows + cols - 1)
    step = diag.strides[0]
    return np.ndarray((rows, cols), complex, diag, (cols - 1) * step, (step, -step)).copy()


class HankelWindow:
    """Dense window of the Hankel matrix (φ_{j+k+1})_{j,k≥0}."""

    __slots__ = ("matrix",)

    def __init__(self, symbol: FourierLoop, window: int):
        if window == 0:
            self.matrix = np.zeros((0, 0), dtype=complex)
            return
        # anti[j + l] = φ_{j+l+1} for every anti-diagonal of the window
        anti = coeff_run(symbol, 1, 2 * window - 1)
        step = anti.strides[0]
        self.matrix = np.ndarray((window, window), complex, anti, 0, (step, step)).copy()


def _norms(block: np.ndarray) -> tuple[float, float]:
    """(‖·‖_F, cheap trace-norm bound sqrt(rank)·‖·‖_F) of a block."""
    if block.size == 0:
        return 0.0, 0.0
    r = min(np.count_nonzero(block.any(axis=1)),
            np.count_nonzero(block.any(axis=0)))
    fro = float(np.linalg.norm(block))
    return fro, math.sqrt(r) * fro


def _from_section(sym: FourierLoop, section: np.ndarray, window: int,
                  inner: int, tail: float) -> "ToeplitzOp":
    """Operator with symbol ``sym`` read off a dense section of it: the
    correction is the section minus T_sym, kept on the window.  The tail
    adds twice the trace-norm estimate of what lies outside the window in
    the first ``inner`` rows/columns, the only part of the section that is
    read: the outer strip of a finite-section computation is boundary
    pollution, not operator content, and the factor 2 is a margin for the
    unsampled remainder."""
    inner = min(inner, section.shape[0])
    corr = section[:inner, :inner] - toeplitz_matrix(sym, inner)
    spill = corr.copy()
    spill[:window, :window] = 0
    return ToeplitzOp._of(sym, corr[:window, :window], window,
                          tail + 2.0 * _norms(spill)[1])


def _extent(corr: np.ndarray) -> tuple[int, int]:
    """(r, k) with every nonzero of ``corr`` in its leading r×k corner."""
    nz = corr.view(float) != 0  # real and imaginary parts side by side
    rows = np.flatnonzero(nz.any(axis=1))
    if not rows.size:
        return 0, 0
    cols = np.flatnonzero(nz[:rows[-1] + 1].any(axis=0))
    return int(rows[-1]) + 1, int(cols[-1]) // 2 + 1


def _live(region: np.ndarray) -> np.ndarray:
    """The leading block of ``region`` that holds all its nonzeros, with a
    nonzero in its last row and its last column (0×0 if there is none)."""
    r, k = _extent(region)
    return region[:r, :k]


def _toeplitz_times(symbol: FourierLoop, block: np.ndarray, rows: int) -> np.ndarray:
    """T_φ[:rows, :n] @ block for a block with n rows."""
    return toeplitz_matrix(symbol, rows, block.shape[0]) @ block


class ToeplitzOp:
    """T_φ + C with C supported (up to tail_bound) in an M×M window and
    stored as its live corner.  ``ToeplitzOp(φ, C, M, tail)`` takes C as
    the whole window (None for C = 0) and keeps a trimmed copy of its
    corner; ``correction`` reads the window back, zero-padded, read-only.

    The operators are those of a dense matrix: ``x @ y``, ``x + y``,
    ``x - y``, ``-x`` and ``c * x`` are mul, add, sub, neg and scalar_mul."""

    __slots__ = ("symbol", "corner", "window", "tail_bound")

    def __init__(self, symbol: FourierLoop, correction: np.ndarray | None = None,
                 window: int = DEFAULT_WINDOW, tail_bound: float = 0.0):
        _require_window(window)
        if not _is_tail(tail_bound):
            raise InputError("tail bound must be non-negative")
        corner = np.zeros((0, 0), dtype=complex)
        if correction is not None:
            # C order, so that _extent can scan it as a float array
            region = np.ascontiguousarray(correction, dtype=complex)
            if region.shape != (window, window):
                raise InputError("correction window shape mismatch")
            corner = _live(region).copy()  # the caller keeps its array
        self._keep(symbol, corner, window, tail_bound)

    @classmethod
    def _of(cls, symbol: FourierLoop, region: np.ndarray, window: int,
            tail_bound: float = 0.0) -> "ToeplitzOp":
        """The operator whose correction is ``region``, a C-ordered leading
        block of the window, trimmed but not copied: the region must be
        fresh, or another operator's corner."""
        op = cls.__new__(cls)
        op._keep(symbol, np.ascontiguousarray(_live(region)), window, tail_bound)
        return op

    def _keep(self, symbol, corner, window, tail_bound):
        corner.flags.writeable = False
        self.symbol, self.corner = symbol, corner
        self.window, self.tail_bound = int(window), float(tail_bound)

    @property
    def correction(self) -> np.ndarray:
        """C on the whole M×M window, read-only."""
        out = np.zeros((self.window, self.window), dtype=complex)
        r, k = self.corner.shape
        out[:r, :k] = self.corner
        out.flags.writeable = False
        return out

    # -- structure -------------------------------------------------------

    def dense_section(self, n: int) -> np.ndarray:
        """Dense n×n section of T_φ + C."""
        out = toeplitz_matrix(self.symbol, n)
        c = self.corner[:n, :n]
        out[:c.shape[0], :c.shape[1]] += c
        return out

    def resized(self, window: int) -> "ToeplitzOp":
        _require_window(window)
        if window == self.window:
            return self
        c, tail = self.corner, self.tail_bound
        if max(c.shape) > window:
            spill = c.copy()
            spill[:window, :window] = 0
            tail += _norms(spill)[1]
        return ToeplitzOp._of(self.symbol, c[:window, :window], window, tail)

    def op_norm_est(self) -> float:
        # Frobenius bounds the spectral norm; cheap and an honest over-estimate
        return (self.symbol.l1() + self.symbol.tail
                + float(np.linalg.norm(self.corner)) + self.tail_bound)

    # -- linear ops --------------------------------------------------------

    def add(self, other: "ToeplitzOp") -> "ToeplitzOp":
        w = max(self.window, other.window)
        a, b = self.resized(w).corner, other.resized(w).corner
        corr = np.zeros(np.maximum(a.shape, b.shape), dtype=complex)
        corr[:a.shape[0], :a.shape[1]] = a
        corr[:b.shape[0], :b.shape[1]] += b
        return ToeplitzOp._of(self.symbol.add(other.symbol), corr, w,
                              self.tail_bound + other.tail_bound)

    def sub(self, other: "ToeplitzOp") -> "ToeplitzOp":
        return self.add(other.neg())

    def neg(self) -> "ToeplitzOp":
        return ToeplitzOp._of(self.symbol.neg(), -self.corner, self.window,
                              self.tail_bound)

    def scalar_mul(self, s: complex) -> "ToeplitzOp":
        return ToeplitzOp._of(self.symbol.scalar_mul(s), complex(s) * self.corner,
                              self.window, abs(s) * self.tail_bound)

    # -- multiplication ----------------------------------------------------

    def mul(self, other: "ToeplitzOp") -> "ToeplitzOp":
        """Brown–Halmos product; the correction is formed exactly on the
        region it fills, then cut to the w×w window with the discarded
        mass bounded, and trimmed to its live corner.

        C_x has the r_x×k_x corner and C_y the r_y×k_y one.  With p the
        highest index of φ and q the most negative index of ψ, negated
        (0 when there is none):

        - H_φ·H_ψ̃ fills rows < p and columns < q;
        - T_φ·C_y takes C_y's corner and fills rows < r_y + p;
        - C_x·T_ψ takes C_x's corner and fills columns < k_x + q;
        - C_x·C_y is C_x[:, :min(k_x, r_y)] times the matching rows
          of C_y.

        The operands' norms in the tail bound are read on the same corners."""
        w = max(self.window, other.window)
        phi, psi = self.symbol, other.symbol
        cx, cy = self.corner, other.corner
        (rx, kx), (ry, ky) = cx.shape, cy.shape
        if (not (phi.run.size or phi.tail or rx or self.tail_bound)
                or not (psi.run.size or psi.tail or ry or other.tail_bound)):
            return ToeplitzOp(zero_loop(), None, w, 0.0)  # an exact zero operand
        psi_r = psi.reflect()
        p = max(phi.lo + phi.run.size - 1, 0)
        q = max(-psi.lo, 0)
        hankel = bool(p and q)
        t_cy = bool(ry and phi.run.size)
        cx_t = bool(rx and psi.run.size)
        cx_cy = bool(rx and ry)

        # the region the live terms fill
        rows = max(p if hankel else 0, ry + p if t_cy else 0, rx if cx_t or cx_cy else 0)
        cols = max(q if hankel else 0, ky if t_cy or cx_cy else 0, kx + q if cx_t else 0)
        corr = np.zeros((rows, cols), dtype=complex)
        if hankel:
            ha = HankelWindow(phi, p).matrix
            hbt = HankelWindow(psi_r, q).matrix
            corr[:p, :q] -= ha[:, :q] @ hbt[:p]
        if t_cy:
            corr[:ry + p, :ky] += _toeplitz_times(phi, cy, ry + p)
        if cx_t:
            # C_x·T_ψ = (T_ψ̃·C_xᵀ)ᵀ, as T_ψᵀ = T_ψ̃
            corr[:rx, :kx + q] += _toeplitz_times(psi_r, cx.T, kx + q).T
        if cx_cy:
            m = min(kx, ry)
            corr[:rx, :ky] += cx[:, :m] @ cy[:m]

        kept, discarded = corr[:w, :w], 0.0
        if rows > w or cols > w:
            kept = kept.copy()
            corr[:w, :w] = 0
            discarded = _norms(corr)[1]
        fx, nx = _norms(cx)
        fy, ny = _norms(cy)
        # op_norm_est of each factor, with the Frobenius norm read once,
        # formed only where a nonzero tail bound multiplies it
        x_norm = (phi.l1() + phi.tail + fx + self.tail_bound) if other.tail_bound else 0.0
        y_norm = (psi.l1() + psi.tail + fy + other.tail_bound) if self.tail_bound else 0.0
        tail = (self.tail_bound * y_norm + x_norm * other.tail_bound
                + discarded
                + phi.tail * ny
                + nx * psi.tail)
        return ToeplitzOp._of(phi.mul(psi), kept, w, tail)

    def __matmul__(self, other: "ToeplitzOp") -> "ToeplitzOp":
        return self.mul(other)  # looked up on the call, so a wrapped mul sees x @ y

    __add__, __sub__, __neg__, __rmul__ = add, sub, neg, scalar_mul
    # a numpy scalar times an operator then reaches __rmul__ instead of
    # building an object array
    __array_ufunc__ = None

    def inv(self) -> "ToeplitzOp":
        """Inverse in E (winding-zero nonvanishing symbol)."""
        try:
            psi = self.symbol.inv()  # reads the winding from its own grids
        except WindingError as exc:
            raise WindingError("not invertible in E: index obstruction") from exc
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
        return complex(np.trace(self.corner))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        from .fourier_loops import loop_to_json
        flat = self.correction.reshape(-1)
        return {"symbol": loop_to_json(self.symbol),
                "window": self.window,
                "correction": [[v.real, v.imag] for v in flat],
                "tail_bound": self.tail_bound}


def needed_window(*loops: FourierLoop) -> int:
    """2·B + 2 for B the widest band among the loops: the smallest window
    that holds the band-wide corners of every Brown–Halmos correction
    among their Toeplitz operators (0 for no loops)."""
    return 2 * max((f.band for f in loops), default=-1) + 2


def _require_window(window: int, *loops: FourierLoop) -> None:
    """The one window check: an integer, not a bool, at least needed_window(*loops)."""
    if not _is_index(window):
        raise InputError("window must be an integer")
    if window < needed_window(*loops):
        raise InputError("window must dominate band")


def toeplitz(a: FourierLoop, window: int = DEFAULT_WINDOW) -> ToeplitzOp:
    """T_a with zero correction."""
    _require_window(window, a)
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


def exp_op(x: ToeplitzOp) -> ToeplitzOp:
    return x.exp()


def split_exponentials(a: FourierLoop) -> tuple[FourierLoop, ...]:
    """(e^{a₋}, e^{a₊}, e^{−a₊}, e^{−a₋}) with a₋ the k < 0 and a₊ the
    k ≥ 0 part of the log a.  The log's tail bounds the ℓ¹ mass it lost
    on either side of the split.  The halves share the log's run."""
    cut = min(max(-a.lo, 0), a.run.size)
    minus = FourierLoop._of(a.lo, a.run[:cut], a.tail)
    plus = FourierLoop._of(a.lo + cut, a.run[cut:], a.tail)
    return minus.exp(), plus.exp(), plus.neg().exp(), minus.neg().exp()


def wiener_hopf_pair(a: FourierLoop, window: int = DEFAULT_WINDOW,
                     exps: tuple[FourierLoop, ...] | None = None
                     ) -> tuple[ToeplitzOp, ToeplitzOp]:
    """(T(e^{a₋})·T(e^{a₊}), T(e^{−a₊})·T(e^{−a₋})) with a₋ the k < 0 and
    a₊ the k ≥ 0 part of the log a.

    T(f)T(g) = T(fg) when f is coanalytic or g analytic, so the first is
    T(e^a) and the second its exact inverse: an invertible lift of e^a
    built from symbol exponentials and Brown–Halmos products alone.  The
    factors skip toeplitz()'s band check, since exp symbols can be wider
    than half the window; mul's tail carries what falls past it.
    ``exps`` is split_exponentials(a), passed by a caller that already
    has it (the operator route sizes its windows from their bands)."""
    _require_window(window, a)
    e_minus, e_plus, e_plus_inv, e_minus_inv = exps or split_exponentials(a)

    def t(f: FourierLoop) -> ToeplitzOp:
        return ToeplitzOp(f, None, window, 0.0)

    return t(e_minus).mul(t(e_plus)), t(e_plus_inv).mul(t(e_minus_inv))


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
