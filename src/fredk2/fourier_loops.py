"""Smooth loops on the circle stored as finite Fourier series.

A loop is a smooth map f : S¹ → ℂ represented by finitely many Fourier
coefficients, f(θ) = Σ_k c_k e^{ikθ}.  Nonvanishing loops factor as

    f(z) = zⁿ · e^{a(z)},   n = winding number,

and ``log_split`` produces that factorization.  Pointwise algebra (mul,
inv, exp) is carried out on coefficient level where possible and through
a fine evaluation grid otherwise, with discarded ℓ¹ coefficient mass
recorded on the result as ``tail``.

Products are summed with ``math.fsum`` per output coefficient, so
multiplication is exactly commutative at float level: mul(f, g) and
mul(g, f) produce bit-identical coefficient maps.  Downstream code relies
on this to get exactly-zero symbols for commutators.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

import numpy as np

from ._errors import InputError, InvariantViolation, NumericalError

GRID = 4096          # base evaluation grid; two dyadic refinements allowed
COEFF_CUTOFF = 1e-16  # exp/inv truncation threshold
VANISH_TOL = 1e-12    # |f| below this counts as a zero of the loop


def max_band() -> int:
    """Band-growth cap for exp/inv, overridable via FREDK2_MAX_BAND."""
    return int(os.environ.get("FREDK2_MAX_BAND", "512"))


def _fsum_complex(values) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals),
                   math.fsum(v.imag for v in vals))


class FourierLoop:
    """Finitely supported Fourier series Σ_k c_k e^{ikθ}."""

    __slots__ = ("coeffs", "tail")

    def __init__(self, coeffs=None, tail: float = 0.0):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    clean[int(k)] = c
        self.coeffs = clean
        self.tail = float(tail)

    # -- basic queries -------------------------------------------------

    @property
    def band(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def l1(self) -> float:
        return math.fsum(abs(c) for c in self.coeffs.values())

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def __repr__(self):
        items = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self.coeffs.items()))
        return f"FourierLoop({{{items}}})"

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- evaluation ----------------------------------------------------

    def eval(self, theta):
        """Evaluate at angle(s) theta."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for k in sorted(self.coeffs):
            out += self.coeffs[k] * np.exp(1j * k * theta)
        if out.shape == ():
            return complex(out)
        return out

    def eval_grid(self, n: int = GRID) -> np.ndarray:
        """Values at θ_j = 2πj/n, exact via spectrum folding."""
        spec = np.zeros(n, dtype=complex)
        for k in sorted(self.coeffs):
            spec[k % n] += self.coeffs[k]
        return np.fft.ifft(spec) * n

    # -- exact coefficient algebra --------------------------------------

    def add(self, other: "FourierLoop") -> "FourierLoop":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0j) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return FourierLoop(out, self.tail + other.tail)

    def sub(self, other: "FourierLoop") -> "FourierLoop":
        return self.add(other.neg())

    def neg(self) -> "FourierLoop":
        return FourierLoop({k: -c for k, c in self.coeffs.items()}, self.tail)

    def scalar_mul(self, s: complex) -> "FourierLoop":
        s = complex(s)
        return FourierLoop({k: s * c for k, c in self.coeffs.items()},
                           abs(s) * self.tail)

    def mul(self, other: "FourierLoop") -> "FourierLoop":
        terms = defaultdict(list)
        for k, a in self.coeffs.items():
            for l, b in other.coeffs.items():
                terms[k + l].append(a * b)
        out = {}
        for k, vals in terms.items():
            # fsum is correctly rounded, hence independent of term order;
            # this makes mul exactly commutative.
            c = _fsum_complex(vals)
            if c != 0:
                out[k] = c
        tail = (self.tail * (other.l1() + other.tail)
                + self.l1() * other.tail)
        return FourierLoop(out, tail)

    def shift(self, n: int) -> "FourierLoop":
        """Multiply by zⁿ (index shift)."""
        return FourierLoop({k + n: c for k, c in self.coeffs.items()}, self.tail)

    def reflect(self) -> "FourierLoop":
        """f̃(z) = f(1/z), i.e. k ↦ −k."""
        return FourierLoop({-k: c for k, c in self.coeffs.items()}, self.tail)

    def derivative(self) -> "FourierLoop":
        """d/dθ, i.e. c_k ↦ ik·c_k."""
        return FourierLoop({k: 1j * k * c for k, c in self.coeffs.items() if k},
                           self.tail)

    # -- grid-based transcendental ops ----------------------------------

    def _grid_op(self, fn) -> "FourierLoop":
        """Apply a pointwise function on an adaptively refined grid."""
        for n in _grids(self.band):
            with np.errstate(over="ignore", invalid="ignore"):
                vals = fn(self.eval_grid(n))
            if not np.isfinite(vals).all():  # only exp can overflow
                raise NumericalError("exponential overflows")
            spec, mags = _spectrum(vals)
            # alias diagnostic: mass at the top eighth of frequencies
            scale = np.abs(vals).max()
            if mags[3 * n // 8: 5 * n // 8].max() < 1e-13 * max(1.0, scale):
                return _fit_spectrum(spec, mags, scale)
        raise NumericalError("grid too coarse")

    def exp(self) -> "FourierLoop":
        if not self.coeffs:
            return FourierLoop({0: 1.0 + 0j})
        out = self._grid_op(np.exp)
        out.tail += self.tail * (out.l1() + out.tail)
        return out

    def inv(self) -> "FourierLoop":
        if winding_number(self) != 0:
            raise NumericalError("no single-valued inverse symbol of winding zero")

        def recip(vals):
            if np.abs(vals).min() < VANISH_TOL:
                raise NumericalError("loop not invertible")
            return 1.0 / vals

        out = self._grid_op(recip)
        out.tail += self.tail * (out.l1() + out.tail) ** 2
        return out


def fit_grid_values(values: np.ndarray) -> FourierLoop:
    """Fit a band-limited loop to equispaced grid values, truncating
    coefficients below the cutoff and enforcing the band cap.  The
    discarded ℓ¹ mass is recorded as the result's tail.

    The cutoff scales with max|values|: the DFT of sampled data carries
    roundoff of order eps·max|values| at every frequency, and keeping
    that junk would inflate the band to the whole spectrum.
    """
    return _fit_spectrum(*_spectrum(values), np.abs(values).max())


def _grids(band: int):
    """Grid sizes for a loop of this band: base size, two refinements."""
    n = 1 << max(GRID.bit_length() - 1, (8 * (band + 1)).bit_length())
    return (n << i for i in range(3))


def _spectrum(values: np.ndarray):
    """DFT / n and its magnitudes (``np.hypot`` rounds as abs(complex))."""
    spec = np.fft.fft(values) / len(values)
    return spec, np.hypot(spec.real, spec.imag)


def _fit_spectrum(spec: np.ndarray, mags: np.ndarray, scale: float) -> FourierLoop:
    """``fit_grid_values`` from a spectrum, with the cutoff 8·eps·scale."""
    n = len(spec)
    ks = np.arange(-(n // 2), n // 2)
    cutoff = max(COEFF_CUTOFF, 8 * np.finfo(float).eps * scale)
    kept = ~(mags[ks] < cutoff)  # a NaN is kept and fails the band cap
    if np.abs(ks[kept]).max(initial=0) > max_band():
        raise NumericalError("band overflow")
    return FourierLoop(dict(zip(ks[kept].tolist(), spec[ks[kept]].tolist())),
                       math.fsum(mags[ks[~kept]]))


def zero_loop() -> FourierLoop:
    return FourierLoop({})


def z_loop(n: int = 1) -> FourierLoop:
    """The loop zⁿ."""
    return FourierLoop({n: 1.0 + 0j})


def from_samples(samples, band: int) -> FourierLoop:
    """Discrete Fourier analysis of equispaced samples, truncated to the
    requested band."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if n < 2 * band + 1:
        raise InputError("insufficient resolution")
    spec, mags = _spectrum(samples)
    return FourierLoop({k: spec[k] for k in range(-band, band + 1)
                        if mags[k] >= COEFF_CUTOFF})


def _phase_steps(values: np.ndarray) -> np.ndarray:
    """Principal-value phase increments around the closed loop."""
    if np.abs(values).min() < VANISH_TOL:
        raise NumericalError("loop not invertible")
    ratios = np.roll(values, -1) / values
    return np.angle(ratios)


def _winding_grid(loop: FourierLoop):
    """Values on the first grid with phase steps below π/2, and winding."""
    for n in _grids(loop.band):
        vals = loop.eval_grid(n)
        steps = _phase_steps(vals)
        if np.abs(steps).max() < math.pi / 2:
            total = math.fsum(steps) / (2 * math.pi)
            if abs(total - round(total)) > 1e-6:
                raise NumericalError("grid too coarse")
            return vals, round(total)
    raise NumericalError("grid too coarse")


def winding_number(loop: FourierLoop) -> int:
    """Total phase change / 2π, by unwrapping on a refined grid."""
    return _winding_grid(loop)[1]


def log_split(loop: FourierLoop) -> "LoopLog":
    """Factor a nonvanishing loop as zⁿ·e^{a(z)}.

    The branch is fixed by Im a(0) ∈ (−π, π].
    """
    vals, n_wind = _winding_grid(loop)
    n = len(vals)
    theta = 2 * math.pi * np.arange(n) / n
    g = vals * np.exp(-1j * n_wind * theta)
    # continuous log: fix phase at θ = 0, accumulate principal steps
    steps = _phase_steps(g)
    phase = np.angle(g[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    a_vals = np.log(np.abs(g)) + 1j * phase
    # log|g| and arg g carry absolute roundoff of about eps whatever their
    # size, so the cutoff's scale is floored at 1: for g = zⁿ the values are
    # roundoff alone and would otherwise fill the whole spectrum.
    a = _fit_spectrum(*_spectrum(a_vals), max(1.0, np.abs(a_vals).max()))
    result = LoopLog(n_wind, a)
    # relative to the loop's size, like the alias test of _grid_op
    err = np.abs(result.reconstruct().eval_grid(n) - vals).max()
    if err > 1e-10 * max(1.0, np.abs(vals).max()):
        raise NumericalError("grid too coarse")
    return result


class LoopLog:
    """A nonvanishing loop in factored form zⁿ·e^{a(z)}."""

    __slots__ = ("winding", "log_part")

    def __init__(self, winding: int, log_part: FourierLoop):
        self.winding = int(winding)
        self.log_part = log_part

    def reconstruct(self) -> FourierLoop:
        return self.log_part.exp().shift(self.winding)

    def __repr__(self):
        return f"LoopLog(winding={self.winding}, log_part={self.log_part!r})"


def circle_integral(loop: FourierLoop, cross_check: bool = False) -> complex:
    """(1/2π)∫₀^{2π} f(θ) dθ = c₀."""
    value = loop[0]
    if cross_check:
        quad = complex(np.mean(loop.eval_grid(2048)))
        if abs(quad - value) > 1e-12 * max(1.0, loop.l1()):
            raise InvariantViolation("quadrature disagrees with coefficient read-off")
    return value


def pairing_integral(a: FourierLoop, b: FourierLoop) -> complex:
    """(1/2πi)∫₀^{2π} a(θ) b′(θ) dθ = Σ_k k·a_{−k}·b_k.

    fsum-canonical, so pairing(a, b) == −pairing(b, a) exactly.
    """
    return _fsum_complex(k * (a.coeffs[-k] * c)
                         for k, c in b.coeffs.items() if -k in a.coeffs)


# -- JSON formats -----------------------------------------------------


def loop_to_json(loop: FourierLoop) -> dict:
    return {"coeffs": [[k, c.real, c.imag] for k, c in sorted(loop.coeffs.items())]}


def _parse_coeff_list(raw, what: str) -> dict:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of [k, re, im] triples")
    out = {}
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or any(isinstance(v, bool) for v in entry)
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], (int, float))
                or not isinstance(entry[2], (int, float))):
            raise InputError(f"bad {what} entry: {entry!r}")
        out[entry[0]] = complex(entry[1], entry[2])
    return out


def loop_from_json(data: dict) -> FourierLoop:
    if not isinstance(data, dict):
        raise InputError("loop JSON must be an object")
    unknown = set(data) - {"coeffs"}
    if unknown:
        raise InputError(f"unknown loop fields: {sorted(unknown)}")
    if "coeffs" not in data:
        raise InputError("loop JSON missing 'coeffs'")
    return FourierLoop(_parse_coeff_list(data["coeffs"], "coeffs"))


def loop_log_to_json(ll: LoopLog) -> dict:
    return {"winding": ll.winding, "log_coeffs": loop_to_json(ll.log_part)["coeffs"]}


def loop_log_from_json(data: dict) -> LoopLog:
    if not isinstance(data, dict):
        raise InputError("loop-log JSON must be an object")
    unknown = set(data) - {"winding", "log_coeffs"}
    if unknown:
        raise InputError(f"unknown loop-log fields: {sorted(unknown)}")
    if "winding" not in data or "log_coeffs" not in data:
        raise InputError("loop-log JSON needs 'winding' and 'log_coeffs'")
    if not isinstance(data["winding"], int) or isinstance(data["winding"], bool):
        raise InputError("'winding' must be an integer")
    return LoopLog(data["winding"],
                   FourierLoop(_parse_coeff_list(data["log_coeffs"], "log_coeffs")))
