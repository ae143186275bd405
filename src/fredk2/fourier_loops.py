"""Smooth loops on the circle stored as finite Fourier series.

A loop is a smooth map f : S¹ → ℂ, f(θ) = Σ_k c_k e^{ikθ}, stored as one
coefficient run: the complex128 array c_lo, …, c_hi from its lowest to its
highest nonzero index, +0 at the vanishing indices inside, and a ``tail``
bounding the ℓ¹ mass that fits discarded.  Every kernel reads the run, and
no run is written once a loop holds it, so loops share runs.  The {k: c}
map of the constructor and of ``coeffs`` is a derived view.  Nonvanishing
loops factor as

    f(z) = zⁿ · e^{a(z)},   n = winding number,

and ``log_split`` produces that factorization.

Sums, shifts and products work on the runs; ``exp``, ``inv``, the winding
and ``log_split`` work on grids.  ``exp`` takes one grid, chosen before any
evaluation from Cauchy's estimate of the coefficients of e^{f−f₀}
(``_cauchy_grid``), and adds twice that estimate of the mass past the grid's
Nyquist (aliased plus cut off) to its tail, which then bounds the fit's
error up to roundoff; e^{h} and e^{−h} share the grid, one evaluation and
one transform (``_exps``, behind ``exp`` and ``split_exponentials``).
``inv``, the winding and ``log_split`` climb grids sized from the band
(``_grids``), through one refinement loop, ``_refine``, which evaluates the
loop once per grid.  The ladder starts above 8·(band + 1) points, or above
4·(band + 1) for ``log_split``, whose log is resolved there when it lies
within the loop's band, and ends at the same top for both, which also caps
``exp``'s grid.  A grid is accepted once the top eighth of the spectrum of
the values to be fitted lies below the fit's own cutoff,
max(COEFF_CUTOFF, 8·eps·scale), so no kept coefficient can be aliased; a
winding also needs every principal phase step below π/2.  ``log_split`` is
one such pass: its log's phase sums those steps, it tests the log's
spectrum, not the loop's (1 + c·z has band 1, its log decays like cᵏ/k),
and it checks zⁿ·e^{a} on the accepted grid.

A product is one convolution of the two runs, accumulated in
``np.clongdouble`` (80-bit on x86-64) and rounded once to complex128.
``mul`` orders its operands by (lowest index, length, bytes), so mul(f, g)
and mul(g, f) are bit-identical, and commutators get exactly-zero symbols.
Where ``np.longdouble`` is float64, products still commute exactly but
lose the extra bits.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ._errors import InputError, NumericalError, WindingError

GRID_TOP = 16384      # largest grid below band 511; wider loops refine to 4× the
                      # power of two above 8·(band + 1)
COEFF_CUTOFF = 1e-16  # fit truncation floor
VANISH_TOL = 1e-12    # |f| below this counts as a zero of the loop


def max_band() -> int:
    """Band-growth cap for exp/inv, overridable via FREDK2_MAX_BAND."""
    return int(os.environ.get("FREDK2_MAX_BAND", "512"))


def _is_index(k) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _is_tail(t) -> bool:
    """A Python or numpy float or index (not a bool) >= 0; NaN fails."""
    return (isinstance(t, (float, np.floating)) or _is_index(t)) and t >= 0


class FourierLoop:
    """Finitely supported Fourier series Σ_k c_k e^{ikθ}, held as ``lo``,
    ``run`` = (c_lo, …, c_hi) with nonzero ends (lo = 0 and an empty run for
    the zero loop) and ``tail``.  A run is never written after construction,
    so ``shift``, ``reflect`` and ``split_exponentials`` share it."""

    __slots__ = ("lo", "run", "tail")

    def __init__(self, coeffs=None, tail: float = 0.0):
        coeffs = coeffs or {}
        if not all(map(_is_index, coeffs)):
            raise InputError("loop indices must be integers")
        if not _is_tail(tail):
            raise InputError("tail must be non-negative")
        keys = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
        lo = int(min(coeffs, default=0))
        run = np.zeros(int(max(coeffs, default=-1)) - lo + 1, dtype=complex)
        run[keys - lo] = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
        loop = FourierLoop._of(lo, run, tail)
        self.lo, self.run, self.tail = loop.lo, loop.run, loop.tail

    @classmethod
    def _of(cls, lo: int, run: np.ndarray, tail: float = 0.0) -> "FourierLoop":
        """The loop c_lo, c_{lo+1}, … of ``run``, cut to its nonzero ends.  A
        writable run is fresh, and its zeros inside are made +0; a read-only
        one is another loop's, and is shared as it is."""
        loop = cls.__new__(cls)
        nz = run.nonzero()[0]
        run = run[nz[0]:nz[-1] + 1] if nz.size else run[:0]
        if nz.size < run.size and run.flags.writeable:
            run[run == 0] = 0
        run.flags.writeable = False
        loop.lo, loop.run, loop.tail = lo + int(nz[0]) if nz.size else 0, run, float(tail)
        return loop

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as a {k: c_k} map, ascending in k."""
        nz = self.run.nonzero()[0]
        return dict(zip((nz + self.lo).tolist(), self.run[nz].tolist()))

    @property
    def band(self) -> int:
        return max(-self.lo, self.lo + self.run.size - 1, 0)

    def l1(self) -> float:
        return math.fsum(np.hypot(self.run.real, self.run.imag).tolist())

    def __getitem__(self, k: int) -> complex:
        return complex(coeff_run(self, k, 1)[0])

    def __repr__(self):
        items = ", ".join(f"{k}: {c:.6g}" for k, c in self.coeffs.items())
        return f"FourierLoop({{{items}}})"

    def is_zero(self) -> bool:
        return not self.run.size

    # -- evaluation ----------------------------------------------------

    def eval(self, theta):
        """Evaluate at angle(s) theta."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for k, c in self.coeffs.items():
            out += c * np.exp(1j * k * theta)
        return complex(out) if out.shape == () else out

    def eval_grid(self, n: int) -> np.ndarray:
        """Values at θ_j = 2πj/n, exact via spectrum folding."""
        spec = np.zeros(n, dtype=complex)
        # folds in ascending k, one addition at a time
        np.add.at(spec, (self.lo + np.arange(self.run.size)) % n, self.run)
        return np.fft.ifft(spec) * n

    # -- exact coefficient algebra --------------------------------------

    def add(self, other: "FourierLoop") -> "FourierLoop":
        lo = min(self.lo, other.lo)
        out = np.zeros(max(self.lo + self.run.size, other.lo + other.run.size) - lo,
                       dtype=complex)
        out[self.lo - lo:self.lo - lo + self.run.size] = self.run
        # other's nonzero coefficients only, as c + 0 turns a −0 part of c to +0
        nz = other.run.nonzero()[0]
        out[other.lo - lo + nz] += other.run[nz]
        return FourierLoop._of(lo, out, self.tail + other.tail)

    def sub(self, other: "FourierLoop") -> "FourierLoop":
        return self.add(other.neg())

    def neg(self) -> "FourierLoop":
        return FourierLoop._of(self.lo, -self.run, self.tail)

    def scalar_mul(self, s: complex) -> "FourierLoop":
        s, r = complex(s), self.run
        # Python's complex product, each step rounded (numpy's may fuse them)
        out = (s.real * r.real - s.imag * r.imag).astype(complex)
        out.imag = s.real * r.imag + s.imag * r.real
        return FourierLoop._of(self.lo, out, abs(s) * self.tail)

    def mul(self, other: "FourierLoop") -> "FourierLoop":
        tail = ((self.tail * (other.l1() + other.tail) if self.tail else 0.0)
                + (self.l1() * other.tail if other.tail else 0.0))
        if not (self.run.size and other.run.size):
            # built by _of: a product of unchecked tails may be NaN (∞·0)
            return FourierLoop._of(0, np.zeros(0, dtype=complex), tail)
        # a fixed operand order makes mul exactly commutative
        (lo_f, f), (lo_g, g) = sorted(((self.lo, self.run), (other.lo, other.run)),
                                      key=lambda d: (d[0], len(d[1]), d[1].tobytes()))
        prod = np.convolve(f.astype(np.clongdouble),
                           g.astype(np.clongdouble)).astype(complex)
        return FourierLoop._of(lo_f + lo_g, prod, tail)

    def shift(self, n: int) -> "FourierLoop":
        """Multiply by zⁿ (index shift)."""
        return FourierLoop._of(self.lo + n, self.run, self.tail)

    def reflect(self) -> "FourierLoop":
        """f̃(z) = f(1/z), i.e. k ↦ −k."""
        return FourierLoop._of(1 - self.lo - self.run.size, self.run[::-1], self.tail)

    def derivative(self) -> "FourierLoop":
        """d/dθ, i.e. c_k ↦ ik·c_k."""
        ks = np.arange(self.lo, self.lo + self.run.size)
        out = 1j * ks * self.run  # i·k has real part ±0: one rounding, as in Python
        out[ks == 0] = 0  # c₀ is dropped, even a NaN
        return FourierLoop._of(self.lo, out, self.tail)

    # -- grid-based transcendental ops ----------------------------------

    def exp(self) -> "FourierLoop":
        return _exps(self)[0]

    def inv(self) -> "FourierLoop":
        out = _refine(self, _recip_values)[2]
        if self.tail:
            out.tail += self.tail * (out.l1() + out.tail) ** 2
        return out


def _exp_values(vals):
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(vals)
    if not np.isfinite(out).all():
        raise NumericalError("exponential overflows")
    return out


# Cauchy's estimate is weighed on the radii r = e^t, t = 0.01·2^{j/2}: r from
# 1.01 (a log singular just past the circle, as log(1 + 0.9z)) to 168
_LOG_RADII = 0.01 * 2.0 ** (np.arange(19) / 2)
_LOG_GEOMETRIC = np.log(2 / -np.expm1(-_LOG_RADII))  # log(2r/(r − 1))
_ALIAS_TARGET = 8 * np.finfo(float).eps  # mass left past n/2, relative to e^{Re f₀}


def _cauchy_grid(f: FourierLoop):
    """(n, log of a bound on the ℓ¹ mass of e^{f−f₀} at |k| ≥ n/2): the
    grid of e^f, chosen before any evaluation.

    With q = f − f₀ and any r > 1, |(e^q)_k| ≤ M(r)·r^{−|k|} for
    M(r) = exp(Σ_{k≠0} |q_k|·r^{|k|}) (Cauchy's estimate), so the mass at
    |k| ≥ K is at most 2·M(r)·r^{−K}·r/(r − 1).  n is the smallest power of
    two whose n/2 puts that below _ALIAS_TARGET on one of the radii; as
    max|e^f| ≥ e^{Re f₀}, it is then below the fit's cutoff, and e^{−f} gets
    the same n.  A grid past the ladders' top is refused."""
    ks = np.abs(np.arange(f.lo, f.lo + f.run.size))
    mags = np.hypot(f.run.real, f.run.imag)
    live = (mags > 0) & (ks > 0)  # a NaN is left to the evaluation
    with np.errstate(over="ignore"):
        log_mass = np.exp(np.multiply.outer(_LOG_RADII, ks[live])) @ mags[live] + _LOG_GEOMETRIC
    half = ((log_mass - math.log(_ALIAS_TARGET)) / _LOG_RADII).min()
    if not half < _grid_top(f.band) // 2:
        raise NumericalError("grid too coarse")
    n = 1 << (2 * int(half) + 1).bit_length()  # the smallest with n/2 > half
    return n, float((log_mass - n // 2 * _LOG_RADII).min())


def _exps(f: FourierLoop, inverse: bool = False) -> tuple[FourierLoop, ...]:
    """(e^f,), or (e^f, e^{−f}) with ``inverse``: the one exp path.  The rows
    share ``_cauchy_grid(f)``, one ifft, one np.exp and one fft; −f is
    folded from its own run, so each row is bit for bit what it is alone.
    The tail is the fit's dropped mass plus twice the Cauchy mass at n/2
    (aliased into the fit and cut off by it), then f's tail carried through."""
    loops = (f, f.neg()) if inverse else (f,)
    if not f.run.size:
        return (_ONE,) * len(loops)
    n, log_mass = _cauchy_grid(f)
    spec = np.zeros((len(loops), n), dtype=complex)
    folds = (f.lo + np.arange(f.run.size)) % n  # −f has f's lo and length
    for row, g in zip(spec, loops):
        np.add.at(row, folds, g.run)  # as eval_grid, one addition at a time
    values = _exp_values(np.fft.ifft(spec) * n)
    re0, out = coeff_run(f, 0, 1)[0].real, []
    for g, sign, scale, *spectrum in zip(loops, (1, -1), np.abs(values).max(axis=1),
                                         *_spectrum(values)):
        e = _fit_spectrum(*spectrum, scale)
        e.tail += 2 * math.exp(log_mass + sign * re0)  # finite: e^{Re g₀} ≤ max|e^g|
        if g.tail:
            e.tail += g.tail * (e.l1() + e.tail)
        out.append(e)
    return tuple(out)


def _recip_values(vals, winding, _steps):
    if winding:
        raise WindingError("no single-valued inverse symbol of winding zero")
    return 1.0 / vals


def coeff_run(loop: FourierLoop, lo: int, n: int) -> np.ndarray:
    """[c_lo, c_{lo+1}, …, c_{lo+n−1}] as a dense complex array."""
    out = np.zeros(n, dtype=complex)
    a, b = max(lo, loop.lo), min(lo + n, loop.lo + loop.run.size)
    if a < b:
        out[a - lo:b - lo] = loop.run[a - loop.lo:b - loop.lo]
    return out


def fit_grid_values(values: np.ndarray) -> FourierLoop:
    """Fit a band-limited loop to equispaced grid values, truncating
    coefficients below the cutoff and enforcing the band cap.  The
    discarded ℓ¹ mass is recorded as the result's tail.

    The cutoff scales with max|values|: the DFT of sampled data carries
    roundoff of order eps·max|values| at every frequency, and keeping
    that junk would inflate the band to the whole spectrum.
    """
    scale = np.abs(values).max()
    if not np.isfinite(scale):  # a NaN or an infinity anywhere
        raise NumericalError("non-finite grid values")
    return _fit_spectrum(*_spectrum(values), scale)


def _grid_top(band: int) -> int:
    """The largest grid for a loop of this band, ``exp``'s too:
    max(GRID_TOP, four times the power of two above 8·(band + 1))."""
    return max(GRID_TOP, 4 << (8 * (band + 1)).bit_length())


def _grids(band: int, start: int = 8):
    """Grid sizes for a loop of this band: the smallest power of two above
    start·(band + 1), doubled up to ``_grid_top(band)``.  ``inv`` starts at
    8·(band + 1), as its output is wider than its input.  ``log_split``
    starts at 4·(band + 1), twice the loop's Nyquist: a log whose content
    lies within the loop's band is resolved there, and at 8·(band + 1) all
    3,072 ladders of the ``symbol-ingest`` benchmark at seed 41 accepted
    their first rung."""
    n = 1 << (start * (band + 1)).bit_length()
    while n <= _grid_top(band):
        yield n
        n <<= 1


def _cutoff(scale: float) -> float:
    """The fit's cutoff for values of size ``scale`` (see ``fit_grid_values``)."""
    return max(COEFF_CUTOFF, 8 * np.finfo(float).eps * scale)


def _refine(loop: FourierLoop, fn=None, floor: float = 0.0, start: int = 8):
    """The one refinement loop of ``inv``, the winding and ``log_split``.

    Evaluates ``loop`` once on each grid of ``_grids(loop.band, start)``.  A
    grid counts only once its phase steps are resolved, and the winding is
    read from them.  ``fn(vals, winding, steps)`` gives the values to fit;
    the grid is accepted when the top eighth of their spectrum is below the
    fit's cutoff at scale max(floor, max|values|).  Returns (loop values,
    winding, fit); without ``fn`` there is nothing to fit and the first
    grid with resolved phase is accepted.  ``start`` sets the first grid
    (see ``_grids``): 4 for ``log_split``, 8 for the rest.
    """
    for n in _grids(loop.band, start):
        vals = loop.eval_grid(n)
        steps = _phase_steps(vals)
        winding = _winding(steps)
        if winding is None:
            continue
        if fn is None:
            return vals, winding, None
        out = fn(vals, winding, steps)
        spec, mags = _spectrum(out)
        scale = max(floor, np.abs(out).max())
        if mags[3 * n // 8: 5 * n // 8].max() < _cutoff(scale):
            return vals, winding, _fit_spectrum(spec, mags, scale)
    raise NumericalError("grid too coarse")


def _spectrum(values: np.ndarray):
    """DFT / n along the last axis and its magnitudes (``np.hypot`` rounds
    as abs(complex))."""
    spec = np.fft.fft(values) / values.shape[-1]
    return spec, np.hypot(spec.real, spec.imag)


def _fit_spectrum(spec: np.ndarray, mags: np.ndarray, scale: float) -> FourierLoop:
    """``fit_grid_values`` from a spectrum, with the cutoff of ``scale``.

    The frequencies fitted are −h … h − 1 (h = n // 2), read in the FFT's
    own order: k ≥ 0 at index k, k < 0 at index n + k.  An odd grid's
    index h, the frequency h, is not kept and counts in the tail."""
    n, h = len(spec), len(spec) // 2
    dropped = mags < _cutoff(scale)
    dropped[h:n - h] = True
    kept = ~dropped
    ks = kept.nonzero()[0]
    ks[ks >= h] -= n
    band = int(np.abs(ks).max(initial=0))
    if band > max_band():
        raise NumericalError("band overflow")
    run = np.zeros(band + min(band, h - 1) + 1, dtype=complex)
    run[ks + band] = spec[ks]
    # fsum is exactly rounded, so the order of the dropped magnitudes does
    # not matter; a memoryview hands it floats without building a list
    return FourierLoop._of(-band, run, math.fsum(memoryview(mags[dropped])))


_ONE = FourierLoop({0: 1.0})  # shared: no operation writes a loop it did not make


def zero_loop() -> FourierLoop:
    return FourierLoop({})


def z_loop(n: int = 1) -> FourierLoop:
    """The loop zⁿ."""
    return FourierLoop({n: 1.0 + 0j})


def from_samples(samples, band: int) -> FourierLoop:
    """Discrete Fourier analysis of equispaced samples, truncated to the
    requested band.  The tail is the ℓ¹ mass of every coefficient not kept:
    those past the band and those below ``COEFF_CUTOFF``."""
    if not (_is_index(band) and band >= 0):
        raise InputError("band must be a non-negative integer")
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if n < 2 * band + 1:
        raise InputError("insufficient resolution")
    if not np.isfinite(samples).all():
        raise InputError("non-finite samples")
    spec, mags = _spectrum(samples)
    ks = np.arange(-band, band + 1)
    kept = np.zeros(n, dtype=bool)
    kept[ks] = mags[ks] >= COEFF_CUTOFF
    return FourierLoop._of(-band, np.where(kept[ks], spec[ks], 0),
                           math.fsum(memoryview(mags[~kept])))


def _phase_steps(values: np.ndarray) -> np.ndarray:
    """Principal-value phase increments around the closed loop."""
    if np.abs(values).min() < VANISH_TOL:
        raise NumericalError("loop not invertible")
    ratios = np.empty_like(values)
    np.divide(values[1:], values[:-1], out=ratios[:-1])
    ratios[-1] = values[0] / values[-1]
    return np.angle(ratios)


def _winding(steps: np.ndarray):
    """Winding from the phase steps, or None while one reaches π/2 (or is
    NaN).  The principal steps of a closed sampled loop sum to 2π·k up to
    roundoff, since the ratios between neighbouring values multiply to 1,
    so numpy's sum rounds to the same k as an exactly rounded one."""
    if not np.abs(steps).max() < math.pi / 2:
        return None
    return round(float(steps.sum()) / (2 * math.pi))


def winding_number(loop: FourierLoop) -> int:
    """Total phase change / 2π, by unwrapping on a refined grid."""
    return _refine(loop)[1]


def _log_values(vals: np.ndarray, winding: int, steps: np.ndarray) -> np.ndarray:
    """Continuous log of z^{−winding}·vals: the phase is fixed at θ = 0
    and accumulates the loop's principal ``steps``, each less 2π·winding/n.
    A loop of band b has |winding| ≤ b (z^b·f is a polynomial of degree
    2b), and ``log_split``'s grids have n > 4·(b + 1) points, so
    |2π·winding/n| < π/2; every accepted principal step is below π/2, so a
    shifted step stays below π and never wraps past ±π."""
    shifted = steps[:-1] - 2 * math.pi * winding / len(vals)
    phase = np.angle(vals[0]) + np.concatenate([[0.0], np.cumsum(shifted)])
    return np.log(np.abs(vals)) + 1j * phase


def log_split(loop: FourierLoop) -> "LoopLog":
    """Factor a nonvanishing loop as zⁿ·e^{a(z)}.

    The branch is fixed by Im a(0) ∈ (−π, π].  One grid pass finds the
    grid that resolves the log's spectrum and checks zⁿ·e^{a} on it.  The
    pass starts on the smallest power of two above 4·(band + 1), twice the
    loop's Nyquist: the trapezoid rule's aliasing error falls geometrically
    in the grid size for an analytic log, so a log whose content lies within
    the loop's band is resolved there, and one that is not (the log of
    1 + c·z, or of a loop whose phase steps reach π/2) climbs the ladder
    to the same top as ``exp`` and ``inv``.
    """
    # the log's modulus and phase carry absolute roundoff of about eps whatever
    # their size, so the cutoff's scale is floored at 1: for the loop zⁿ the
    # log values are roundoff alone and would otherwise fill the whole spectrum.
    vals, n_wind, a = _refine(loop, _log_values, floor=1.0, start=4)
    # zⁿ·e^{a} = e^{a + inθ} on the accepted grid, against a bound relative to
    # the loop's size like the fit's cutoff
    n = len(vals)
    recon = _exp_values(a.eval_grid(n) + 2j * math.pi * n_wind / n * np.arange(n))
    if np.abs(recon - vals).max() > 1e-10 * max(1.0, np.abs(vals).max()):
        raise NumericalError("grid too coarse")
    return LoopLog(n_wind, a)


class LoopLog:
    """A nonvanishing loop in factored form zⁿ·e^{a(z)}, in the group of such
    loops: products add windings and logs, so x·x⁻¹ is the identity exactly,
    and equality and hashing are exact on (n, {k: a_k})."""

    __slots__ = ("winding", "log_part")

    def __init__(self, winding: int, log_part: FourierLoop):
        if not _is_index(winding):
            raise InputError("winding must be an integer")
        self.winding = int(winding)
        self.log_part = log_part

    @classmethod
    def identity(cls) -> "LoopLog":
        return cls(0, zero_loop())

    def mul(self, other: "LoopLog") -> "LoopLog":
        return LoopLog(self.winding + other.winding, self.log_part.add(other.log_part))

    def inv(self) -> "LoopLog":
        return LoopLog(-self.winding, self.log_part.neg())

    def reconstruct(self) -> FourierLoop:
        return self.log_part.exp().shift(self.winding)

    def _key(self):
        return (self.winding, tuple(self.log_part.coeffs.items()))

    def __eq__(self, other):
        if not isinstance(other, LoopLog):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _trapezoid_grid(band: int) -> int:
    """The smallest power of two, at least 16, above 2·band + 2: the periodic
    trapezoid rule on it integrates a loop of this band exactly, up to roundoff."""
    return 1 << max(4, (2 * band + 2).bit_length())


def circle_integral(loop: FourierLoop) -> complex:
    """(1/2π)∫₀^{2π} f(θ) dθ, the trapezoid mean on the loop's ``_trapezoid_grid``."""
    return complex(np.mean(loop.eval_grid(_trapezoid_grid(loop.band))))


def pairing_integral(a: FourierLoop, b: FourierLoop) -> complex:
    """(1/2πi)∫₀^{2π} a(θ) b′(θ) dθ = Σ_k k·a_{−k}·b_k, fsum-canonical, so
    pairing(a, b) == −pairing(b, a) exactly."""
    ac = a.coeffs
    terms = [k * (ac[-k] * c) for k, c in b.coeffs.items() if -k in ac]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


# -- JSON format ------------------------------------------------------


def loop_to_json(loop: FourierLoop) -> dict:
    return {"coeffs": [[k, c.real, c.imag] for k, c in loop.coeffs.items()]}


def loop_from_json(data: dict) -> FourierLoop:
    if not isinstance(data, dict):
        raise InputError("loop JSON must be an object")
    unknown = set(data) - {"coeffs"}
    if unknown:
        raise InputError(f"unknown loop fields: {sorted(unknown)}")
    if "coeffs" not in data:
        raise InputError("loop JSON missing 'coeffs'")
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise InputError("coeffs must be a list of [k, re, im] triples")
    out = {}
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or any(isinstance(v, bool) for v in entry)
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], (int, float))
                or not isinstance(entry[2], (int, float))):
            raise InputError(f"bad coeffs entry: {entry!r}")
        if abs(entry[0]) > max_band():  # a loop is stored densely over its span
            raise InputError("band exceeds FREDK2_MAX_BAND")
        if entry[0] in out:
            raise InputError(f"repeated coeffs index {entry[0]}")
        try:
            out[entry[0]] = c = complex(entry[1], entry[2])
        except OverflowError:  # an integer past the largest float
            c = math.inf
        if not np.isfinite(c):
            raise InputError("non-finite coefficient")
    return FourierLoop(out)
