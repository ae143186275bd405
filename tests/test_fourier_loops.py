import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fredk2 import InputError, NumericalError, fourier_loops
from fredk2.fourier_loops import (
    FourierLoop,
    LoopLog,
    circle_integral,
    coeff_run,
    fit_grid_values,
    from_samples,
    log_split,
    loop_from_json,
    loop_to_json,
    pairing_integral,
    winding_number,
    z_loop,
    zero_loop,
)
from fredk2.toeplitz_calculus import split_exponentials


def coeffs_close(loop, expected, tol=1e-12):
    keys = set(loop.coeffs) | set(expected)
    return all(abs(loop[k] - expected.get(k, 0)) <= tol for k in keys)


def random_loop(rng, band=8, scale=0.3):
    return FourierLoop({k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                        for k in range(-band, band + 1)})


class TestFromSamples:
    def test_constant(self):
        theta = 2 * np.pi * np.arange(16) / 16
        loop = from_samples(np.ones_like(theta, dtype=complex), band=4)
        assert coeffs_close(loop, {0: 1.0})

    def test_pure_frequency(self):
        theta = 2 * np.pi * np.arange(32) / 32
        loop = from_samples(np.exp(1j * theta), band=4)
        assert coeffs_close(loop, {1: 1.0})

    def test_two_term_dft(self):
        # direct DFT oracle at 64 samples
        theta = 2 * np.pi * np.arange(64) / 64
        samples = 0.3 * np.exp(1j * theta) + 0.1 * np.exp(-2j * theta)
        loop = from_samples(samples, band=4)
        assert coeffs_close(loop, {1: 0.3, -2: 0.1})

    def test_dropped_frequency_counts_in_tail(self):
        # e^{10iθ} lies past band 4: its 0.5 is not kept, so it is tail
        theta = 2 * np.pi * np.arange(64) / 64
        loop = from_samples(1 + 0.5 * np.exp(10j * theta), band=4)
        assert coeffs_close(loop, {0: 1.0})
        assert loop.tail >= 0.5

    def test_kept_spectrum_leaves_a_roundoff_tail(self):
        theta = 2 * np.pi * np.arange(64) / 64
        samples = 0.3 * np.exp(1j * theta) + 0.1 * np.exp(-2j * theta)
        assert from_samples(samples, band=4).tail <= 1e-14

    def test_too_few_samples(self):
        with pytest.raises(InputError, match="insufficient resolution"):
            from_samples([1.0, 1.0, 1.0], band=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("n", [16, 64, 4096])
    def test_non_finite_samples_rejected(self, n, bad):
        samples = np.ones(n, dtype=complex)
        samples[n // 3] = bad
        for values in (samples, np.full(n, bad)):
            with pytest.raises(InputError, match="non-finite samples"):
                from_samples(values, 3)

    @pytest.mark.parametrize("band", [-1, 1.5, True], ids=["negative", "fraction", "bool"])
    def test_band_must_be_a_non_negative_integer(self, band):
        with pytest.raises(InputError, match="non-negative integer"):
            from_samples(np.ones(16, dtype=complex), band)

    def test_numpy_integer_band_accepted(self):
        assert coeffs_close(from_samples(np.ones(16, dtype=complex), np.int64(4)), {0: 1.0})

    def test_roundtrip_eval(self):
        rng = np.random.default_rng(11)
        loop = random_loop(rng, band=5)
        theta = 2 * np.pi * np.arange(64) / 64
        again = from_samples(loop.eval(theta), band=5)
        assert coeffs_close(again, loop.coeffs, tol=1e-14)


class TestWinding:
    def test_constant(self):
        assert winding_number(FourierLoop({0: 1.0})) == 0

    def test_z(self):
        assert winding_number(z_loop()) == 1

    def test_z2_exp(self):
        loop = z_loop(2).mul(FourierLoop({1: 0.3}).exp())
        assert winding_number(loop) == 2

    def test_vanishing(self):
        # 1 - z hits zero at θ = 0
        with pytest.raises(NumericalError, match="loop not invertible"):
            winding_number(FourierLoop({0: 1.0, 1: -1.0}))

    def test_zero_loop(self):
        with pytest.raises(NumericalError, match="loop not invertible"):
            winding_number(zero_loop())

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, m = rng.integers(-3, 4, size=2)
            f = z_loop(int(n)).mul(random_loop(rng, band=4, scale=0.2).exp())
            g = z_loop(int(m)).mul(random_loop(rng, band=4, scale=0.2).exp())
            assert winding_number(f.mul(g)) == winding_number(f) + winding_number(g)


class TestLogSplit:
    def test_already_exponential(self):
        ll = log_split(FourierLoop({1: 0.2}).exp())
        assert ll.winding == 0
        assert coeffs_close(ll.log_part, {1: 0.2})

    def test_z(self):
        ll = log_split(z_loop())
        assert ll.winding == 1
        assert coeffs_close(ll.log_part, {})

    def test_negative_winding(self):
        a = FourierLoop({1: 0.1, -2: 0.05})
        ll = log_split(a.exp().shift(-1))
        assert ll.winding == -1
        assert coeffs_close(ll.log_part, {1: 0.1, -2: 0.05})

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(-3, 4))
            loop = z_loop(n).mul(random_loop(rng, band=5, scale=0.3).exp())
            ll = log_split(loop)
            assert ll.winding == n
            recon = ll.reconstruct()
            theta = 2 * np.pi * np.arange(512) / 512
            assert np.abs(recon.eval(theta) - loop.eval(theta)).max() < 1e-10

    @pytest.mark.parametrize("k", [2, 5, 15, -3])
    def test_pure_power(self, k):
        # the log part is roundoff alone and must not fill the spectrum
        ll = log_split(z_loop(k))
        assert ll.winding == k
        assert ll.log_part.band <= 1
        assert ll.log_part.l1() + ll.log_part.tail < 1e-12

    def test_monomial_log_is_constant(self):
        # c·zᵏ has band |k|, so its log is taken on a few points, where the
        # running phase sum leaves no sawtooth above the cutoff
        rng = np.random.default_rng(41)
        for _ in range(50):
            c = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 3)
            k = int(rng.integers(-5, 6))
            ll = log_split(FourierLoop({k: c}))
            assert ll.winding == k
            assert list(ll.log_part.coeffs) in ([], [0])
            assert abs(ll.log_part[0] - np.log(c)) <= 8 * np.finfo(float).eps * max(1.0, abs(np.log(c)))

    def test_branch_at_zero(self):
        # a0 with large imaginary part comes back shifted into (-π, π]
        a = FourierLoop({0: 4.0j})
        ll = log_split(a.exp())
        assert -math.pi < ll.log_part[0].imag <= math.pi
        assert abs(ll.log_part[0].imag - (4.0 - 2 * math.pi)) < 1e-10

    @pytest.mark.parametrize("c", [12.0, 20.0, 30.0])
    def test_large_loop(self, c):
        # the reconstruction check is relative to the loop's size
        a = FourierLoop({0: c, 1: 0.3, -2: 0.1j})
        ll = log_split(a.exp())
        assert ll.winding == 0
        assert ll.log_part.sub(a).l1() <= 1e-12 * a.l1()

    @pytest.mark.parametrize("c", [0.5, 0.9])
    def test_slow_decay_reconstructs_off_grid(self, c):
        # log(1 + cz) decays like cᵏ/k while the loop has band 1, so the
        # grid must follow the log; 4099 points share only θ = 0 with it
        loop = FourierLoop({0: 1.0, 1: c})
        recon = log_split(loop).reconstruct()
        assert recon.sub(loop).l1() <= 1e-13
        theta = 2 * np.pi * np.arange(4099) / 4099
        assert np.abs(recon.eval(theta) - loop.eval(theta)).max() <= 1e-13

    @pytest.mark.parametrize("c", [0.95, 0.99])
    def test_slow_decay_band_overflow(self, c):
        # the log and the inverse need more than 512 coefficients
        loop = FourierLoop({0: 1.0, 1: c})
        with pytest.raises(NumericalError, match="band overflow"):
            log_split(loop)
        with pytest.raises(NumericalError, match="band overflow"):
            loop.inv()

    def test_one_grid_pass(self, monkeypatch):
        # the check reads zⁿ·e^{a} on the accepted grid, with no exponential
        # of its own, and each grid's phase steps are taken once
        loop = z_loop(-2).mul(FourierLoop({0: 1.0, 1: 0.5, -3: 0.2j}))
        calls = {"steps": 0, "passes": 0}
        phase_steps, eval_grid = fourier_loops._phase_steps, FourierLoop.eval_grid

        def count_steps(vals):
            calls["steps"] += 1
            return phase_steps(vals)

        def count_passes(self, n):
            calls["passes"] += self is loop
            return eval_grid(self, n)

        def no_exp(self):
            raise AssertionError("log_split called FourierLoop.exp")

        monkeypatch.setattr(fourier_loops, "_phase_steps", count_steps)
        monkeypatch.setattr(FourierLoop, "eval_grid", count_passes)
        monkeypatch.setattr(FourierLoop, "exp", no_exp)
        assert log_split(loop).winding == -2
        assert calls["steps"] == calls["passes"] >= 2

    def test_reconstruction_check_can_fail(self, monkeypatch):
        # a log off by 1e-8 in one coefficient is accepted by the grid
        # ladder and must then fail the check on that grid
        loop = FourierLoop({1: 0.2, -1: 0.1}).exp().shift(1)
        fit, fits = fourier_loops._fit_spectrum, []

        def off_fit(*args):
            fits.append(fit(*args).add(FourierLoop({1: 1e-8})))
            return fits[-1]

        monkeypatch.setattr(fourier_loops, "_fit_spectrum", off_fit)
        with pytest.raises(NumericalError, match="grid too coarse"):
            log_split(loop)
        assert len(fits) == 1

    @pytest.mark.parametrize("band", [1, 4, 12])
    @pytest.mark.parametrize("n", range(-5, 6))
    def test_phase_from_the_loops_steps(self, n, band):
        # the log's phase sums the loop's own steps less 2πn/N; it matches
        # the phase summed from the steps of g = z⁻ⁿ·loop
        rng = np.random.default_rng(100 * band + n + 5)
        loop = z_loop(n).mul(random_loop(rng, band=band, scale=0.3 / band).exp())
        vals, winding, _ = fourier_loops._refine(loop)
        assert winding == n
        theta = 2 * np.pi * np.arange(len(vals)) / len(vals)
        g = vals * np.exp(-1j * n * theta)
        g_steps = np.angle(np.roll(g, -1) / g)
        g_log = np.log(np.abs(g)) + 1j * (
            np.angle(g[0]) + np.concatenate([[0.0], np.cumsum(g_steps[:-1])]))
        log = fourier_loops._log_values(vals, n, fourier_loops._phase_steps(vals))
        assert np.abs(log - g_log).max() <= 1e-13


def _polynomial_loop(rng):
    """zˢ·c·Π(z − r_j) with 1–4 roots at distance 10^U[−3, −0.2] from the
    circle, each inside or outside, half the time clustered within 0.05 rad
    of one angle; with its winding, s plus the number of roots inside."""
    m = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        angles = rng.uniform(0, 2 * np.pi) + rng.uniform(-0.05, 0.05, m)
    else:
        angles = rng.uniform(0, 2 * np.pi, m)
    dist = 10 ** rng.uniform(-3, -0.2, m)
    inside = rng.random(m) < 0.5
    roots = np.where(inside, 1 - dist, 1 + dist) * np.exp(1j * angles)
    shift = int(rng.integers(-3, 4))
    coeffs = complex(*rng.standard_normal(2)) * np.poly(roots)[::-1]
    return (FourierLoop({shift + k: complex(c) for k, c in enumerate(coeffs)}),
            shift + int(inside.sum()))


class TestNeverAWrongWinding:
    def test_roots_near_the_circle(self):
        # clustered roots can turn the phase by 2π between two grid points;
        # such a grid reads a winding one turn short, and its log must then
        # fail the spectrum or the reconstruction check, never be returned
        values = 0
        for seed in range(300):
            loop, winding = _polynomial_loop(np.random.default_rng(seed))
            try:
                got = log_split(loop).winding
            except NumericalError as exc:
                assert str(exc) in ("band overflow", "grid too coarse", "loop not invertible")
                continue
            assert got == winding, seed
            values += 1
        assert values >= 25


class TestPointwiseOps:
    def test_mul_z_zinv(self):
        assert coeffs_close(z_loop(1).mul(z_loop(-1)), {0: 1.0}, tol=0)

    def test_exp_zero(self):
        assert coeffs_close(zero_loop().exp(), {0: 1.0}, tol=0)

    def test_inv_geometric(self):
        # 1/(2 + 0.5z) = (1/2)·Σ (-z/4)^j
        loop = FourierLoop({0: 2.0, 1: 0.5})
        expected = {}
        j = 0
        while 0.5 * 0.25 ** j >= 1e-16:
            expected[j] = 0.5 * (-0.25) ** j
            j += 1
        assert coeffs_close(loop.inv(), expected, tol=1e-13)

    def test_inv_nonzero_winding(self):
        with pytest.raises(NumericalError, match="no single-valued inverse"):
            z_loop().inv()

    def test_inv_vanishing(self):
        with pytest.raises(NumericalError, match="loop not invertible"):
            FourierLoop({0: 1.0, 1: -1.0}).inv()

    def test_band_overflow(self, monkeypatch):
        monkeypatch.setenv("FREDK2_MAX_BAND", "64")
        with pytest.raises(NumericalError, match="band overflow"):
            FourierLoop({0: 1.0, 1: 0.8}).inv()

    def test_mul_commutes_exactly(self):
        rng = np.random.default_rng(5)
        f, g = random_loop(rng), random_loop(rng)
        assert f.mul(g).coeffs == g.mul(f).coeffs
        assert f.mul(g).sub(g.mul(f)).is_zero()

    def test_inv_residual(self):
        rng = np.random.default_rng(9)
        f = FourierLoop({0: 2.0}).add(random_loop(rng, band=4, scale=0.2))
        prod = f.mul(f.inv())
        assert abs(prod[0] - 1) < 1e-13
        assert prod.sub(FourierLoop({0: 1.0})).l1() < 1e-12

    def test_exp_matches_pointwise(self):
        rng = np.random.default_rng(13)
        f = random_loop(rng, band=6, scale=0.3)
        theta = 2 * np.pi * np.arange(256) / 256
        assert np.abs(f.exp().eval(theta) - np.exp(f.eval(theta))).max() < 1e-12

    def test_exp_tail_recorded(self):
        f = FourierLoop({1: 0.5})
        assert f.exp().tail >= 0


def _mixed_loop(seed, band, dense):
    """A loop of this band with a dense or a sparse support and
    coefficients whose real and imaginary magnitudes span 2^±30."""
    rng = np.random.default_rng(seed)
    keys = np.arange(-band, band + 1)
    if not dense:
        keys = rng.choice(keys, size=min(len(keys), rng.integers(1, 9)), replace=False)
    parts = rng.standard_normal((len(keys), 2)) * 2.0 ** rng.integers(-30, 31, (len(keys), 2))
    return FourierLoop({int(k): complex(re, im) for k, (re, im) in zip(keys, parts)})


loop_seeds = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 150), st.booleans())
small_loop_seeds = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 6), st.booleans())
mul_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestMulProperties:
    """mul is one extended-precision convolution in a fixed operand order."""

    @staticmethod
    def _commutes(f, g):
        assert f.mul(g).coeffs == g.mul(f).coeffs
        assert f.mul(g).sub(g.mul(f)).is_zero()

    @mul_settings
    @given(a=loop_seeds, b=loop_seeds)
    def test_commutes_bit_exactly(self, a, b):
        f, g = _mixed_loop(*a), _mixed_loop(*b)
        self._commutes(f, g)
        # a second loop of the same band and support kind: dense pairs have
        # equal extents, so only the coefficients order them
        self._commutes(f, _mixed_loop(b[0], *a[1:]))
        self._commutes(f, FourierLoop(f.coeffs))

    @mul_settings
    @given(a=loop_seeds, data=st.data())
    def test_commutes_when_only_one_coefficient_differs(self, a, data):
        # same lowest and highest index and number of coefficients, so only
        # the coefficients themselves can order the pair
        f = _mixed_loop(*a)
        k = data.draw(st.sampled_from(sorted(f.coeffs)))
        c = f[k]
        for changed in (complex(np.nextafter(c.real, np.inf), c.imag),
                        complex(c.real, -c.imag) if c.imag else -c):
            g = FourierLoop({**f.coeffs, k: changed})
            assert g.coeffs != f.coeffs
            self._commutes(f, g)

    @mul_settings
    @given(a=loop_seeds, b=loop_seeds,
           tails=st.tuples(*[st.sampled_from([0.0, 1e-300, 3e-17, 0.25, 7.0])] * 2))
    def test_tail_formula(self, a, b, tails):
        f = FourierLoop(_mixed_loop(*a).coeffs, tails[0])
        g = FourierLoop(_mixed_loop(*b).coeffs, tails[1])
        assert f.mul(g).tail == f.tail * (g.l1() + g.tail) + f.l1() * g.tail

    @mul_settings
    @given(a=small_loop_seeds, b=small_loop_seeds)
    def test_matches_exact_rational_product(self, a, b):
        # each coefficient within 4·eps·Σ|f_k||g_{n−k}| of the exact sum;
        # the second term allows for a host whose long double is float64
        f, g = _mixed_loop(*a), _mixed_loop(*b)
        got = f.mul(g)
        exact, scale, terms = {}, {}, {}
        for k, x in f.coeffs.items():
            for l, y in g.coeffs.items():
                xr, xi, yr, yi = map(Fraction, (x.real, x.imag, y.real, y.imag))
                re, im = exact.get(k + l, (0, 0))
                exact[k + l] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
                scale[k + l] = scale.get(k + l, 0.0) + abs(x) * abs(y)
                terms[k + l] = terms.get(k + l, 0) + 1
        assert set(got.coeffs) <= set(exact)
        eps, ld_eps = np.finfo(float).eps, float(np.finfo(np.longdouble).eps)
        for n, (re, im) in exact.items():
            c = got[n]
            err = math.hypot(Fraction(c.real) - re, Fraction(c.imag) - im)
            assert err <= (4 * eps + 4 * terms[n] * ld_eps) * scale[n]

    def test_dense_runs_match_per_coefficient_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            f = _mixed_loop(int(rng.integers(2**32)), int(rng.integers(0, 40)),
                            bool(rng.integers(2)))
            for lo, n in ((-45, 91), (-3, 7), (1, 20), (50, 5)):
                want = np.zeros(n, dtype=complex)
                for k, c in f.coeffs.items():
                    if lo <= k < lo + n:
                        want[k - lo] = c
                assert coeff_run(f, lo, n).tobytes() == want.tobytes()
            # eval_grid folds in ascending k, also where the band exceeds n/2
            for n in (8, 33, 4096):
                spec = np.zeros(n, dtype=complex)
                for k in sorted(f.coeffs):
                    spec[k % n] += f.coeffs[k]
                assert f.eval_grid(n).tobytes() == (np.fft.ifft(spec) * n).tobytes()


def _bits(coeffs):
    """A coefficient map as exact (k, re, im) bit patterns, signed zeros included."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in sorted(coeffs.items())]


def _ref_sum(f, g):
    """f + g one key at a time, as a {k: c} map: exact zeros dropped."""
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0j) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _ref_map(coeffs, fn):
    return {k2: c2 for k, c in coeffs.items() for k2, c2 in [fn(k, c)] if c2 != 0}


def _ref_product(f, g):
    """The product's map from per-coefficient dense runs, convolved in the
    canonical operand order (lowest index, length, bytes)."""
    if not (f and g):
        return {}

    def dense(d):
        lo = min(d)
        run = np.zeros(max(d) - lo + 1, dtype=complex)
        for k, c in d.items():
            run[k - lo] = c
        return lo, run

    (lo_f, a), (lo_g, b) = sorted((dense(f), dense(g)),
                                  key=lambda d: (d[0], len(d[1]), d[1].tobytes()))
    prod = np.convolve(a.astype(np.clongdouble), b.astype(np.clongdouble)).astype(complex)
    return {lo_f + lo_g + i: complex(c) for i, c in enumerate(prod) if c != 0}


run_coeffs = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
    st.builds(complex, st.floats(-0.5, 0.5), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    st.builds(lambda m, e: complex(m, -m) * 2.0 ** e, st.floats(0.5, 1.0), st.integers(-1074, -1000)),
)
run_loops = st.builds(FourierLoop, st.dictionaries(st.integers(-12, 12), run_coeffs, max_size=8),
                      st.sampled_from([0.0, 1e-300, 3e-17, 0.25]))
run_settings = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestCanonicalRun:
    """Every loop holds a run with nonzero ends (or the empty run at lo = 0)
    and +0 at the zeros inside, whose map is the one the operation gives
    when carried out one coefficient at a time."""

    @staticmethod
    def _canonical(f, want=None, tail=None):
        assert f.run.dtype == complex and not f.run.flags.writeable
        if f.run.size:
            assert f.run[0] != 0 and f.run[-1] != 0
        else:
            assert f.lo == 0
        assert not np.signbit(f.run[f.run == 0].view(float)).any()
        again = FourierLoop(f.coeffs, f.tail)
        assert (again.lo, again.run.size, again.coeffs) == (f.lo, f.run.size, f.coeffs)
        assert again.run.tobytes() == f.run.tobytes() and again.tail == f.tail
        if want is not None:
            assert _bits(f.coeffs) == _bits(want)
        if tail is not None:
            assert f.tail == tail

    @run_settings
    # g's gap at 0 must leave the −0 imaginary part of f's c₀ as it is
    @example(f=FourierLoop({0: complex(1, -0.0)}), g=FourierLoop({-1: 1.0, 1: 1.0}), n=0, s=0)
    @given(f=run_loops, g=run_loops, n=st.integers(-20, 20),
           s=st.sampled_from([0, -1.5, 2j, complex(0.3, -0.7), 1e-320]))
    def test_algebra_matches_per_coefficient_reference(self, f, g, n, s):
        fc, gc = f.coeffs, g.coeffs
        self._canonical(f)
        self._canonical(f.add(g), _ref_sum(fc, gc), f.tail + g.tail)
        neg_g = _ref_map(gc, lambda k, c: (k, -c))
        self._canonical(g.neg(), neg_g, g.tail)
        self._canonical(f.sub(g), _ref_sum(fc, neg_g), f.tail + g.tail)
        s = complex(s)
        self._canonical(f.scalar_mul(s), _ref_map(fc, lambda k, c: (k, s * c)),
                        abs(s) * f.tail)
        self._canonical(f.mul(g), _ref_product(fc, gc),
                        f.tail * (g.l1() + g.tail) + f.l1() * g.tail)
        self._canonical(f.shift(n), _ref_map(fc, lambda k, c: (k + n, c)), f.tail)
        self._canonical(f.reflect(), _ref_map(fc, lambda k, c: (-k, c)), f.tail)
        self._canonical(f.derivative(),
                        _ref_map(fc, lambda k, c: (k, 1j * k * c if k else 0)), f.tail)

    @pytest.mark.parametrize("coeffs", [{0.5: 1.0, 2.7: 3.0}, {True: 2.0}, {np.bool_(False): 1.0},
                                        {"1": 1.0}], ids=["float", "bool", "numpy-bool", "str"])
    def test_non_integer_indices_refused(self, coeffs):
        with pytest.raises(InputError, match="indices must be integers"):
            FourierLoop(coeffs)

    def test_numpy_integer_indices_accepted(self):
        f = FourierLoop({np.int64(-2): 1.0, np.int32(3): 2.0})
        assert f.coeffs == {-2: 1.0, 3: 2.0} and f.lo == -2

    def test_derivative_drops_c0_even_nan(self):
        f = FourierLoop({0: complex("nan"), 1: 1.0})
        self._canonical(f.derivative(), {1: 1j}, 0.0)

    @run_settings
    @given(f=run_loops)
    def test_exp_and_split_exponentials(self, f):
        self._canonical(f.exp())
        halves = (FourierLoop({k: c for k, c in f.coeffs.items() if k < 0}, f.tail),
                  FourierLoop({k: c for k, c in f.coeffs.items() if k >= 0}, f.tail))
        got = split_exponentials(f)
        want = (halves[0].exp(), halves[1].exp(), halves[1].neg().exp(), halves[0].neg().exp())
        for x, y in zip(got, want):
            self._canonical(x, y.coeffs, y.tail)


class TestGridPasses:
    """Each grid operation evaluates, transforms and fits its grid once."""

    def test_exp_transforms_once(self, monkeypatch):
        # the grid is chosen before any evaluation, by Cauchy's estimate: 256
        # for band 6, the grid the ladder from 64 points used to accept
        calls, fits = [], []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda v: calls.append(v.shape) or fft(v))
        fit = fourier_loops._fit_spectrum
        monkeypatch.setattr(fourier_loops, "_fit_spectrum",
                            lambda spec, *a: fits.append(len(spec)) or fit(spec, *a))
        FourierLoop({-6: 0.2, 1: 0.3j, 6: 0.1}).exp()
        assert calls == [(1, 256)]
        assert fits == [256]

    def test_log_split_evaluates_input_once(self, monkeypatch):
        loop = z_loop(2).mul(FourierLoop({-3: 0.1, 1: 0.2}).exp())
        calls = []
        eval_grid = FourierLoop.eval_grid

        def counting(self, *args):
            if self is loop:
                calls.append(args)
            return eval_grid(self, *args)

        monkeypatch.setattr(FourierLoop, "eval_grid", counting)
        assert log_split(loop).winding == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("loop", [
        FourierLoop({1: 1.0, 0: 1e-4}),                 # band 1
        FourierLoop({-6: 1.0, -1: 1e-6}),               # band 6
        # a loop as the ingest benchmark builds it: z⁻³·e^{a}, band 53
        LoopLog(-3, FourierLoop({-5: 0.2, 2: 0.15j, 6: 0.1 - 0.1j})).reconstruct(),
    ], ids=["band1", "band6", "band53"])
    def test_log_split_starts_at_twice_nyquist(self, monkeypatch, loop):
        # a log whose content lies within the loop's band is fitted on the
        # first grid, the smallest power of two above 4·(band + 1)
        calls = []
        eval_grid = FourierLoop.eval_grid

        def counting(self, n):
            if self is loop:
                calls.append(n)
            return eval_grid(self, n)

        monkeypatch.setattr(FourierLoop, "eval_grid", counting)
        ll = log_split(loop)
        assert calls == [1 << (4 * (loop.band + 1)).bit_length()]
        assert ll.reconstruct().sub(loop).l1() <= 1e-12 * loop.l1()

    def test_log_split_climbs_past_an_unresolved_phase(self, monkeypatch):
        # z − 0.93 turns its phase by 1.59 > π/2 across θ = 0 on the first,
        # 16-point grid (1.32 on 32 points): that grid is refused on its phase
        # steps, and the log is taken only on grids whose steps stay below π/2
        loop = FourierLoop({0: -0.93, 1: 1.0})
        grids, logged = [], []
        eval_grid, log_values = FourierLoop.eval_grid, fourier_loops._log_values

        def counting(self, n):
            if self is loop:
                grids.append(n)
            return eval_grid(self, n)

        def logging(vals, *args):
            logged.append(len(vals))
            return log_values(vals, *args)

        monkeypatch.setattr(FourierLoop, "eval_grid", counting)
        monkeypatch.setattr(fourier_loops, "_log_values", logging)
        ll = log_split(loop)
        assert grids == [16, 32, 64, 128, 256, 512, 1024]
        assert logged == grids[1:]
        assert ll.winding == 1 and ll.log_part.band == 372
        assert ll.reconstruct().sub(loop).l1() <= 1e-12

    def test_grid_ladders_share_their_top(self):
        # log_split starts a rung lower than exp and inv, but every ladder
        # ends on the same grid, so no loop that resolves is refused
        for band in (0, 1, 6, 53, 510, 511, 512):
            lower, upper = list(fourier_loops._grids(band, 4)), list(fourier_loops._grids(band))
            assert lower == [upper[0] // 2] + upper
        assert list(fourier_loops._grids(511))[-1] == 32768

    def test_inv_evaluates_each_grid_once(self, monkeypatch):
        # the winding is read from the grid that is inverted; band 3
        # starts on 64 points and the inverse is resolved on 256
        loop = FourierLoop({0: 2.0, 1: 0.5, -3: 0.3j})
        calls = []
        eval_grid = FourierLoop.eval_grid

        def counting(self, n):
            if self is loop:
                calls.append(n)
            return eval_grid(self, n)

        monkeypatch.setattr(FourierLoop, "eval_grid", counting)
        loop.inv()
        assert calls == [64, 128, 256]

    def test_log_split_keys_ascending(self):
        ll = log_split(z_loop(-1).mul(FourierLoop({5: 0.2, -4: 0.1j, 0: 0.3}).exp()))
        assert list(ll.log_part.coeffs) == [-4, 0, 5]

    def test_fit_matches_per_frequency_reference(self):
        # one frequency at a time with Python's abs(), as a reference; the
        # 16-point grids drop one coefficient, so the tail is its magnitude
        rng = np.random.default_rng(23)
        grids = [np.exp(random_loop(rng, band=5).eval(2 * np.pi * np.arange(n) / n))
                 for n in (64, 65, 4096)]
        for _ in range(20):
            spec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            spec[5] = 0.0
            grids.append(np.fft.ifft(spec) * 16)
        for vals in grids:
            n = len(vals)
            spec = np.fft.fft(vals) / n
            cutoff = max(1e-16, 8 * np.finfo(float).eps * np.abs(vals).max())
            kept = {k: complex(spec[k]) for k in range(-(n // 2), n // 2)
                    if not abs(complex(spec[k])) < cutoff}
            dropped = [abs(complex(spec[k])) for k in range(-(n // 2), n // 2)
                       if abs(complex(spec[k])) < cutoff]
            dropped += [abs(complex(spec[n // 2]))] * (n % 2)  # not fitted
            fit = fit_grid_values(vals)
            assert list(fit.coeffs.items()) == list(kept.items())
            assert fit.tail == math.fsum(dropped)

    def test_odd_grid_counts_its_unfitted_frequency_in_the_tail(self):
        # n = 65 fits -32 ... 31; the 0.5 at frequency 32 is lost to the tail
        theta = 2 * np.pi * np.arange(65) / 65
        fit = fit_grid_values(1 + 0.5 * np.exp(32j * theta))
        assert set(fit.coeffs) == {0}
        assert fit.tail >= 0.5

    def test_phase_kernels_match_reference(self):
        # neighbour ratios by np.roll and the winding by an exactly rounded sum
        rng = np.random.default_rng(43)
        for n, band, k in ((16, 1, 1), (256, 6, -3), (1024, 20, 7)):
            vals = z_loop(k).mul(random_loop(rng, band=band, scale=0.3 / band).exp()).eval_grid(n)
            steps = fourier_loops._phase_steps(vals)
            assert steps.tobytes() == np.angle(np.roll(vals, -1) / vals).tobytes()
            assert fourier_loops._winding(steps) == round(math.fsum(steps.tolist()) / (2 * math.pi)) == k

    def test_fit_nan_grid_rejected(self):
        with pytest.raises(NumericalError):
            fit_grid_values(np.full(4096, np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    @pytest.mark.parametrize("n", [16, 64, 4096])
    def test_fit_non_finite_grid_rejected(self, n, bad):
        # below n = 2·max_band() a NaN spectrum fits inside the band cap,
        # so the values themselves are checked
        vals = np.ones(n, dtype=complex)
        vals[n // 3] = bad
        for values in (vals, np.full(n, bad)):
            with pytest.raises(NumericalError, match="non-finite grid values"):
                fit_grid_values(values)

    def test_exp_of_large_constant(self):
        # the alias test scales with the values: e^10 used to fail it
        got = FourierLoop({0: 10.0, 1: 0.3}).exp()
        want = FourierLoop({1: 0.3}).exp().scalar_mul(math.exp(10.0))
        assert got.sub(want).l1() <= 1e-13 * want.l1()

    @pytest.mark.filterwarnings("error")
    def test_exp_overflow_rejected(self):
        with pytest.raises(NumericalError, match="exponential overflows"):
            FourierLoop({0: 800.0}).exp()

    def test_exp_past_the_top_grid_refused_before_evaluating(self, monkeypatch):
        # e^{z^500} has 1/j! at k = 500j: Cauchy's estimate needs n/2 above
        # 8,192, and the top grid for band 500 is 16,384 points
        calls = []
        monkeypatch.setattr(np.fft, "ifft", lambda *a: calls.append(a))
        with pytest.raises(NumericalError, match="grid too coarse"):
            FourierLoop({500: 1.0}).exp()
        assert calls == []


EXP_TAIL_CASES = {
    "one-sided": FourierLoop({1: 0.3, 2: 0.2j, 4: 0.1}),
    "two-sided": FourierLoop({-3: 0.3, -1: 0.2j, 2: 0.25, 5: 0.1}),
    # band 300: its Cauchy radii lie below the singularity at r = 1/0.9
    "log(1+0.9z)": log_split(FourierLoop({0: 1.0, 1: 0.9})).log_part,
    "log(1+0.5/z+0.4iz^2)": log_split(FourierLoop({-1: 0.5, 0: 1.0, 2: 0.4j})).log_part,
    **{f"s={s}": FourierLoop({1: s, -1: s}) for s in range(2, 7)},
}


class TestExpTailBound:
    """The tail of e^f bounds its ℓ¹ distance to the fit of e^f on a grid
    16 times finer, up to roundoff, which no tail bounds: 16·eps·√n·max|e^f|
    on n points (at most 5.5·eps·√n·max|e^f| on these cases and 400 random
    loops of ℓ¹ up to 6).  On its own grid the Cauchy term is below roundoff;
    with a coarser alias target the grid aliases and cuts off mass far above
    roundoff, and only the Cauchy term covers it."""

    @pytest.mark.parametrize("target", [None, 1e-4, 1.0])
    @pytest.mark.parametrize("name", list(EXP_TAIL_CASES))
    def test_tail_bounds_the_error(self, monkeypatch, name, target):
        if target is not None:
            monkeypatch.setattr(fourier_loops, "_ALIAS_TARGET", target)
        for f in (EXP_TAIL_CASES[name], EXP_TAIL_CASES[name].neg()):
            n = fourier_loops._cauchy_grid(f)[0]
            got = f.exp()
            values = np.exp(f.eval_grid(16 * n))
            ref = fit_grid_values(values)
            err = np.abs(coeff_run(got, -8 * n, 16 * n) - coeff_run(ref, -8 * n, 16 * n)).sum()
            roundoff = 16 * np.finfo(float).eps * math.sqrt(n) * np.abs(values).max()
            assert err <= got.tail + roundoff


REF_GRID = 16384
fine_grid_settings = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _ref_fit(values, floor=0.0):
    """Coefficients k = −n/2 … n/2 − 1 of values on the fixed reference
    grid, their tolerance 16·eps·max|values| and the band a fit at the
    cutoff max(1e-16, 8·eps·max|values|) would keep."""
    n = len(values)
    spec = (np.fft.fft(values) / n)[np.arange(-(n // 2), n // 2)]
    scale = max(floor, np.abs(values).max())
    kept = np.flatnonzero(np.abs(spec) >= max(1e-16, 8 * np.finfo(float).eps * scale))
    band = np.abs(kept - n // 2).max(initial=0)
    return spec, 16 * np.finfo(float).eps * scale, band


def _matches_reference(op, values, floor=0.0, slack=1):
    spec, tol, band = _ref_fit(values, floor)
    if band > fourier_loops.max_band():
        with pytest.raises(NumericalError):
            op()
        return
    got = coeff_run(op(), -(REF_GRID // 2), REF_GRID)
    assert np.abs(got - spec).max() <= slack * tol


class TestAgainstFineGrid:
    """exp, inv and log_split agree with the same operation on a fixed
    16,384-point grid, for loops of band 0–12 and logs of ℓ¹ up to 8."""

    @fine_grid_settings
    @given(seed=st.integers(0, 2**32 - 1), band=st.integers(0, 12),
           size=st.floats(0.0, 8.0), winding=st.integers(-3, 3))
    def test_matches_fixed_grid(self, seed, band, size, winding):
        rng = np.random.default_rng(seed)
        f = random_loop(rng, band=band, scale=1.0)
        f = f.scalar_mul(1 / f.l1())
        a = f.scalar_mul(size)
        _matches_reference(a.exp, np.exp(a.eval_grid(REF_GRID)))
        # ℓ¹(log(1 + r·f)) ≤ −log(1 − r) = size, and 1 + r·f has winding 0
        v = FourierLoop({0: 1.0}).add(f.scalar_mul(-math.expm1(-size)))
        v_vals = v.eval_grid(REF_GRID)
        _matches_reference(v.inv, 1 / v_vals)
        u = z_loop(winding).mul(v)
        log_vals = np.log(np.abs(v_vals)) + 1j * np.unwrap(np.angle(v_vals))

        def split():
            ll = log_split(u)
            assert ll.winding == winding
            return ll.log_part

        # the log's phase is a running sum of principal steps, which drifts
        # by up to about eps/4 a step: 4096 steps leave a sawtooth of
        # about 500·eps even on a constant loop
        _matches_reference(split, log_vals, floor=1.0, slack=64)


class TestIntegrals:
    def test_circle_integral(self):
        assert circle_integral(FourierLoop({0: 3 + 1j})) == 3 + 1j

    def test_pairing_basic(self):
        assert pairing_integral(FourierLoop({1: 1.0}), FourierLoop({-1: 1.0})) == -1

    def test_pairing_self_symmetric(self):
        a = FourierLoop({1: 0.3, -1: 0.3})
        assert pairing_integral(a, a) == 0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b = random_loop(rng), random_loop(rng)
            assert pairing_integral(a, b) == -pairing_integral(b, a)

    def test_quadrature_oracle(self):
        # (1/2πi)∫ a b′ dθ on a 2048-point periodic trapezoid grid
        rng = np.random.default_rng(19)
        for _ in range(5):
            a, b = random_loop(rng), random_loop(rng)
            theta = 2 * np.pi * np.arange(2048) / 2048
            quad = np.mean(a.eval(theta) * b.derivative().eval(theta)) / 1j
            assert abs(quad - pairing_integral(a, b)) < 1e-12


class TestLoopLogGroup:
    def test_inverse_gives_the_identity(self):
        rng = np.random.default_rng(31)
        for n in (-2, 0, 3):
            x = LoopLog(n, random_loop(rng, band=4))
            for one in (x.mul(x.inv()), x.inv().mul(x)):
                assert one == LoopLog.identity()
                assert hash(one) == hash(LoopLog.identity())
        assert LoopLog(1, zero_loop()) != LoopLog.identity()
        assert LoopLog(0, FourierLoop({2: 1e-300})) != LoopLog.identity()

    def test_commutative(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            x, y = (LoopLog(int(rng.integers(-3, 4)), random_loop(rng, band=4))
                    for _ in range(2))
            assert x.mul(y) == y.mul(x)
            assert hash(x.mul(y)) == hash(y.mul(x))

    def test_product_reconstructs_the_loop_product(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            x, y = (LoopLog(int(rng.integers(-3, 4)), random_loop(rng, band=3, scale=0.2))
                    for _ in range(2))
            xy = x.mul(y)
            assert xy.winding == x.winding + y.winding
            want = x.reconstruct().mul(y.reconstruct())
            assert xy.reconstruct().sub(want).l1() < 1e-12 * want.l1()

    @pytest.mark.parametrize("winding", [1.5, 2.0, True, "2"],
                             ids=["fraction", "float", "bool", "str"])
    def test_non_integer_winding_refused(self, winding):
        with pytest.raises(InputError, match="winding must be an integer"):
            LoopLog(winding, zero_loop())

    def test_numpy_integer_winding_accepted(self):
        x = LoopLog(np.int64(-2), zero_loop())
        assert x == LoopLog(-2, zero_loop()) and type(x.winding) is int

    def test_other_types_are_left_to_python(self):
        x = LoopLog(1, zero_loop())
        assert x.__eq__((1, ())) is NotImplemented
        assert x != (1, ()) and x != 1


class TestJson:
    def test_roundtrip(self):
        loop = FourierLoop({1: 0.25 + 0.5j, -3: 1.0})
        assert loop_from_json(loop_to_json(loop)).coeffs == loop.coeffs

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="unknown loop fields"):
            loop_from_json({"coeffs": [[0, 1.0, 0.0]], "extra": 1})

    def test_bad_entry(self):
        with pytest.raises(InputError):
            loop_from_json({"coeffs": [[0.5, 1.0, 0.0]]})

    def test_repeated_index_rejected(self):
        with pytest.raises(InputError, match="repeated coeffs index 1"):
            loop_from_json({"coeffs": [[1, 0.5, 0], [0, 1.0, 0], [1, 0.25, 0]]})

    def test_key_beyond_band_cap_rejected(self):
        # a loop is stored densely from its lowest to its highest index, so
        # keys 2·10⁹ apart are refused before anything is allocated
        with pytest.raises(InputError, match="FREDK2_MAX_BAND"):
            loop_from_json({"coeffs": [[-10**9, 1.0, 0.0], [10**9, 1.0, 0.0]]})
        assert loop_from_json({"coeffs": [[512, 1.0, 0.0]]}).band == 512

    @pytest.mark.parametrize("entry", ["[1, NaN, 0]", "[1, Infinity, 0]", "[1, -Infinity, 0]",
                                       "[1, 0, NaN]", "[1, 1e999, 0]", "[1, 1" + "0" * 400 + ", 0]"],
                             ids=["nan", "inf", "-inf", "nan-imag", "float-overflow", "int-overflow"])
    def test_non_finite_coefficient_rejected(self, entry):
        raw = json.loads(f"[[0, 1.0, 0], {entry}]")
        with pytest.raises(InputError, match="non-finite coefficient"):
            loop_from_json({"coeffs": raw})
