import math

import numpy as np
import pytest

from fredk2 import InputError, NumericalError
from fredk2.fourier_loops import (
    FourierLoop,
    circle_integral,
    fit_grid_values,
    from_samples,
    log_split,
    loop_from_json,
    loop_log_from_json,
    loop_log_to_json,
    loop_to_json,
    pairing_integral,
    winding_number,
    z_loop,
    zero_loop,
)


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

    def test_too_few_samples(self):
        with pytest.raises(InputError, match="insufficient resolution"):
            from_samples([1.0, 1.0, 1.0], band=4)

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


class TestGridPasses:
    """Each grid operation evaluates, transforms and fits its grid once."""

    def test_exp_transforms_once(self, monkeypatch):
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda v: calls.append(len(v)) or fft(v))
        FourierLoop({-6: 0.2, 1: 0.3j, 6: 0.1}).exp()
        assert calls == [4096]

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
            fit = fit_grid_values(vals)
            assert list(fit.coeffs.items()) == list(kept.items())
            assert fit.tail == math.fsum(dropped)

    def test_fit_nan_grid_rejected(self):
        with pytest.raises(NumericalError):
            fit_grid_values(np.full(4096, np.nan))

    def test_exp_of_large_constant(self):
        # the alias test scales with the values: e^10 used to fail it
        got = FourierLoop({0: 10.0, 1: 0.3}).exp()
        want = FourierLoop({1: 0.3}).exp().scalar_mul(math.exp(10.0))
        assert got.sub(want).l1() <= 1e-13 * want.l1()

    @pytest.mark.filterwarnings("error")
    def test_exp_overflow_rejected(self):
        with pytest.raises(NumericalError, match="exponential overflows"):
            FourierLoop({0: 800.0}).exp()


class TestIntegrals:
    def test_circle_integral(self):
        assert circle_integral(FourierLoop({0: 3 + 1j}), cross_check=True) == 3 + 1j

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

    def test_loop_log_roundtrip(self):
        ll = log_split(z_loop(2).mul(FourierLoop({1: 0.1}).exp()))
        again = loop_log_from_json(loop_log_to_json(ll))
        assert again.winding == 2
        assert coeffs_close(again.log_part, ll.log_part.coeffs, tol=0)

    def test_loop_log_unknown_field(self):
        with pytest.raises(InputError, match="unknown loop-log fields"):
            loop_log_from_json({"winding": 0, "log_coeffs": [], "w": 1})
