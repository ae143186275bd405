import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fredk2 import InputError, InvariantViolation, NumericalError, toeplitz_calculus
from fredk2.fourier_loops import FourierLoop, pairing_integral
from fredk2.invariants import hankel_op
from fredk2.toeplitz_calculus import (
    HankelWindow,
    ToeplitzOp,
    coshift_op,
    commutator,
    commutator_trace_closed,
    exp_op,
    identity_op,
    op_trace,
    schatten2_commutator_F,
    shift_conjugation_trace,
    shift_op,
    split_exponentials,
    toeplitz,
    toeplitz_matrix,
    wiener_hopf_pair,
)


def random_loop(rng, band=8, scale=0.3):
    return FourierLoop({k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                        for k in range(-band, band + 1)})


class TestConstruction:
    def test_shift(self):
        s = shift_op(8)
        m = s.dense_section(4)
        expected = np.diag(np.ones(3), -1)
        assert np.allclose(m, expected)

    def test_identity(self):
        assert np.allclose(identity_op(8).dense_section(4), np.eye(4))

    def test_coshift(self):
        m = coshift_op(8).dense_section(4)
        assert np.allclose(m, np.diag(np.ones(3), 1))

    def test_window_must_dominate_band(self):
        with pytest.raises(InputError, match="window must dominate band"):
            toeplitz(FourierLoop({4: 1.0}), 8)

    def test_correction_must_fill_the_window(self):
        with pytest.raises(InputError, match="correction window shape mismatch"):
            ToeplitzOp(FourierLoop({0: 1.0}), np.zeros((8, 8)), 16)

    # (build, window) for each window refused before it is truncated or used
    BAD_WINDOWS = {
        "operator-fraction": (lambda w: ToeplitzOp(FourierLoop({0: 1.0}), None, w), 64.7),
        "operator-bool": (lambda w: ToeplitzOp(FourierLoop({0: 1.0}), None, w), True),
        "operator-str": (lambda w: ToeplitzOp(FourierLoop({0: 1.0}), None, w), "64"),
        "correction-float": (lambda w: ToeplitzOp(FourierLoop({0: 1.0}), np.zeros((64, 64)), w),
                             64.0),
        "toeplitz-fraction": (lambda w: toeplitz(FourierLoop({1: 0.5}), w), 64.7),
        "identity-float": (identity_op, 16.0),
        "hankel-fraction": (lambda w: hankel_op(FourierLoop({1: 0.5}), w), 64.5),
        "toeplitz-str": (lambda w: toeplitz(FourierLoop({1: 0.5}), w), "64"),
        "resized-fraction": (lambda w: toeplitz(FourierLoop({1: 0.5}), 16).resized(w), 2.5),
        "resized-bool": (lambda w: toeplitz(FourierLoop({1: 0.5}), 16).resized(w), True),
    }

    @pytest.mark.parametrize("case", sorted(BAD_WINDOWS))
    def test_non_integer_window_refused(self, case):
        build, window = self.BAD_WINDOWS[case]
        with pytest.raises(InputError, match="window must be an integer"):
            build(window)

    @pytest.mark.parametrize("tail", [-0.5, math.nan, "0.5", None, 1j, True],
                             ids=["negative", "nan", "string", "none", "complex", "bool"])
    @pytest.mark.parametrize("build", [
        lambda t: FourierLoop({0: 1.0}, tail=t),
        lambda t: ToeplitzOp(FourierLoop({0: 1.0}), None, 8, tail_bound=t),
    ], ids=["loop", "operator"])
    def test_tail_must_be_non_negative(self, build, tail):
        with pytest.raises(InputError, match="must be non-negative"):
            build(tail)

    def test_numpy_integer_window_accepted(self):
        assert toeplitz(FourierLoop({1: 0.5}), np.int64(16)).window == 16

    @pytest.mark.parametrize("build", [toeplitz, wiener_hopf_pair, hankel_op])
    def test_window_rule_boundary(self, build):
        band_3 = FourierLoop({-3: 0.1, 2: 0.2j})
        build(band_3, 8)
        with pytest.raises(InputError, match="window must dominate band"):
            build(band_3, 7)

    @pytest.mark.parametrize("build", [
        lambda: ToeplitzOp(FourierLoop({0: 1.0}), None, -3),
        lambda: toeplitz(FourierLoop({1: 0.5}), 16).resized(-3),
    ], ids=["operator", "resized"])
    def test_negative_window_refused(self, build):
        # with no loops to dominate, the least window is 0
        with pytest.raises(InputError, match="window must dominate band"):
            build()

    def test_toeplitz_matrix_matches_diagonal_loop(self):
        def reference(symbol, rows, cols):
            out = np.zeros((rows, cols), dtype=complex)
            for k, c in symbol.coeffs.items():
                idx = np.arange(max(0, k), min(rows, cols + k))
                out[idx, idx - k] = c
            return out

        rng = np.random.default_rng(7)
        for band in (0, 1, 5, 70):
            sym = random_loop(rng, band=band)
            for rows, cols in ((0, 3), (3, 0), (1, 1), (5, 9), (9, 5),
                               (64, 64), (134, 64), (64, 134)):
                got = toeplitz_matrix(sym, rows, cols)
                assert np.array_equal(got, reference(sym, rows, cols))
                assert got.flags.writeable

    def test_hankel_entries(self):
        h = HankelWindow(FourierLoop({1: 1.0, 3: 2.0}), 4).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        expected[0, 2] = expected[1, 1] = expected[2, 0] = 2.0
        assert np.array_equal(h, expected)

    def test_hankel_window_matches_per_coefficient_placement(self):
        def reference(symbol, window):
            out = np.zeros((window, window), dtype=complex)
            for k, c in symbol.coeffs.items():
                if k >= 1:
                    idx = np.arange(0, min(k, window))
                    sel = idx[k - 1 - idx < window]
                    out[sel, k - 1 - sel] = c
            return out

        rng = np.random.default_rng(5)
        for band in (0, 1, 5, 70):
            sym = random_loop(rng, band=band)
            # windows below the band leave coefficients k > window (some
            # on the lower anti-diagonals, the rest off the window)
            for window in (0, 1, 2, 5, 64, 134, 140, 141):
                got = HankelWindow(sym, window).matrix
                assert np.array_equal(got, reference(sym, window))
                assert got.flags.writeable and got.flags.c_contiguous


class TestMul:
    def test_s_sstar(self):
        # S·S* = 1 − e₀⊗e₀; oracle: dense 64×64 matrix product
        w = 16
        prod = shift_op(w).mul(coshift_op(w))
        assert prod.symbol.coeffs == {0: 1.0 + 0j}
        expected = np.zeros((w, w), dtype=complex)
        expected[0, 0] = -1.0
        assert np.allclose(prod.correction, expected, atol=1e-15)

        n = 64
        s = np.diag(np.ones(n - 1), -1)
        dense = s @ s.T.conj()
        assert np.allclose(prod.dense_section(n)[:16, :16], dense[:16, :16])

    def test_sstar_s(self):
        prod = coshift_op(16).mul(shift_op(16))
        assert prod.symbol.coeffs == {0: 1.0 + 0j}
        assert np.abs(prod.correction).max() == 0.0

    def test_hankel_correction(self):
        a = FourierLoop({1: 0.3})
        b = FourierLoop({-1: 0.2})
        prod = toeplitz(a, 16).mul(toeplitz(b, 16))
        assert prod.symbol.coeffs == {0: 0.3 * 0.2}
        ha = HankelWindow(a, 16).matrix
        hbt = HankelWindow(b.reflect(), 16).matrix
        assert np.allclose(prod.correction, -(ha @ hbt))

    def test_dense_oracle_interior(self):
        # finite-section product agrees with the operator product away
        # from the truncation boundary
        rng = np.random.default_rng(23)
        a, b = random_loop(rng, band=4), random_loop(rng, band=4)
        x = toeplitz(a, 32).mul(toeplitz(b, 32))
        n = 64
        dense = toeplitz_matrix(a, n) @ toeplitz_matrix(b, n)
        inner = n - 2 * 4
        assert np.abs(x.dense_section(n)[:inner, :inner]
                      - dense[:inner, :inner]).max() < 1e-12

    def test_symbol_map_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a, b = random_loop(rng), random_loop(rng)
            prod = toeplitz(a, 64).mul(toeplitz(b, 64))
            assert prod.symbol.coeffs == a.mul(b).coeffs

    def test_commutator_symbol_exactly_zero(self):
        rng = np.random.default_rng(31)
        a, b = random_loop(rng), random_loop(rng)
        z = commutator(toeplitz(a, 64), toeplitz(b, 64))
        assert z.symbol.is_zero()


def padded_brown_halmos(x, y):
    """Reference Brown–Halmos product written out densely: corrections
    zero-padded to the extended window w + band and full ext×ext Toeplitz
    sections, with the discarded mass bounded by sqrt(rank)·‖·‖_F."""

    def nuclear(block):
        rank = min(np.count_nonzero(np.abs(block).sum(axis=1)),
                   np.count_nonzero(np.abs(block).sum(axis=0)))
        return math.sqrt(rank) * np.linalg.norm(block)

    def op_norm(op):
        return (op.symbol.l1() + op.symbol.tail
                + np.linalg.norm(op.correction) + op.tail_bound)

    w = max(x.window, y.window)
    x, y = x.resized(w), y.resized(w)
    phi, psi = x.symbol, y.symbol
    ext = w + max(phi.band, psi.band)
    hb = min(max(phi.band, psi.band, 1), ext)
    corr = np.zeros((ext, ext), dtype=complex)
    corr[:hb, :hb] -= (HankelWindow(phi, hb).matrix
                       @ HankelWindow(psi.reflect(), hb).matrix)
    cx = np.zeros((ext, ext), dtype=complex)
    cx[:w, :w] = x.correction
    cy = np.zeros((ext, ext), dtype=complex)
    cy[:w, :w] = y.correction
    corr += (toeplitz_matrix(phi, ext) @ cy + cx @ toeplitz_matrix(psi, ext)
             + cx @ cy)
    spill = corr.copy()
    spill[:w, :w] = 0
    tail = (x.tail_bound * op_norm(y) + op_norm(x) * y.tail_bound
            + nuclear(spill)
            + phi.tail * nuclear(y.correction)
            + nuclear(x.correction) * psi.tail)
    return corr[:w, :w], tail


def _live(rng, sym, window, tail=1e-9):
    corr = 0.1 * (rng.standard_normal((window, window))
                  + 1j * rng.standard_normal((window, window)))
    return ToeplitzOp(sym, corr, window, tail)


def _p0(window):
    return identity_op(window).sub(shift_op(window).mul(coshift_op(window)))


def _corner(rng, sym, window, rows, cols, tail=1e-9):
    """An operator whose correction is live in its leading rows×cols corner."""
    corr = np.zeros((window, window), dtype=complex)
    corr[:rows, :cols] = 0.1 * (rng.standard_normal((rows, cols))
                                + 1j * rng.standard_normal((rows, cols)))
    return ToeplitzOp(sym, corr, window, tail)


def _mul_cases():
    rng = np.random.default_rng(71)
    tailed = FourierLoop(random_loop(rng, band=3).coeffs, tail=1e-10)
    e = exp_op(toeplitz(random_loop(rng, band=3, scale=0.2), 64))
    few = random_loop(rng, band=1)            # three coefficients
    return {
        "both_zero": (toeplitz(random_loop(rng, band=3), 64),
                      ToeplitzOp(tailed, None, 64, 1e-8)),
        "both_zero_shifts": (shift_op(64), coshift_op(64)),
        "left_zero": (ToeplitzOp(tailed, None, 64, 1e-8), e),
        "right_zero": (e, ToeplitzOp(tailed, None, 64, 1e-8)),
        "left_zero_plain": (toeplitz(random_loop(rng, band=5), 64), e),
        "both_live": (_live(rng, tailed, 64),
                      _live(rng, FourierLoop(random_loop(rng).coeffs, tail=2e-10), 64)),
        "p0_left": (_p0(64), e),
        "p0_right": (e, _p0(64)),
        "shift_left": (shift_op(64), e),
        "shift_right": (e, shift_op(64)),
        "coshift_left": (coshift_op(64), _live(rng, few, 64)),
        "coshift_right": (_live(rng, few, 64), coshift_op(64)),
        "few_coeffs_both": (_live(rng, few, 64), _live(rng, few, 64)),
        "band_70": (_live(rng, random_loop(rng, band=70, scale=0.01), 64),
                    _live(rng, random_loop(rng, band=2), 64)),
        "band_70_right": (_live(rng, random_loop(rng, band=2), 64),
                          _live(rng, random_loop(rng, band=70, scale=0.01), 64)),
        "mixed_windows": (_live(rng, random_loop(rng, band=3), 32),
                          _live(rng, random_loop(rng, band=4), 64)),
        "mixed_windows_shrink": (_live(rng, random_loop(rng, band=3), 64),
                                 _live(rng, few, 32)),
        "corner_small": (_corner(rng, random_loop(rng, band=3), 64, 9, 5),
                         _corner(rng, random_loop(rng, band=4), 64, 6, 11)),
        "border_only": (shift_op(64).mul(toeplitz(random_loop(rng, band=5), 64))
                        .mul(coshift_op(64)), e),
        # rows reach the window's last row, and the band-6 symbols carry
        # T_φ·C_y and C_x·T_ψ past it
        "corner_at_edge": (_corner(rng, random_loop(rng, band=6), 64, 64, 3),
                           _corner(rng, random_loop(rng, band=6), 64, 4, 64)),
        "zero_symbol_hankels": (hankel_op(random_loop(rng, band=5), 64),
                                hankel_op(random_loop(rng, band=7), 64)),
        "mixed_windows_corners": (_corner(rng, random_loop(rng, band=3), 32, 32, 7),
                                  _corner(rng, random_loop(rng, band=2), 64, 12, 40)),
    }


MUL_CASES = _mul_cases()


class TestMulBlocks:
    """ToeplitzOp.mul multiplies only nonzero blocks; it must agree with the
    padded dense Brown–Halmos product in correction and tail bound."""

    @pytest.mark.parametrize("name", sorted(MUL_CASES))
    def test_matches_padded_reference(self, name):
        x, y = MUL_CASES[name]
        corr, tail = padded_brown_halmos(x, y)
        prod = x.mul(y)
        assert prod.symbol.coeffs == x.symbol.mul(y.symbol).coeffs
        assert np.abs(prod.correction - corr).max() <= 1e-12
        assert abs(prod.tail_bound - tail) <= 1e-12 * max(tail, 1e-300)

    def test_cases_cover_zero_and_few_coefficient_operands(self):
        x, y = MUL_CASES["both_zero"]
        assert not x.correction.any() and not y.correction.any()
        assert MUL_CASES["p0_left"][0].symbol.is_zero()
        assert MUL_CASES["band_70"][0].symbol.band == 70
        assert MUL_CASES["band_70"][0].window == 64
        assert (len(MUL_CASES["few_coeffs_both"][0].symbol.coeffs)
                <= 4 < len(MUL_CASES["both_live"][1].symbol.coeffs))

    def test_cases_cover_corners(self):
        def extent(op):
            rows, cols = np.nonzero(op.correction)
            return rows.max() + 1, cols.max() + 1

        border = MUL_CASES["border_only"][0]
        assert not border.correction[1:, 1:].any()  # row 0 and column 0 only
        assert extent(border) == (6, 6)
        assert extent(MUL_CASES["corner_small"][0]) == (9, 5)
        assert extent(MUL_CASES["corner_at_edge"][0]) == (64, 3)
        x, y = MUL_CASES["zero_symbol_hankels"]
        assert x.symbol.is_zero() and y.symbol.is_zero()
        assert extent(x) == (5, 5) and extent(y) == (7, 7)
        x, y = MUL_CASES["mixed_windows_corners"]
        assert (x.window, y.window) == (32, 64)

    def test_products_see_only_live_corners(self, monkeypatch):
        # H_φ is p×p with p = 3, φ's highest index, and H_ψ̃ q×q with q = 4,
        # ψ's most negative index negated; T_φ·C_y and C_x·T_ψ take the
        # live corners of C_y (rows 6, columns 11) and of C_x (rows 9,
        # columns 5), C_x·C_y reads C_x[:9, :5] and C_y[:5, :11]
        rng = np.random.default_rng(79)
        x = _corner(rng, FourierLoop({-2: 0.1, 3: 0.2}), 64, 9, 5)
        y = _corner(rng, FourierLoop({-4: 0.3, 1: 0.1j}), 64, 6, 11)
        blocks, hankels = [], []
        times = toeplitz_calculus._toeplitz_times
        monkeypatch.setattr(toeplitz_calculus, "_toeplitz_times",
                            lambda sym, block, rows: blocks.append((block.shape, rows))
                            or times(sym, block, rows))
        window = toeplitz_calculus.HankelWindow
        monkeypatch.setattr(toeplitz_calculus, "HankelWindow",
                            lambda sym, n: hankels.append(n) or window(sym, n))
        prod = x.mul(y)
        assert blocks == [((6, 11), 6 + 3), ((5, 9), 5 + 4)]
        assert hankels == [3, 4]
        corr, tail = padded_brown_halmos(x, y)
        assert np.abs(prod.correction - corr).max() <= 1e-12
        assert abs(prod.tail_bound - tail) <= 1e-12 * tail

    def test_analytic_factors_build_no_hankel(self, monkeypatch):
        # T(e^{a₋})·T(e^{a₊}) = T(e^a) exactly: H(e^{a₋}) = 0, nothing to multiply
        built = []
        window = toeplitz_calculus.HankelWindow
        monkeypatch.setattr(toeplitz_calculus, "HankelWindow",
                            lambda sym, n: built.append(n) or window(sym, n))
        e_minus, e_plus, _, _ = split_exponentials(FourierLoop({-2: 0.3, 1: 0.2, 3: 0.1j}))
        prod = ToeplitzOp(e_minus, None, 64).mul(ToeplitzOp(e_plus, None, 64))
        assert built == []
        assert not prod.correction.any() and prod.tail_bound == 0.0
        ToeplitzOp(e_plus, None, 64).mul(ToeplitzOp(e_minus, None, 64))
        assert built == [e_plus.band, e_minus.band]


def assert_canonical(op):
    """The stored corner is the exact live block of the correction: its
    last row and last column each hold a nonzero (0×0 for C = 0), it is
    read-only, and ``correction`` is it zero-padded to the window."""
    c = op.corner
    assert not c.flags.writeable
    if c.size:
        assert (c[-1] != 0).any() and (c[:, -1] != 0).any()
    else:
        assert c.shape == (0, 0)
    padded = np.zeros((op.window, op.window), dtype=complex)
    padded[:c.shape[0], :c.shape[1]] = c
    assert np.array_equal(op.correction, padded, equal_nan=True)


def _construction_cases():
    rng = np.random.default_rng(83)
    sym = random_loop(rng, band=3)
    corr = np.zeros((16, 16), dtype=complex)
    corr[:5, :3] = rng.standard_normal((5, 3))
    corr[6:, 4:] = -0.0  # signed zeros are not live
    nan_edge = corr.copy()
    nan_edge[9, 0] = np.nan
    x = _corner(rng, random_loop(rng, band=2), 16, 7, 10)
    e = exp_op(toeplitz(random_loop(rng, band=2, scale=0.2), 16))
    p0 = _p0(16)
    low_rows = x.correction.copy()
    low_rows[:4] = 0
    return {
        "none": ToeplitzOp(sym, None, 16),
        "full_array": ToeplitzOp(sym, corr, 16),
        "zero_array": ToeplitzOp(sym, np.zeros((16, 16)), 16),
        "nan_at_edge": ToeplitzOp(sym, nan_edge, 16),
        **{f"mul_{name}": a.mul(b) for name, (a, b) in MUL_CASES.items()},
        "add": x.add(e),
        "add_cancels_rows": x.add(ToeplitzOp(FourierLoop(), -low_rows, 16)),
        "sub_self": x.sub(x),
        "p0": p0,
        "neg": x.neg(),
        "scalar_mul": x.scalar_mul(0.5 - 2j),
        "scalar_mul_zero": x.scalar_mul(0),
        "scalar_mul_underflow": ToeplitzOp(sym, np.diag([1.0, 1e-300]), 2).scalar_mul(1e-300),
        "resized_down": x.resized(6),
        "resized_up": x.resized(40),
        "inv": toeplitz(FourierLoop({0: 2.0, 1: 0.5, -2: 0.3j}), 16).inv(),
        "exp": e,
        "hankel_op": hankel_op(random_loop(rng, band=5), 16),
        "hankel_op_coanalytic": hankel_op(FourierLoop({-3: 0.2, 0: 1.0}), 16),
    }


CONSTRUCTION_CASES = _construction_cases()


class TestCorner:
    """A ToeplitzOp holds only the live corner of its correction."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES))
    def test_every_construction_stores_the_canonical_corner(self, name):
        assert_canonical(CONSTRUCTION_CASES[name])

    def test_cases_reach_the_edge_shapes(self):
        shape = {name: op.corner.shape for name, op in CONSTRUCTION_CASES.items()}
        assert shape["none"] == shape["zero_array"] == shape["sub_self"] == (0, 0)
        assert shape["scalar_mul_zero"] == (0, 0) and shape["p0"] == (1, 1)
        assert shape["full_array"] == (5, 3) and shape["nan_at_edge"] == (10, 3)
        assert shape["scalar_mul_underflow"] == (1, 1)
        assert shape["resized_down"] == (6, 6) and shape["resized_up"] == (7, 10)
        assert shape["hankel_op"] == (5, 5) and shape["hankel_op_coanalytic"] == (0, 0)
        assert shape["add_cancels_rows"] == (4, 10)

    def test_correction_is_read_only(self):
        x = CONSTRUCTION_CASES["full_array"]
        with pytest.raises(ValueError):
            x.correction[0, 0] = 1.0
        with pytest.raises(ValueError):
            x.corner[0, 0] = 1.0
        assert x.correction[0, 0] == x.corner[0, 0] != 1.0

    def test_constructor_keeps_no_reference_to_its_argument(self):
        corr = np.zeros((8, 8), dtype=complex)
        corr[1, 2] = 3.0
        x = ToeplitzOp(FourierLoop({0: 1.0}), corr, 8)
        corr[1, 2] = 5.0
        assert x.corner.shape == (2, 3) and x.corner[1, 2] == 3.0

    @pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES))
    def test_correction_round_trips_bit_for_bit(self, name):
        x = CONSTRUCTION_CASES[name]
        y = ToeplitzOp(x.symbol, x.correction, x.window, x.tail_bound)
        assert y.symbol is x.symbol and y.window == x.window
        assert y.tail_bound.hex() == x.tail_bound.hex()
        assert y.corner.shape == x.corner.shape
        assert y.corner.tobytes() == x.corner.tobytes()

    def test_mul_never_touches_the_window(self, monkeypatch):
        # 3×3 corners at window 4096: a product scans its own small region
        # only, and allocates nothing of the window's size
        rng = np.random.default_rng(89)
        x = _corner(rng, FourierLoop({-2: 0.1, 0: 1.0, 2: 0.2}), 8, 3, 3).resized(4096)
        y = _corner(rng, FourierLoop({-1: 0.3, 1: 0.1j}), 8, 3, 3).resized(4096)
        assert x.window == y.window == 4096
        assert x.corner.shape == y.corner.shape == (3, 3)
        x.mul(y)  # first-call imports and caches stay out of the count
        scanned = []
        extent = toeplitz_calculus._extent
        monkeypatch.setattr(toeplitz_calculus, "_extent",
                            lambda corr: scanned.append(corr.shape) or extent(corr))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prod = x.mul(y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert scanned == [(5, 4)]  # the region the product's terms fill
        # the smallest array with a side of 4096 holds 4096 complex numbers
        assert peak < 4096 * 16
        assert prod.window == 4096 and prod.corner.shape == (5, 4)
        small = x.resized(8).mul(y.resized(8))
        assert np.array_equal(prod.corner, small.corner)
        assert prod.tail_bound == small.tail_bound


class TestTrace:
    def test_shift_commutator(self):
        c = commutator(shift_op(16), coshift_op(16))
        assert abs(op_trace(c) - (-1)) < 1e-14

    def test_zero(self):
        assert op_trace(ToeplitzOp(FourierLoop({}), None, 8)) == 0

    def test_nonzero_symbol_rejected(self):
        with pytest.raises(InvariantViolation, match="trace undefined"):
            op_trace(identity_op(8))

    def test_k_minus_one_term(self):
        a, b = FourierLoop({1: 1.0}), FourierLoop({-1: 1.0})
        c = commutator(toeplitz(a, 16), toeplitz(b, 16))
        assert abs(op_trace(c) - (-1)) < 1e-14

    def test_closed_form_matches_window_trace(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            a, b = random_loop(rng), random_loop(rng)
            c = commutator(toeplitz(a, 64), toeplitz(b, 64))
            assert abs(op_trace(c) - commutator_trace_closed(a, b)) < 1e-10

    def test_doubling_within_tail(self):
        rng = np.random.default_rng(41)
        a, b = random_loop(rng, band=4), random_loop(rng, band=4)
        x32 = toeplitz(a, 32).mul(toeplitz(b, 32))
        x64 = toeplitz(a, 64).mul(toeplitz(b, 64))
        t32 = np.trace(x32.correction)
        t64 = np.trace(x64.correction)
        assert abs(t64 - t32) <= x32.tail_bound + 1e-13


class TestClosedForms:
    def test_commutator_trace_closed(self):
        a, b = FourierLoop({2: 0.5}), FourierLoop({-2: 0.4})
        assert abs(commutator_trace_closed(a, b) - (-0.4)) < 1e-15
        assert commutator_trace_closed(a, a) == 0

    def test_closed_matches_pairing(self):
        rng = np.random.default_rng(43)
        a, b = random_loop(rng), random_loop(rng)
        assert commutator_trace_closed(a, b) == pairing_integral(a, b)

    def test_shift_conjugation(self):
        assert shift_conjugation_trace(FourierLoop({0: 1.0})) == -1
        assert shift_conjugation_trace(FourierLoop({3: 7.0})) == 0
        assert shift_conjugation_trace(FourierLoop({0: 2 + 1j, 1: 5.0})) == -(2 + 1j)

    def test_shift_conjugation_window_oracle(self):
        # dense window trace of S·T_b·S* − T_b
        rng = np.random.default_rng(47)
        b = random_loop(rng, band=6)
        n = 64
        s = np.diag(np.ones(n - 1), -1).astype(complex)
        tb = toeplitz_matrix(b, n)
        diff = s @ tb @ s.conj().T - tb
        assert abs(np.trace(diff) - shift_conjugation_trace(b)) < 1e-12

    def test_schatten2(self):
        assert schatten2_commutator_F(FourierLoop({0: 5.0})) == 0
        assert abs(schatten2_commutator_F(FourierLoop({1: 1.0})) - 2) < 1e-15
        assert abs(schatten2_commutator_F(FourierLoop({1: 1.0, -1: 1.0}))
                   - 2 * math.sqrt(2)) < 1e-15

    def test_schatten2_double_sum_oracle(self):
        # [F, π(f)] on ℓ²(ℤ) has entries 2f_{j−k}(χ(j)−χ(k))/... with
        # HS norm² = 4·Σ_{j≥0>k} |f_{j−k}|² + 4·Σ_{j<0≤k} |f_{j−k}|²,
        # truncated far beyond the band
        rng = np.random.default_rng(53)
        f = random_loop(rng, band=5)
        total = 0.0
        rng_idx = range(-40, 40)
        for j in rng_idx:
            for k in rng_idx:
                if (j >= 0) != (k >= 0):
                    total += 4 * abs(f[j - k]) ** 2
        assert abs(math.sqrt(total) - schatten2_commutator_F(f)) < 1e-12


TAIL_W, TAIL_N = 16, 40  # operand window, size of the dense reference
TAIL_J = TAIL_W + 2      # where a realised tail sits, past the window


def _unit(j, k):
    e = np.zeros((TAIL_N, TAIL_N), dtype=complex)
    e[j, k] = 1.0
    return e


def _tail_mul_cases():
    """(x, y, X, Y, D): operands whose tails (and y's symbol tail) are
    realised in the dense sections X, Y as perturbations of exactly that
    trace norm (ℓ¹ mass) placed past the window, and D the realisation of
    the product symbol's tail, all aligned so that the true error is as
    large as the bound allows."""
    j, w, n = TAIL_J, TAIL_W, TAIL_N
    one, z = FourierLoop({0: 1.0}), FourierLoop({1: 1.0})
    corner = np.zeros((w, w), dtype=complex)
    corner[:2, :2] = [[1e-3, 2e-3], [-1e-3, 5e-4]]    # ‖·‖_F < 3e-3
    t_x, t_y, tau = 1e-2, 2e-2, 1e-2
    none = np.zeros((n, n), dtype=complex)
    return {
        # (I + E)(S + C): S is an isometry, so the true error E·S has norm t_x
        "left_tail": (ToeplitzOp(one, None, w, t_x), ToeplitzOp(z, corner, w),
                      np.eye(n) + t_x * _unit(j, j),
                      toeplitz_matrix(z, n) + np.pad(corner, (0, n - w)), none),
        "both_tails": (ToeplitzOp(one, None, w, t_x), ToeplitzOp(z, corner, w, t_y),
                       np.eye(n) + t_x * _unit(j, j),
                       toeplitz_matrix(z, n) + np.pad(corner, (0, n - w))
                       + t_y * _unit(j, j - 1), none),
        "right_tail": (ToeplitzOp(z, 50 * corner, w, 1e-3), ToeplitzOp(one, None, w, t_y),
                       toeplitz_matrix(z, n) + np.pad(50 * corner, (0, n - w))
                       + 1e-3 * _unit(j + 1, j),
                       np.eye(n) + t_y * _unit(j, j), none),
        # y's symbol is z with tail tau, realised as (1 + tau)·z
        "symbol_tail": (ToeplitzOp(one, None, w, t_x),
                        ToeplitzOp(FourierLoop({1: 1.0}, tail=tau), corner, w),
                        np.eye(n) + t_x * _unit(j, j),
                        toeplitz_matrix(z, n) * (1 + tau) + np.pad(corner, (0, n - w)),
                        tau * toeplitz_matrix(z, n)),
    }


TAIL_MUL_CASES = _tail_mul_cases()


def _trace_norm(m):
    return float(np.linalg.svd(m, compute_uv=False).sum())


class TestTailBounds:
    """A tail bound t is the trace norm of whatever fell off the window.  Each
    operand's t is realised as a dense perturbation of trace norm t past the
    window, in a larger dense reference; the trace norm of the true error of
    the result must not exceed the tail bound it reports."""

    @pytest.mark.parametrize("name", sorted(TAIL_MUL_CASES))
    def test_mul(self, name):
        x, y, big_x, big_y, sym_tail = TAIL_MUL_CASES[name]
        prod = x.mul(y)
        m = TAIL_N - 4  # the last rows see the dense sections' own edge
        err = (big_x @ big_y - prod.dense_section(TAIL_N) - sym_tail)[:m, :m]
        true = _trace_norm(err)
        assert true > 0.8 * prod.tail_bound  # the bound is nearly attained
        assert true <= prod.tail_bound * (1 + 1e-12)

    def test_inv(self):
        # T(φ) is lower triangular, so the dense section of (T(φ) + E)⁻¹ is
        # exact; ‖T(φ)⁻¹‖ ≈ 2 > 1 and the true error is about 4t
        phi, t = FourierLoop({0: 0.5, 1: 0.1}), 1e-3
        x = ToeplitzOp(phi, None, TAIL_W, t)
        inv = x.inv()
        big = toeplitz_matrix(phi, TAIL_N) + t * _unit(TAIL_J, TAIL_J)
        true = _trace_norm(np.linalg.inv(big) - inv.dense_section(TAIL_N))
        assert true > 3 * t
        assert true <= inv.tail_bound

    def test_exp(self):
        # T(φ) is lower triangular, so expm of its dense section is the
        # section of T(e^φ); the tail t·E past the window is scaled by
        # about e^{φ₀} ≈ 1.65, under the bound t·e^{‖x‖} ≈ 1.82t
        phi, t = FourierLoop({0: 0.5, 1: 0.1}), 1e-3
        x = ToeplitzOp(phi, None, TAIL_W, t)
        exp = x.exp()
        big = toeplitz_matrix(phi, TAIL_N) + t * _unit(TAIL_J, TAIL_J)
        true = _trace_norm(scipy.linalg.expm(big) - exp.dense_section(TAIL_N))
        assert true > 1.6 * t
        assert true <= exp.tail_bound


class TestInvExp:
    def test_inv_identity(self):
        y = identity_op(16).inv()
        assert y.symbol.coeffs == {0: 1.0 + 0j}
        assert np.abs(y.correction).max() < 1e-12

    def test_inv_scalar(self):
        y = toeplitz(FourierLoop({0: 2.0}), 16).inv()
        assert abs(y.symbol[0] - 0.5) < 1e-14
        assert np.abs(y.correction).max() < 1e-12

    def test_inv_winding_obstruction(self):
        with pytest.raises(NumericalError, match="index obstruction") as exc:
            shift_op(16).inv()
        assert exc.value.exit_code == 3

    def test_inv_reads_the_winding_from_its_own_grids(self, monkeypatch):
        # band 3 starts on 64 points and its inverse is resolved on 256;
        # no separate winding pass evaluates the 64-point grid again
        x = toeplitz(FourierLoop({0: 2.0, 1: 0.5, -3: 0.3j}), 16)
        calls = []
        eval_grid = FourierLoop.eval_grid

        def counting(self, n):
            if self is x.symbol:
                calls.append(n)
            return eval_grid(self, n)

        monkeypatch.setattr(FourierLoop, "eval_grid", counting)
        x.inv()
        assert calls == [64, 128, 256]

    @pytest.mark.filterwarnings("error")
    def test_inv_singular_correction(self):
        # identity minus e0 e0^T: the correction zeroes the first row
        corr = np.zeros((16, 16), dtype=complex)
        corr[0, 0] = -1.0
        x = ToeplitzOp(FourierLoop({0: 1.0}), corr, 16)
        with pytest.raises(NumericalError, match="numerically singular"):
            x.inv()

    def test_inv_non_finite_correction(self):
        corr = np.zeros((16, 16), dtype=complex)
        corr[3, 2] = np.nan
        x = ToeplitzOp(FourierLoop({0: 1.0}), corr, 16)
        with pytest.raises(NumericalError, match="numerically singular"):
            x.inv()

    def test_inv_residual(self):
        rng = np.random.default_rng(59)
        a = random_loop(rng, band=3, scale=0.2)
        x = exp_op(toeplitz(a, 64))
        y = x.inv()
        resid = x.mul(y).sub(identity_op(64))
        assert resid.symbol.l1() < 1e-12
        assert np.abs(resid.correction).max() < 1e-10
        resid2 = y.mul(x).sub(identity_op(64))
        assert np.abs(resid2.correction).max() < 1e-10

    def test_inv_matches_exp_neg(self):
        rng = np.random.default_rng(61)
        a = random_loop(rng, band=3, scale=0.15)
        x = exp_op(toeplitz(a, 64))
        direct = exp_op(toeplitz(a.neg(), 64))
        resid = x.mul(direct).sub(identity_op(64))
        assert np.abs(resid.correction).max() < 1e-10

    def test_exp_zero(self):
        e = exp_op(ToeplitzOp(FourierLoop({}), None, 16))
        assert e.symbol.coeffs == {0: 1.0 + 0j}
        assert np.abs(e.correction).max() < 1e-13

    def test_exp_scalar(self):
        e = exp_op(toeplitz(FourierLoop({0: 0.3 + 0.1j}), 16))
        assert abs(e.symbol[0] - np.exp(0.3 + 0.1j)) < 1e-14
        assert np.abs(e.correction).max() < 1e-13

    def test_exp_symbol_is_exp(self):
        a = FourierLoop({1: 0.3, -2: 0.1})
        e = exp_op(toeplitz(a, 64))
        assert e.symbol.sub(a.exp()).l1() < 1e-14

    def test_exp_dense_oracle(self):
        # compare against the dense matrix exponential of a larger
        # section on its top-left corner
        import scipy.linalg
        a = FourierLoop({1: 0.3, -2: 0.1})
        e = exp_op(toeplitz(a, 64))
        dense = scipy.linalg.expm(toeplitz_matrix(a, 256))
        assert np.abs(e.dense_section(64) - dense[:64, :64]).max() < 1e-12

    def test_exp_self_consistency(self):
        rng = np.random.default_rng(67)
        a = random_loop(rng, band=4, scale=0.25)
        x = toeplitz(a, 64)
        prod = exp_op(x).mul(exp_op(x.neg()))
        dev = prod.dense_section(64) - np.eye(64)
        assert np.abs(dev).max() < 1e-10


def _exp_pair_cases():
    rng = np.random.default_rng(73)
    a = random_loop(rng, band=6)
    live = random_loop(rng, band=3, scale=0.1)
    return {
        "pure_l1_4": a.scalar_mul(4.0 / a.l1()),
        "zero_symbol": FourierLoop({}),
        # a log carrying a truncation tail
        "live_tailed": FourierLoop(live.coeffs, 1e-9),
        # real part spanning [−7.8, 7.8]
        "spread_15_6": FourierLoop({-1: 3.9, 1: 3.9}),
    }


EXP_PAIR_CASES = [(w, name, a) for w in (64, 256)
                  for name, a in _exp_pair_cases().items()]


class TestExpPair:
    """wiener_hopf_pair lifts e^{±a} as products of Toeplitz operators of
    coanalytic and analytic exponentials: the pair is inverse in the
    calculus, and its symbols are those of e^{±T_a} from exp_op."""

    @pytest.mark.parametrize("w,name,a", EXP_PAIR_CASES,
                             ids=[f"{name}-w{w}" for w, name, _ in EXP_PAIR_CASES])
    def test_matches_two_exponentials(self, w, name, a):
        x = ToeplitzOp(a, None, w)
        pair = wiener_hopf_pair(a, w)
        for got, want in zip(pair, (exp_op(x), exp_op(x.neg()))):
            assert got.window == want.window == w
            scale = want.symbol.l1()
            assert got.symbol.sub(want.symbol).l1() <= 1e-13 * scale
            # nothing is truncated once the window holds the Hankel corner
            if w >= max(e.symbol.band for e in pair):
                assert got.tail_bound == 0.0
            assert 0.0 <= got.tail_bound < 1e-9 * scale
            if a.tail > 0:
                assert got.symbol.tail > 0

    def test_pair_is_inverse(self):
        a = _exp_pair_cases()["pure_l1_4"]
        e_pos, e_neg = wiener_hopf_pair(a, 64)
        for x, y in ((e_pos, e_neg), (e_neg, e_pos)):
            resid = x.mul(y).sub(identity_op(64))
            assert resid.symbol.l1() < 1e-12
            assert np.abs(resid.correction).max() < 1e-10

    def test_wide_exponentials_at_small_window(self):
        # e^{±a} are wider than the window itself, far past what
        # toeplitz() accepts; what falls outside goes to the tail
        a = _exp_pair_cases()["pure_l1_4"]
        e_pos, e_neg = wiener_hopf_pair(a, 32)
        assert min(e_pos.symbol.band, e_neg.symbol.band) > 32
        assert e_neg.tail_bound > 0
        for x, y in ((e_pos, e_neg), (e_neg, e_pos)):
            resid = x.mul(y).sub(identity_op(32))
            assert resid.symbol.l1() < 1e-12
            assert np.abs(resid.correction).max() <= resid.tail_bound < 1e-2

    def test_given_split_exponentials_are_used(self, monkeypatch):
        a = _exp_pair_cases()["pure_l1_4"]
        exps = split_exponentials(a)
        want = wiener_hopf_pair(a, 64)

        def no_exp(self):
            raise AssertionError("FourierLoop.exp called")

        monkeypatch.setattr(FourierLoop, "exp", no_exp)
        got = wiener_hopf_pair(a, 64, exps)
        for x, y in zip(got, want):
            assert x.symbol.coeffs == y.symbol.coeffs
            assert np.array_equal(x.correction, y.correction)
            assert x.tail_bound == y.tail_bound

    def test_log_wider_than_window_rejected(self):
        with pytest.raises(InputError, match="window must dominate band"):
            wiener_hopf_pair(FourierLoop({20: 0.1}), 32)

    # e^{800} overflows; for −800 its inverse factor e^{800} does
    @pytest.mark.parametrize("entry", [800.0, -800.0])
    @pytest.mark.filterwarnings("ignore")
    def test_overflow_rejected(self, entry):
        with pytest.raises(NumericalError):
            wiener_hopf_pair(FourierLoop({0: entry}), 16)


class TestSerialization:
    def test_dump_roundtrip_fields(self):
        x = shift_op(8).mul(coshift_op(8))
        doc = x.to_json()
        assert doc["window"] == 8
        assert len(doc["correction"]) == 64
        assert doc["tail_bound"] >= 0
        assert doc["symbol"]["coeffs"] == [[0, 1.0, 0.0]]


def op_bytes(op):
    """Everything an operator stores, as exact bytes."""
    return (op.corner.shape, op.corner.tobytes(), op.symbol.lo, op.symbol.run.tobytes(),
            op.symbol.tail, op.window, op.tail_bound)


def _operator_pairs():
    rng = np.random.default_rng(83)
    out = []
    for wx, wy in ((48, 48), (32, 48), (48, 32)):
        x = _corner(rng, FourierLoop(random_loop(rng, band=3).coeffs, tail=1e-10),
                    wx, 7, 5, tail=2e-9)
        y = _corner(rng, FourierLoop(random_loop(rng, band=4).coeffs, tail=3e-10),
                    wy, 6, 9, tail=4e-9)
        out.append((x, y))
    return out


class TestOperators:
    """``@``, ``+``, ``-``, unary ``-`` and scalar ``*`` are mul, add, sub,
    neg and scalar_mul, bit for bit."""

    @pytest.mark.parametrize("pair", _operator_pairs(), ids=["same", "wider_y", "wider_x"])
    def test_binary_operators(self, pair):
        x, y = pair
        assert x.corner.size and y.corner.size and x.symbol.tail and y.tail_bound
        assert op_bytes(x @ y) == op_bytes(x.mul(y))
        assert op_bytes(x + y) == op_bytes(x.add(y))
        assert op_bytes(x - y) == op_bytes(x.sub(y))
        assert op_bytes(-x) == op_bytes(x.neg())

    @pytest.mark.parametrize("c", [0.3 - 1.2j, np.complex128(0.3 - 1.2j)],
                             ids=["complex", "complex128"])
    def test_scalar_times_operator(self, c):
        x, _ = _operator_pairs()[0]
        assert op_bytes(c * x) == op_bytes(x.scalar_mul(c))

    def test_numpy_scalar_times_operator_is_an_operator(self):
        x, _ = _operator_pairs()[0]
        for c in (np.complex128(2), np.float64(2.0)):
            assert isinstance(c * x, ToeplitzOp)
            assert op_bytes(c * x) == op_bytes(x.scalar_mul(c))
