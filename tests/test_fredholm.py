import cmath
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.special

from fredk2 import InvariantViolation, NumericalError
from fredk2.cyclic_chains import LINE_MAX_ORDER, TRI_MAX_ORDER, BlockOp, SimplexPath
from fredk2.fourier_loops import FourierLoop
from fredk2.fredholm import (
    FD_STEP,
    OperatorPath,
    central_difference,
    det1p,
    det_exp_pair,
    det_exp_pair_verify,
    gl_adaptive,
    mult_commutator_det,
    path_log_det,
)
from fredk2.toeplitz_calculus import (
    ToeplitzOp,
    commutator_trace_closed,
    coshift_op,
    exp_op,
    identity_op,
    shift_op,
    toeplitz,
    zero_op,
)


def random_loop(rng, band=4, scale=0.2):
    return FourierLoop({k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                        for k in range(-band, band + 1)})


def rank_one_perturbation(lam, window=16):
    corr = np.zeros((window, window), dtype=complex)
    corr[0, 0] = lam - 1.0
    return ToeplitzOp(FourierLoop({0: 1.0}), corr, window)


class TestDet1p:
    def test_identity(self):
        assert det1p(identity_op(16)) == 1
        assert det1p(identity_op(0)) == 1

    def test_rank_one(self):
        lam = 0.3 - 0.7j
        assert abs(det1p(rank_one_perturbation(lam)) - lam) < 1e-12

    def test_exp_times_exp_neg(self):
        rng = np.random.default_rng(3)
        a = random_loop(rng)
        x = toeplitz(a, 64)
        prod = exp_op(x).mul(exp_op(x.neg()))
        assert abs(det1p(prod) - 1) < 1e-9

    def test_not_determinant_class(self):
        with pytest.raises(InvariantViolation, match="not determinant class"):
            det1p(shift_op(16))

    def test_window_too_small(self):
        # a symbol deviation below the class tolerance still moves the
        # determinant between windows
        x = ToeplitzOp(FourierLoop({0: 1.0 + 5e-10}), None, 64)
        with pytest.raises(NumericalError, match="window too small"):
            det1p(x)

    def test_block_diagonal(self):
        lam = 0.3 - 0.7j
        one = identity_op(16)
        x = BlockOp.diagonal(one, rank_one_perturbation(lam), one, 16)
        assert abs(det1p(x) - lam) < 1e-12

    def test_block_not_determinant_class(self):
        one = identity_op(16)
        off_unit = toeplitz(FourierLoop({0: 1.0, 1: 0.5}), 16)
        with pytest.raises(InvariantViolation, match="not determinant class"):
            det1p(BlockOp.diagonal(one, off_unit, one, 16))
        z = zero_op(16)
        with pytest.raises(InvariantViolation, match="not determinant class"):
            det1p(BlockOp(((one, shift_op(16), z), (z, one, z), (z, z, one))))

    def test_block_window_too_small(self):
        one = identity_op(64)
        x = ToeplitzOp(FourierLoop({0: 1.0 + 5e-10}), None, 64)
        with pytest.raises(NumericalError, match="window too small"):
            det1p(BlockOp.diagonal(one, one, x, 64))

    def test_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a, b = random_loop(rng), random_loop(rng)
            x = exp_op(toeplitz(a, 64)).mul(exp_op(toeplitz(a.neg(), 64)))
            y = exp_op(toeplitz(b, 64)).mul(exp_op(toeplitz(b.neg(), 64)))
            lhs = det1p(x.mul(y))
            assert abs(lhs - det1p(x) * det1p(y)) < 1e-9

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        x = rank_one_perturbation(2.5 + 1j, 64)
        g = exp_op(toeplitz(random_loop(rng), 64))
        conj = g.mul(x).mul(g.inv())
        assert abs(det1p(conj) - det1p(x)) < 1e-9


W = 32


def planted_op(rng, l1, band, diagonal, correction=None, window=W):
    """ToeplitzOp whose symbol deviates from 1 (diagonal) or 0 by a random
    loop of ℓ¹ norm ``l1`` on indices −band … band."""
    ks = range(-band, band + 1)
    c = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    c *= l1 / np.abs(c).sum()
    coeffs = dict(zip(ks, c))
    if diagonal:
        coeffs[0] = coeffs.get(0, 0) + 1.0
    return ToeplitzOp(FourierLoop(coeffs), correction, window)


def planted_correction(rng, kind, window=W):
    if kind == "corner":
        out = np.zeros((window, window), dtype=complex)
        out[:6, :6] = 0.05 * rng.standard_normal((6, 6))
        return out
    if kind == "full":
        return 0.5 * (rng.standard_normal((window, window))
                      + 1j * rng.standard_normal((window, window))) / window
    # 1 + correction has one eigenvalue 1e-5, its eigenvectors spread over
    # the window
    u = rng.standard_normal(window) + 1j * rng.standard_normal(window)
    v = rng.standard_normal(window) + 1j * rng.standard_normal(window)
    return -(1 - 1e-5) * np.outer(u / (v.conj() @ u), v.conj())


def planted_block(rng, l1, band, off_only, corr):
    """3x3 BlockOp with ``corr`` on its (2,2) block and small corner
    corrections elsewhere; every block deviates by ``l1``, or only the
    off-diagonal ones."""
    return BlockOp([[planted_op(rng, 0.0 if off_only and i == j else l1, band, i == j,
                                corr if i == j == 1 else planted_correction(rng, "corner"))
                     for j in range(3)] for i in range(3)])


def doubling_ratio_error(x):
    """The test-side reference |det M_2w / det M_w − 1| on dense sections."""
    w = x.window
    return abs(np.linalg.det(x.dense_section(2 * w))
               / np.linalg.det(x.dense_section(w)) - 1)


def edge_pivot_op(pivot, window=W):
    """Symbol 1 + 2⁻³¹(z + 1/z) with the section's last diagonal entry set
    to ``pivot``: all entries exact, and the section's inverse is of size
    1/pivot at the window's edge, where B and C couple it to the rest of
    the doubled section (det M_2w / det M_w − 1 ≈ −2⁻⁶²/pivot)."""
    corr = np.zeros((window, window), dtype=complex)
    corr[-1, -1] = pivot - 1
    return ToeplitzOp(FourierLoop({-1: 2.0 ** -31, 0: 1.0, 1: 2.0 ** -31}),
                      corr, window)


class TestDet1pWindowCheck:
    """Strict det1p bounds the doubled-window test from the window's LU."""

    def test_strict_factors_the_window_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        sizes, factored = [], []
        section = ToeplitzOp.dense_section
        getrf = scipy.linalg.lapack.zgetrf
        monkeypatch.setattr(ToeplitzOp, "dense_section",
                            lambda op, n: sizes.append(n) or section(op, n))
        monkeypatch.setattr(scipy.linalg.lapack, "zgetrf",
                            lambda a, **kw: factored.append(a.shape) or getrf(a, **kw))
        x = planted_op(rng, 1e-14, 3, True, planted_correction(rng, "full"))
        det1p(x)
        assert sizes == [W] and factored == [(W, W)]
        one = identity_op(W)
        sizes.clear()
        factored.clear()
        det1p(BlockOp.diagonal(one, x, one, W))
        assert set(sizes) == {W} and factored == [(3 * W, 3 * W)]

    def test_strict_and_fast_return_the_same_value(self):
        rng = np.random.default_rng(29)
        one = identity_op(W)
        for kind in ("corner", "full", "ill"):
            x = planted_op(rng, 1e-13, 5, True, planted_correction(rng, kind))
            block = BlockOp([[x, planted_op(rng, 1e-13, 2, False), one.scalar_mul(0)],
                             [one.scalar_mul(0), one, planted_op(rng, 1e-13, 40, False)],
                             [planted_op(rng, 1e-13, 1, False), one.scalar_mul(0), x]])
            for op in (x, block):
                assert det1p(op, strict=True) == det1p(op, strict=False)

    @pytest.mark.parametrize("shape", ["toeplitz", "block", "off-diagonal"])
    def test_parity_with_doubled_window(self, shape):
        """Raise wherever the reference exceeds 1e-9, pass wherever it is
        ≤ 1e-10; deviations above the class tolerance are rejected first."""
        rng = np.random.default_rng(31)
        outcomes = set()
        for l1 in (1e-16, 1e-13, 1e-11, 3e-11, 1e-10, 9e-10, 1e-8):
            for band in (0, 1, 5, W, 2 * W + 5):
                for kind in ("corner", "full", "ill"):
                    corr = planted_correction(rng, kind)
                    x = (planted_op(rng, l1, band, True, corr) if shape == "toeplitz"
                         else planted_block(rng, l1, band, shape == "off-diagonal", corr))
                    if l1 > 1e-9:
                        with pytest.raises(InvariantViolation):
                            det1p(x)
                        continue
                    ref = doubling_ratio_error(x)
                    try:
                        det1p(x)
                        outcome = "pass"
                    except NumericalError:
                        outcome = "raise"
                    if ref > 1e-9:
                        assert outcome == "raise", (l1, band, kind, ref)
                    elif ref <= 1e-10:
                        assert outcome == "pass", (l1, band, kind, ref)
                    outcomes.add(outcome)
        # off-diagonal deviations act at second order: nothing to catch
        assert outcomes == ({"pass"} if shape == "off-diagonal" else {"pass", "raise"})

    @pytest.mark.parametrize("window", [W, 3 * W])
    def test_coupling_through_an_ill_conditioned_edge(self, window):
        # the deviation has zero trace; only the coupling term sees it
        x = edge_pivot_op(2.0 ** -40, window)
        assert doubling_ratio_error(x) > 1e-7
        with pytest.raises(NumericalError, match="window too small"):
            det1p(x)
        one = identity_op(window)
        with pytest.raises(NumericalError, match="window too small"):
            det1p(BlockOp.diagonal(one, x, one, window))
        x = edge_pivot_op(2.0 ** -20, window)
        assert doubling_ratio_error(x) <= 1e-10
        assert det1p(x) == det1p(x, strict=False)

    @pytest.mark.parametrize("pivot, raises", [(2.0 ** -40, True), (2.0 ** -20, False)])
    def test_coupling_through_off_diagonal_blocks(self, pivot, raises):
        # the (2,2) block has unit symbol; the deviation sits on the (1,2)
        # and (2,1) blocks, which couple block 1 to the ill-conditioned edge
        corr = np.zeros((W, W), dtype=complex)
        corr[-1, -1] = pivot - 1
        one, z = identity_op(W), zero_op(W)
        x = BlockOp([[one, toeplitz(FourierLoop({1: 2.0 ** -31}), W), z],
                     [toeplitz(FourierLoop({-1: 2.0 ** -31}), W),
                      ToeplitzOp(FourierLoop({0: 1.0}), corr, W), z],
                     [z, z, one]])
        if raises:
            assert doubling_ratio_error(x) > 1e-7
            with pytest.raises(NumericalError, match="window too small"):
                det1p(x)
        else:
            assert doubling_ratio_error(x) <= 1e-10
            assert det1p(x) == det1p(x, strict=False)

    def test_nan_is_not_returned(self):
        # a NaN coefficient passes the class check, and makes ‖F‖₁ NaN
        x = ToeplitzOp(FourierLoop({0: 1.0, 1: float("nan")}), None, W)
        with pytest.raises(NumericalError):
            det1p(x)
        for strict in (True, False):
            with pytest.raises(NumericalError, match="non-finite symbol"):
                det1p(x, strict=strict)

    def test_singular_section(self):
        # exactly singular and uncoupled (M_2w block triangular): det 0
        corr = np.zeros((W, W), dtype=complex)
        corr[0, 0] = -1
        x = ToeplitzOp(FourierLoop({0: 1.0, 1: 1e-12}), corr, W)
        assert det1p(x) == 0 and np.linalg.det(x.dense_section(2 * W)) == 0
        # exactly singular with coupling: the ratio cannot be bounded
        edge = edge_pivot_op(0.0)
        corr = edge.correction.copy()
        corr[-1, -2] = -2.0 ** -31
        x = ToeplitzOp(edge.symbol, corr, W)
        assert np.linalg.det(x.dense_section(2 * W)) != 0
        assert det1p(x, strict=False) == 0
        with pytest.raises(NumericalError, match="window too small"):
            det1p(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_correction_is_rejected(self, bad):
        corr = np.zeros((16, 16), dtype=complex)
        corr[0, 0] = bad
        x = ToeplitzOp(FourierLoop({0: 1.0}), corr, 16)
        corr = planted_correction(np.random.default_rng(97), "corner")
        corr[5, 0] = bad
        block = BlockOp([[identity_op(W), ToeplitzOp(FourierLoop(), corr, W)],
                         [zero_op(W), identity_op(W)]])
        for op in (x, block):
            for strict in (True, False):
                with pytest.raises(NumericalError, match="non-finite correction"):
                    det1p(op, strict=strict)


class TestDetExpPair:
    def test_equal(self):
        x = np.diag([0.2, -0.4]).astype(complex)
        assert det_exp_pair(x, x) == 1

    def test_diagonal(self):
        x = np.diag([0.5, 0.0]).astype(complex)
        y = np.zeros((2, 2), dtype=complex)
        assert abs(det_exp_pair(x, y) - cmath.exp(0.5)) < 1e-15

    def test_random_30x30(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = 0.3 * (2 * rng.random((30, 30)) - 1) \
                + 0.3j * (2 * rng.random((30, 30)) - 1)
            y = 0.3 * (2 * rng.random((30, 30)) - 1) \
                + 0.3j * (2 * rng.random((30, 30)) - 1)
            det_exp_pair_verify(x, y)

    def test_deviation_is_refused(self):
        # ‖x‖₂ ≈ 18 here, and expm's roundoff puts det e^x 4.5e-9 (relative)
        # off e^{Tr x}, 45 times the tolerance
        x = 5 * np.random.RandomState(0).standard_normal((4, 4))
        with pytest.raises(InvariantViolation, match="deviates from e\\^Tr"):
            det_exp_pair_verify(x, np.zeros((4, 4)))


def exp_product_path(seed):
    """t ↦ e^{tx}e^{ty} for random complex 8×8 x, y, as in the oracle test."""
    rng = np.random.default_rng(seed)
    x = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    y = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    return OperatorPath.product(OperatorPath.exponential(x),
                                OperatorPath.exponential(y))


class TestGlAdaptive:
    @staticmethod
    def tried_orders(max_order):
        """Orders gl_adaptive tries on an estimate that never settles."""
        orders = []

        def never_settles(order):
            orders.append(order)
            return float(len(orders))

        with pytest.raises(NumericalError, match="did not converge"):
            gl_adaptive(never_settles, max_order, 1e-9)
        return orders

    def test_ladder_and_its_clamped_top_rung(self):
        assert self.tried_orders(TRI_MAX_ORDER) == [6, 9, 14, 21, 32, 48, 72, 108, 128]
        line = self.tried_orders(LINE_MAX_ORDER)
        assert line[-4:] == [162, 243, 365, 512] and len(line) == 12
        assert self.tried_orders(1024)[-4:] == [365, 548, 822, 1024]


class TestPathLogDet:
    def test_diagonal_flow(self):
        x = np.diag([1.0, 2.0]).astype(complex)
        val = path_log_det(OperatorPath.exponential(x))
        assert abs(val - 3.0) < 1e-11
        assert abs(cmath.exp(val) - np.exp(3.0)) < 1e-9

    def test_constant_identity(self):
        p = OperatorPath(lambda t: np.eye(3, dtype=complex),
                         lambda t: np.zeros((3, 3), dtype=complex))
        assert abs(path_log_det(p)) < 1e-13

    def test_product_path_oracle(self):
        rng = np.random.default_rng(13)
        x = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        y = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        p = OperatorPath.product(OperatorPath.exponential(x),
                                 OperatorPath.exponential(y))
        val = path_log_det(p)
        target = np.linalg.det(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
        assert abs(cmath.exp(val) - target) < 1e-9 * abs(target)

    def test_product_path_stops_at_orders_6_and_9(self):
        # the first two rungs of gl_adaptive's ladder already agree
        p = exp_product_path(13)
        nodes = []
        counted = OperatorPath(p.value, lambda t: nodes.append(t) or p.deriv(t))
        path_log_det(counted)
        assert len(nodes) == 6 + 9

    def test_product_path_matches_order_64_rule(self):
        p = exp_product_path(13)
        nodes, weights = scipy.special.roots_legendre(64)
        ref = sum(0.5 * w * np.trace(np.linalg.solve(p(t), p.deriv(t)))
                  for t, w in zip(0.5 * (nodes + 1.0), weights))
        assert abs(path_log_det(p) - ref) < 1e-12 * abs(ref)

    def test_exp_matches_endpoint(self):
        rng = np.random.default_rng(17)
        x = 0.5 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        val = path_log_det(OperatorPath.exponential(x))
        target = np.linalg.det(scipy.linalg.expm(x))
        assert abs(cmath.exp(val) - target) < 1e-9 * abs(target)

    def test_singular_path(self):
        p = OperatorPath(lambda t: np.diag([1.0, t - 0.5]).astype(complex),
                         lambda t: np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(NumericalError, match="path leaves invertibles"):
            path_log_det(p)

    # (value, derivative) of paths refused on the way: det F = t^1e-13 vanishes
    # at t = 0 though the quadrature settles, two derivatives do not belong to
    # their values (wrong modulus, wrong phase), and two paths are not finite
    LEAVING = {
        "singular-endpoint": (lambda t: np.array([[t ** 1e-13]]),
                              lambda t: np.array([[1e-13 * t ** (1e-13 - 1)]])),
        "wrong-modulus": (lambda t: (1 + t) * np.eye(2), lambda t: 2 * np.eye(2)),
        "wrong-phase": (lambda t: np.eye(2, dtype=complex), lambda t: 1j * np.eye(2)),
        "infinite-derivative": (lambda t: np.eye(2), lambda t: np.full((2, 2), np.inf)),
        "nan-value": (lambda t: np.full((2, 2), np.nan), lambda t: np.eye(2)),
    }

    @pytest.mark.parametrize("case", sorted(LEAVING))
    def test_refused_paths(self, case):
        with pytest.raises(NumericalError, match="path leaves invertibles"):
            path_log_det(OperatorPath(*self.LEAVING[case]))

    def test_wrong_derivative_is_named(self):
        p = exp_product_path(13)
        wrong = OperatorPath(p.value, lambda t: 1.01 * p.deriv(t))
        with pytest.raises(NumericalError, match="a derivative is not the path's"):
            path_log_det(wrong)

    def test_values_must_be_arrays(self):
        with pytest.raises(TypeError, match="unsupported type"):
            path_log_det(OperatorPath(lambda t: [[1.0]]))

    @staticmethod
    def oscillating_path(freq):
        """t ↦ e^{i sin(freq·t)}, whose log-derivative integrates to i sin(freq)."""
        return OperatorPath(lambda t: np.array([[np.exp(1j * np.sin(freq * t))]]),
                            lambda t: np.array([[1j * freq * np.cos(freq * t)
                                                 * np.exp(1j * np.sin(freq * t))]]))

    def test_unresolved_integrand_does_not_converge(self):
        # e^{i sin(10000 t)} oscillates past every allowed order
        with pytest.raises(NumericalError, match="did not converge"):
            path_log_det(self.oscillating_path(10000.0))

    def test_oscillation_resolved_below_the_top_rung(self):
        # e^{i sin(3000 t)} is resolved between orders 548 and 822, so the
        # rules of orders 822 and 1024, the last two rungs, agree
        val = path_log_det(self.oscillating_path(3000.0))
        assert abs(val - 1j * math.sin(3000.0)) < 1e-10

    def test_finite_difference_fallback(self):
        x = np.diag([0.7, -0.2]).astype(complex)
        p = OperatorPath(lambda t: scipy.linalg.expm(t * x))
        assert abs(path_log_det(p) - 0.5) < 1e-9


class TestCentralDifference:
    def test_dense_path(self):
        rng = np.random.default_rng(23)
        x = 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        for t in (0.0, 0.3, 1.0):
            got = central_difference(lambda s: scipy.linalg.expm(s * x), t)
            want = x @ scipy.linalg.expm(t * x)
            assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    def test_toeplitz_path(self):
        # t ↦ e^t·T(f) + t²·T(g) + sin(t)·K, K of finite rank, against its
        # exact derivative, through ToeplitzOp's own + − and scalar *
        rng, w = np.random.default_rng(29), 24
        f, g = random_loop(rng), random_loop(rng)
        corr = np.zeros((w, w), dtype=complex)
        corr[:5, :5] = rng.standard_normal((5, 5))
        k = ToeplitzOp(FourierLoop(), corr, w)
        tf, tg = toeplitz(f, w), toeplitz(g, w)
        value = lambda t: math.exp(t) * tf + t * t * tg + math.sin(t) * k
        for t in (0.0, 0.4, 1.0):
            got = central_difference(value, t)
            want = math.exp(t) * tf + 2 * t * tg + math.cos(t) * k
            assert isinstance(got, ToeplitzOp)
            err = np.abs(got.dense_section(w) - want.dense_section(w)).max()
            assert err < 1e-9 * np.abs(want.dense_section(w)).max()

    def test_both_paths_share_the_rule(self):
        x = np.array([[0.3, 1.0], [-0.2, 0.1j]])
        value = lambda t: scipy.linalg.expm(t * x)
        assert FD_STEP == 1e-4
        assert np.array_equal(OperatorPath(value).deriv(0.25), central_difference(value, 0.25))
        sigma = SimplexPath(2, lambda s, t: scipy.linalg.expm((s + 2 * t) * x), based=False)
        assert np.array_equal(sigma.partial(2, 0.25, 0.5),
                              central_difference(lambda t: sigma.at(0.25, t), 0.5))


class TestMultCommutatorDet:
    def test_equal_operands(self):
        rng = np.random.default_rng(19)
        u = exp_op(toeplitz(random_loop(rng), 64))
        assert abs(mult_commutator_det(u, u, u_inv=u.inv(), v_inv=u.inv()) - 1) < 1e-9

    def test_closed_form_small(self):
        a = FourierLoop({1: 0.1})
        b = FourierLoop({-1: 0.1})
        u = exp_op(toeplitz(a, 64))
        v = exp_op(toeplitz(b, 64))
        # exp(Σ k a_{−k} b_k) = exp(−0.01)
        assert abs(mult_commutator_det(u, v, u_inv=u.inv(), v_inv=v.inv())
                   - cmath.exp(-0.01)) < 1e-9

    def test_closed_form_random(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            a, b = random_loop(rng), random_loop(rng)
            u = exp_op(toeplitz(a, 64))
            v = exp_op(toeplitz(b, 64))
            expected = cmath.exp(commutator_trace_closed(a, b))
            assert abs(mult_commutator_det(u, v, u_inv=u.inv(), v_inv=v.inv())
                       - expected) < 1e-8

    def test_skew_symmetry(self):
        rng = np.random.default_rng(29)
        a, b = random_loop(rng), random_loop(rng)
        u = exp_op(toeplitz(a, 64))
        v = exp_op(toeplitz(b, 64))
        u_inv, v_inv = u.inv(), v.inv()
        assert abs(mult_commutator_det(u, v, u_inv=u_inv, v_inv=v_inv)
                   * mult_commutator_det(v, u, u_inv=v_inv, v_inv=u_inv) - 1) < 1e-9

    def test_exact_exponential_inverses_match_inv(self):
        rng = np.random.default_rng(37)
        for _ in range(3):
            a, b = random_loop(rng), random_loop(rng)
            u = exp_op(toeplitz(a, 64))
            v = exp_op(toeplitz(b, 64))
            via_inv = mult_commutator_det(u, v, u_inv=u.inv(), v_inv=v.inv())
            exact = mult_commutator_det(u, v, u_inv=exp_op(toeplitz(a.neg(), 64)),
                                        v_inv=exp_op(toeplitz(b.neg(), 64)))
            assert abs(exact - via_inv) <= 1e-10 * abs(via_inv)
            assert abs(exact - cmath.exp(commutator_trace_closed(a, b))) < 1e-8

    def test_inverses_are_required(self):
        u = exp_op(toeplitz(FourierLoop({1: 0.1}), 64))
        with pytest.raises(TypeError):
            mult_commutator_det(u, u)

    def test_exact_inverses_skip_numerical_inverse(self, monkeypatch):
        a, b = FourierLoop({1: 0.1}), FourierLoop({-1: 0.1})
        u, v = exp_op(toeplitz(a, 64)), exp_op(toeplitz(b, 64))
        u_inv, v_inv = exp_op(toeplitz(a.neg(), 64)), exp_op(toeplitz(b.neg(), 64))

        def no_inverse(self):
            raise AssertionError("ToeplitzOp.inv called")

        monkeypatch.setattr(ToeplitzOp, "inv", no_inverse)
        val = mult_commutator_det(u, v, u_inv=u_inv, v_inv=v_inv)
        assert abs(val - cmath.exp(-0.01)) < 1e-9

    def test_finite_matrix_blindness(self):
        # the same quantity computed on bare finite sections is exactly 1,
        # which is why corrections are tracked structurally
        rng = np.random.default_rng(31)
        a, b = random_loop(rng), random_loop(rng)
        u = exp_op(toeplitz(a, 64)).dense_section(64)
        v = exp_op(toeplitz(b, 64)).dense_section(64)
        finite = np.linalg.det(u @ v @ np.linalg.inv(u) @ np.linalg.inv(v))
        assert abs(finite - 1) < 1e-8
