import cmath

import numpy as np
import pytest
import scipy.linalg

from fredk2 import InvariantViolation, NumericalError
from fredk2.cyclic_chains import BlockOp
from fredk2.fourier_loops import FourierLoop
from fredk2.fredholm import (
    OperatorPath,
    det1p,
    det_exp_pair,
    det_exp_pair_verify,
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

    def test_unresolved_integrand_does_not_converge(self):
        # e^{i sin(3000 t)} oscillates past every allowed order
        p = OperatorPath(lambda t: np.array([[np.exp(1j * np.sin(3000.0 * t))]]),
                         lambda t: np.array([[3000j * np.cos(3000.0 * t)
                                              * np.exp(1j * np.sin(3000.0 * t))]]))
        with pytest.raises(NumericalError, match="did not converge"):
            path_log_det(p)

    def test_finite_difference_fallback(self):
        x = np.diag([0.7, -0.2]).astype(complex)
        p = OperatorPath(lambda t: scipy.linalg.expm(t * x))
        assert abs(path_log_det(p) - 0.5) < 1e-9


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
