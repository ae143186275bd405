import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fredk2 import Block3, TwoByTwoOp
from fredk2._errors import InputError, InvariantViolation, NumericalError
from fredk2.cyclic_chains import CyclicChain, tau_cocycle
from fredk2.fourier_loops import FourierLoop, LoopLog, zero_loop
from fredk2.invariants import (
    Diag3Label,
    LabelChain,
    LoopLabel,
    SteinbergSymbol,
    d12,
    d13,
    det_invariant_closed,
    det_invariant_integral,
    det_invariant_operator,
    f_commutator_schatten2,
    h2_psi_representative,
    h2_representative_det,
    hankel_op,
    mult_character,
    relative_boundary_trace,
    rho,
    rho_z,
    rho_zinv,
    steinberg_to_h2_cycle,
    t1_section,
    w0_representative,
)
from fredk2 import invariants
from fredk2.toeplitz_calculus import (
    ToeplitzOp,
    commutator_trace_closed,
    coshift_op,
    exp_op,
    identity_op,
    mul,
    schatten2_commutator_F,
    shift_op,
    toeplitz,
    wiener_hopf_pair,
)
from fredk2.fredholm import det1p, mult_commutator_det


def rand_log(rng, band=6, mag=0.3, terms=4):
    ks = rng.choice(np.arange(-band, band + 1), size=terms, replace=False)
    return FourierLoop({int(k): complex(rng.uniform(-mag, mag),
                                        rng.uniform(-mag, mag)) for k in ks})


def rand_symbol(rng, band=6, mag=0.3, wind=3):
    return SteinbergSymbol(
        LoopLog(int(rng.integers(-wind, wind + 1)), rand_log(rng, band, mag)),
        LoopLog(int(rng.integers(-wind, wind + 1)), rand_log(rng, band, mag)))


def corpus_log(rng, band=6, mag=0.3, max_terms=4):
    """A log from the acceptance corpus distribution: 1..4 terms at
    distinct |k| <= 6, |c| in [0.05, 0.3], uniform phase."""
    ks = rng.choice(np.arange(-band, band + 1),
                    size=rng.integers(1, max_terms + 1), replace=False)
    return FourierLoop({int(k): rng.uniform(0.05, mag)
                        * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                        for k in ks})


def corpus_symbols(seed, count=8):
    rng = np.random.default_rng(seed)
    return [SteinbergSymbol(LoopLog(int(rng.integers(-3, 4)), corpus_log(rng)),
                            LoopLog(int(rng.integers(-3, 4)), corpus_log(rng)))
            for _ in range(count)]


def exp_lifts(a, w):
    """The dense-exponential lifts e^{T_a}, e^{−T_a}, independent of
    wiener_hopf_pair."""
    return exp_op(ToeplitzOp(a, None, w)), exp_op(ToeplitzOp(a.neg(), None, w))


def cross_rep(u, u_inv, w):
    """S U S* U⁻¹ + (1 − SS*) U⁻¹."""
    s, st_ = shift_op(w), coshift_op(w)
    p0 = identity_op(w).sub(mul(s, st_))
    return mul(mul(mul(s, u), st_), u_inv).add(mul(p0, u_inv))


def op_dev(x, y):
    return x.sub(y).op_norm_est()


def block2_dev(x, y):
    return max(op_dev(x.block(i, j), y.block(i, j))
               for i in (1, 2) for j in (1, 2))


CONSTANT_SPLIT_SYMBOLS = pytest.mark.parametrize("sym", [
    # the cross determinant e^{−34.5} is tiny
    SteinbergSymbol(LoopLog(0, FourierLoop({0: -34.5})), LoopLog(1, zero_loop())),
    # e^{20 − 0.3z} is too large for FourierLoop.exp's grid
    SteinbergSymbol(LoopLog(0, FourierLoop({0: -20.0, 1: 0.3})),
                    LoopLog(1, zero_loop())),
    # the same e^{±20} in the Helton–Howe part, where a₀ cancels
    SteinbergSymbol(LoopLog(0, FourierLoop({0: -20.0, 1: 0.3})),
                    LoopLog(0, FourierLoop({-1: 0.2}))),
], ids=["tiny_cross_det", "large_constant", "large_constant_helton_howe"])


class TestSteinbergSymbol:
    def test_requires_factored_loops(self):
        with pytest.raises(InputError, match="factored"):
            SteinbergSymbol(FourierLoop({1: 1.0}), LoopLog(0, zero_loop()))

    def test_from_loops_factorizes(self):
        alpha = FourierLoop({0: 0.2, 1: 0.1}).exp().shift(2)
        beta = FourierLoop({-1: 0.3}).exp()
        sym = SteinbergSymbol.from_loops(alpha, beta)
        assert sym.u.winding == 2
        assert sym.v.winding == 0
        assert alpha.sub(sym.u.reconstruct()).l1() < 1e-12
        assert beta.sub(sym.v.reconstruct()).l1() < 1e-12

    def test_from_loops_pure_powers(self):
        sym = SteinbergSymbol.from_loops(FourierLoop({2: 1.0}), FourierLoop({1: 1.0}))
        assert (sym.u.winding, sym.v.winding) == (2, 1)
        assert abs(det_invariant_closed(sym) - 1.0) < 1e-12

    def test_swap(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(2, FourierLoop({1: 0.1})))
        sw = sym.swap()
        assert sw.u.winding == 2 and sw.v.winding == 1


class TestRho:
    def test_rho_z_blocks(self):
        w = 32
        r = rho_z(w)
        s, st = shift_op(w), coshift_op(w)
        p0 = identity_op(w).sub(mul(s, st))
        assert op_dev(r.block(1, 1), s) == 0.0
        assert op_dev(r.block(1, 2), p0) == 0.0
        assert r.block(2, 1).symbol.is_zero()
        assert not np.any(r.block(2, 1).correction)
        assert op_dev(r.block(2, 2), st) == 0.0

    def test_rho_z_times_rho_zinv_is_identity(self):
        w = 32
        prod = rho_z(w).mul(rho_zinv(w))
        one = identity_op(w)
        zer = FourierLoop({})
        assert prod.block(1, 1).symbol.sub(one.symbol).is_zero()
        assert not np.any(prod.block(1, 1).correction)
        for i, j in ((1, 2), (2, 1)):
            assert prod.block(i, j).symbol.sub(zer).is_zero()
            assert not np.any(prod.block(i, j).correction)
        assert prod.block(2, 2).symbol.sub(one.symbol).is_zero()
        assert not np.any(prod.block(2, 2).correction)

    def test_rho_constant_is_scalar_identity(self):
        r = rho(FourierLoop({0: 2.5}), 16)
        assert op_dev(r.block(1, 1), identity_op(16).scalar_mul(2.5)) == 0.0
        assert op_dev(r.block(2, 2), identity_op(16).scalar_mul(2.5)) == 0.0
        assert not np.any(r.block(1, 2).correction)
        assert not np.any(r.block(2, 1).correction)

    def test_rho_power_multiplicative_exact(self):
        w = 64
        for k in range(-3, 4):
            for l in range(-3, 4):
                rk = rho(FourierLoop({k: 1.0}), w)
                rl = rho(FourierLoop({l: 1.0}), w)
                rkl = rho(FourierLoop({k + l: 1.0}), w)
                prod = rk.mul(rl)
                for i in (1, 2):
                    for j in (1, 2):
                        got, want = prod.block(i, j), rkl.block(i, j)
                        assert got.symbol.sub(want.symbol).is_zero()
                        assert np.array_equal(got.correction, want.correction)

    def test_rho_multiplicative_general(self, rng=np.random.default_rng(21)):
        w = 64
        for _ in range(5):
            f, g = rand_log(rng, band=4), rand_log(rng, band=4)
            dev = block2_dev(rho(f, w).mul(rho(g, w)), rho(f.mul(g), w))
            assert dev < 1e-12

    def test_rho_symbol_compression(self):
        f = FourierLoop({-2: 0.3, 1: 0.5})
        r = rho(f, 32)
        assert r.block(1, 1).symbol.sub(f).is_zero()
        assert r.block(2, 2).symbol.sub(f.reflect()).is_zero()

    def test_schatten2_matches_closed_form(self, rng=np.random.default_rng(5)):
        assert f_commutator_schatten2(rho(FourierLoop({1: 1.0}))) == 2.0
        for _ in range(5):
            f = rand_log(rng, band=5)
            via_blocks = f_commutator_schatten2(rho(f, 64))
            assert abs(via_blocks - schatten2_commutator_F(f)) < 1e-12

    def test_schatten2_rejects_symbol_mass_off_diagonal(self):
        w = 16
        bad = TwoByTwoOp(((identity_op(w), toeplitz(FourierLoop({1: 1.0}), w)),
                          (hankel_op(zero_loop(), w), identity_op(w))))
        with pytest.raises(InvariantViolation, match="Hilbert-Schmidt"):
            f_commutator_schatten2(bad)

    def test_pair_defect_must_have_zero_symbol(self):
        w = 16
        with pytest.raises(InvariantViolation, match="defect"):
            TwoByTwoOp(((identity_op(w), hankel_op(zero_loop(), w)),
                        (hankel_op(zero_loop(), w), identity_op(w))),
                       first=toeplitz(FourierLoop({1: 1.0}), w))

    def test_t1_section_and_products_keep_pairing(self):
        w = 32
        x = t1_section(rho(FourierLoop({1: 0.4, -1: 0.2}), w))
        y = t1_section(rho(FourierLoop({2: 0.1}), w))
        assert x.first is x.block(1, 1)
        prod = x.mul(y)
        assert prod.first is not None
        assert prod.first.symbol.sub(prod.block(1, 1).symbol).is_zero()


class TestDetInvariant:
    def test_z_z_is_minus_one(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
        assert det_invariant_closed(sym) == -1.0
        assert det_invariant_integral(sym) == -1.0
        assert abs(det_invariant_operator(sym) + 1.0) < 1e-8

    def test_exp_pair_closed_value(self):
        sym = SteinbergSymbol(LoopLog(0, FourierLoop({1: 0.1})),
                              LoopLog(0, FourierLoop({-1: 0.1})))
        assert abs(det_invariant_closed(sym) - math.exp(-0.01)) < 1e-15

    def test_unit_winding_pair_closed_value(self):
        sym = SteinbergSymbol(LoopLog(1, FourierLoop({1: 0.3})),
                              LoopLog(1, FourierLoop({-1: 0.2})))
        want = -math.exp(-0.06)
        assert abs(det_invariant_closed(sym) - want) < 1e-15
        assert abs(det_invariant_integral(sym) - want) < 1e-12

    def test_z_exp_operator_route(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()),
                              LoopLog(0, FourierLoop({0: 0.7})))
        assert abs(det_invariant_operator(sym) - math.exp(-0.7)) < 1e-10

    def test_w0_equals_exponential_product(self):
        # a different lift of the same commutator: e^{S T_c S*} e^{−T_c}
        w = 128
        c = FourierLoop({0: 0.2, 1: 0.15, -2: 0.1})
        s, st_ = shift_op(w), coshift_op(w)
        scs = mul(mul(s, toeplitz(c, w)), st_)
        alt = mul(exp_op(scs), exp_op(toeplitz(c.neg(), w)))
        want = det1p(alt)
        assert abs(det1p(w0_representative(c, w)) - want) <= 1e-10 * abs(want)

    def test_w0_is_wiener_hopf_commutator(self):
        w = 128
        c = FourierLoop({0: 0.2, 1: 0.15, -2: 0.1})
        got, want = w0_representative(c, w), cross_rep(*wiener_hopf_pair(c, w), w)
        assert got.symbol.coeffs == want.symbol.coeffs
        assert np.array_equal(got.correction, want.correction)
        assert got.tail_bound == want.tail_bound

    def test_band4_mixed_windings(self, rng=np.random.default_rng(11)):
        sym = SteinbergSymbol(LoopLog(2, rand_log(rng, band=4)),
                              LoopLog(-1, rand_log(rng, band=4)))
        dc = det_invariant_closed(sym)
        assert abs(det_invariant_operator(sym) - dc) < 1e-8 * abs(dc)

    def test_three_route_corpus(self, rng=np.random.default_rng(42)):
        for _ in range(8):
            sym = rand_symbol(rng)
            dc = det_invariant_closed(sym)
            assert abs(det_invariant_integral(sym) - dc) <= 1e-10 * abs(dc)
            assert abs(det_invariant_operator(sym) - dc) <= 1e-8 * abs(dc)

    def test_bilinearity_closed(self, rng=np.random.default_rng(3)):
        for _ in range(5):
            n1, n2, m = (int(k) for k in rng.integers(-2, 3, size=3))
            a1, a2, b = (rand_log(rng, band=4) for _ in range(3))
            v = LoopLog(m, b)
            left = det_invariant_closed(
                SteinbergSymbol(LoopLog(n1 + n2, a1.add(a2)), v))
            right = (det_invariant_closed(SteinbergSymbol(LoopLog(n1, a1), v))
                     * det_invariant_closed(SteinbergSymbol(LoopLog(n2, a2), v)))
            assert abs(left - right) < 1e-9 * abs(right)

    def test_skew_symmetry(self, rng=np.random.default_rng(9)):
        for _ in range(5):
            sym = rand_symbol(rng, band=4)
            prod = det_invariant_closed(sym) * det_invariant_closed(sym.swap())
            assert abs(prod - 1.0) < 1e-12
        sym = rand_symbol(rng, band=3, wind=2)
        prod = det_invariant_operator(sym) * det_invariant_operator(sym.swap())
        assert abs(prod - 1.0) < 1e-8

    def test_helton_howe_reduction(self, rng=np.random.default_rng(17)):
        w = 128
        for _ in range(3):
            a, b = rand_log(rng, band=4), rand_log(rng, band=4)
            sym = SteinbergSymbol(LoopLog(0, a), LoopLog(0, b))
            direct = mult_commutator_det(exp_op(toeplitz(a, w)),
                                         exp_op(toeplitz(b, w)))
            want = cmath.exp(commutator_trace_closed(a, b))
            assert abs(det_invariant_operator(sym, window=w) - want) < 1e-8 * abs(want)
            assert abs(direct - want) < 1e-8 * abs(want)

    def test_operator_route_uses_exact_inverses(self, monkeypatch):
        def no_inverse(self):
            raise AssertionError("ToeplitzOp.inv called")

        monkeypatch.setattr(ToeplitzOp, "inv", no_inverse)
        a, b = FourierLoop({1: 0.2, -2: 0.1}), FourierLoop({-1: 0.3})
        sym = SteinbergSymbol(LoopLog(1, a), LoopLog(-2, b))
        want = det_invariant_closed(sym)
        assert abs(det_invariant_operator(sym, window=64) - want) < 1e-8 * abs(want)

    def test_operator_and_h2_routes_call_no_expm(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def no_exp(self):
            raise AssertionError("ToeplitzOp.exp called")

        monkeypatch.setattr(ToeplitzOp, "exp", no_exp)
        for name in ("expm", "lu_factor"):
            monkeypatch.setattr(scipy.linalg, name,
                                counted(name, getattr(scipy.linalg, name)))
        a, b = FourierLoop({1: 0.2, -2: 0.1}), FourierLoop({-1: 0.3})
        sym = SteinbergSymbol(LoopLog(1, a), LoopLog(-2, b))
        # c = n·b − m·a = b + 2a is nonzero, so w0 and both Helton–Howe
        # lifts are built
        assert not b.add(a.scalar_mul(2)).is_zero()
        want = det_invariant_closed(sym)
        assert abs(det_invariant_operator(sym, window=64) - want) < 1e-8 * abs(want)
        assert abs(h2_representative_det(sym, window=48) - want) < 1e-9 * abs(want)
        assert calls == []

    @CONSTANT_SPLIT_SYMBOLS
    @pytest.mark.parametrize("w", [64, 256])
    def test_constant_split_keeps_relative_accuracy(self, sym, w):
        want = det_invariant_closed(sym)
        assert abs(det_invariant_operator(sym, window=w) - want) <= 1e-12 * abs(want)

    @CONSTANT_SPLIT_SYMBOLS
    @pytest.mark.parametrize("w", [32, 64])
    def test_h2_constant_split_keeps_relative_accuracy(self, sym, w):
        want = det_invariant_closed(sym)
        assert abs(h2_representative_det(sym, window=w) - want) <= 1e-12 * abs(want)

    def test_overflowing_constant_rejected(self):
        # c₀ = −1380: e^{−c₀} is past the largest float
        sym = SteinbergSymbol(LoopLog(0, FourierLoop({0: 690.0})), LoopLog(2, zero_loop()))
        with pytest.raises(NumericalError, match="overflows"):
            det_invariant_operator(sym, window=64)

    @pytest.mark.parametrize("sym", [
        # alpha = 10·z, beta = z^15: c = −15·ln 10, e^{T_c} = 1e-15·I
        SteinbergSymbol(LoopLog(1, FourierLoop({0: math.log(10.0)})),
                        LoopLog(15, zero_loop())),
        SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(0, FourierLoop({0: -34.5}))),
        # l1 8, real part spanning [−8, 4.5]: e^{T_c} is ill conditioned
        SteinbergSymbol(LoopLog(1, zero_loop()),
                        LoopLog(0, FourierLoop({-2: 2.0, -1: 2.0, 1: 2.0, 2: 2.0}))),
        SteinbergSymbol(LoopLog(0, FourierLoop({-1: 4j, 1: 4.0})),
                        LoopLog(0, FourierLoop({1: 0.2}))),
    ], ids=["constant_c_1e-15", "constant_c_-34.5", "cross_l1_8", "helton_howe_l1_8"])
    def test_operator_route_at_large_exponents(self, sym):
        want = det_invariant_closed(sym)
        assert abs(det_invariant_operator(sym, window=64) - want) < 1e-8 * abs(want)

    def test_h2_route_needs_no_single_exponential(self, monkeypatch):
        def no_exp(self):
            raise AssertionError("ToeplitzOp.exp called")

        monkeypatch.setattr(ToeplitzOp, "exp", no_exp)
        sym = SteinbergSymbol(LoopLog(1, FourierLoop({1: 0.2, -1: 0.1})),
                              LoopLog(-1, FourierLoop({2: 0.15})))
        dc = det_invariant_closed(sym)
        assert abs(h2_representative_det(sym, window=48) - dc) < 1e-9 * abs(dc)


class TestLiftIndependence:
    """The determinants do not depend on which invertible lifts are used:
    the Wiener–Hopf lifts of the routes against dense-exponential lifts."""

    @pytest.mark.parametrize("sym", corpus_symbols(20261018), ids=range(8))
    def test_operator_route_parts(self, sym):
        w = 128
        n, a, m, b = sym.u.winding, sym.u.log_part, sym.v.winding, sym.v.log_part
        c = invariants._nonconstant(b.scalar_mul(n).sub(a.scalar_mul(m)))
        want = det1p(cross_rep(*exp_lifts(c, w), w))
        got = det1p(w0_representative(c, w))
        assert abs(got - want) <= 1e-10 * abs(want)
        a, b = invariants._nonconstant(a), invariants._nonconstant(b)
        (ea, ea_inv), (eb, eb_inv) = exp_lifts(a, w), exp_lifts(b, w)
        want = mult_commutator_det(ea, eb, u_inv=ea_inv, v_inv=eb_inv)
        (ea, ea_inv), (eb, eb_inv) = wiener_hopf_pair(a, w), wiener_hopf_pair(b, w)
        got = mult_commutator_det(ea, eb, u_inv=ea_inv, v_inv=eb_inv)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("sym", corpus_symbols(20261019), ids=range(8))
    def test_h2_route(self, sym, monkeypatch):
        got = h2_representative_det(sym, window=32)
        monkeypatch.setattr(invariants, "wiener_hopf_pair", exp_lifts)
        want = h2_representative_det(sym, window=32)
        assert abs(got - want) <= 1e-10 * abs(want)


small_logs = st.dictionaries(
    st.integers(-4, 4),
    st.complex_numbers(max_magnitude=0.25, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=4).map(FourierLoop)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(a=small_logs, b=small_logs, n=st.integers(-1, 1), m=st.integers(-1, 1))
def test_wiener_hopf_lift_properties(a, b, n, m):
    w = 64
    u, u_inv = wiener_hopf_pair(a, w)
    for x, y in ((u, u_inv), (u_inv, u)):
        resid = x.mul(y).sub(identity_op(w))
        assert resid.symbol.l1() <= 1e-12
        assert np.abs(resid.correction).max() <= 1e-12
    sym = SteinbergSymbol(LoopLog(n, a), LoopLog(m, b))
    prod = (det_invariant_operator(sym, window=w)
            * det_invariant_operator(sym.swap(), window=w))
    assert abs(prod - 1.0) <= 1e-9


class TestMultCharacter:
    def test_z_z_character(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
        assert mult_character(sym) == complex(0.0, math.pi)

    def test_z_exp_character(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()),
                              LoopLog(0, FourierLoop({0: 0.4})))
        assert abs(mult_character(sym) + 0.4) < 1e-15

    def test_identity_symbol_trivial(self):
        sym = SteinbergSymbol(LoopLog(0, zero_loop()),
                              LoopLog(2, FourierLoop({1: 0.3})))
        assert mult_character(sym) == 0.0

    def test_branch_reduction(self):
        sym = SteinbergSymbol(LoopLog(0, FourierLoop({0: 5.0j})),
                              LoopLog(1, zero_loop()))
        val = mult_character(sym)
        assert -math.pi < val.imag <= math.pi
        assert abs(val.imag - (5.0 - 2.0 * math.pi)) < 1e-15

    def test_exp_character_matches_closed(self, rng=np.random.default_rng(23)):
        for _ in range(8):
            sym = rand_symbol(rng)
            dc = det_invariant_closed(sym)
            assert abs(cmath.exp(mult_character(sym)) - dc) <= 1e-10 * abs(dc)
            assert -math.pi < mult_character(sym).imag <= math.pi


class TestCocycleBridge:
    def test_tau1_equals_relative_boundary_trace(self, rng=np.random.default_rng(31)):
        w = 64
        for _ in range(10):
            terms = []
            expected = 0j
            for _ in range(rng.integers(1, 4)):
                f, g = rand_log(rng, band=3), rand_log(rng, band=3)
                co = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                terms.append((co, (rho(f, w), rho(g, w))))
                expected += -co * commutator_trace_closed(f, g)
            chain = CyclicChain(1, terms)
            lhs = tau_cocycle(1, chain)
            rhs = relative_boundary_trace(chain)
            assert abs(lhs - rhs) < 1e-9
            assert abs(rhs - expected) < 1e-9

    def test_degree_guard(self):
        w = 16
        x = rho(FourierLoop({1: 0.1}), w)
        chain = CyclicChain(2, [(1.0, (x, x, x))])
        with pytest.raises(InputError, match="degree-1"):
            relative_boundary_trace(chain)

    def test_empty_chain_traces_to_zero(self):
        assert relative_boundary_trace(CyclicChain(1, [])) == 0j


class MatLabel:
    """Exact integer 2x2 matrix label for non-commuting test inputs."""

    def __init__(self, a, b, c, d):
        self.m = (a, b, c, d)

    def mul(self, other):
        a, b, c, d = self.m
        e, f, g, h = other.m
        return MatLabel(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self):
        a, b, c, d = self.m
        det = a * d - b * c
        assert det in (1, -1)
        return MatLabel(d * det, -b * det, -c * det, a * det)

    def __eq__(self, other):
        return isinstance(other, MatLabel) and self.m == other.m

    def __hash__(self):
        return hash(self.m)


class TestH2Cycle:
    def test_identity_inputs_reduce_to_zero(self):
        chain = steinberg_to_h2_cycle(LoopLog(0, zero_loop()), LoopLog(0, zero_loop()))
        assert chain.is_zero()

    def test_label_arithmetic(self):
        x = LoopLabel(2, FourierLoop({1: 0.5}))
        assert x.mul(x.inv()) == LoopLabel.identity()
        assert hash(x.mul(x.inv())) == hash(LoopLabel.identity())
        y = LoopLabel(1, FourierLoop({-1: 0.25}))
        assert x.mul(y) == y.mul(x)

    def test_cycle_cells_and_boundary(self):
        u = LoopLog(1, zero_loop())
        v = LoopLog(0, FourierLoop({0: 0.3}))
        chain = steinberg_to_h2_cycle(u, v)
        assert sorted(chain.coeffs.values()) == [-1, 1]
        assert chain.boundary().is_zero()
        lu, lv = LoopLabel.from_log(u), LoopLabel.from_log(v)
        assert chain.coeffs[(d13(lv), d12(lu))] == 1
        assert chain.coeffs[(d12(lu), d13(lv))] == -1

    def test_accepts_raw_loops(self):
        alpha = FourierLoop({1: 1.0})
        beta = FourierLoop({0: 0.2}).exp()
        chain = steinberg_to_h2_cycle(alpha, beta)
        assert not chain.is_zero()
        assert chain.boundary().is_zero()

    def test_noncommuting_inputs_rejected(self):
        u = MatLabel(1, 1, 0, 1)
        v = MatLabel(1, 0, 1, 1)
        with pytest.raises(InputError, match="do not commute"):
            steinberg_to_h2_cycle(u, v)

    def test_diag_labels(self):
        x = LoopLabel(1, zero_loop())
        assert d12(x).entries[1] == x.inv()
        assert d13(x).entries[1] == LoopLabel.identity()
        assert d12(x).mul(d12(x).inv()) == d12(LoopLabel.identity())


class TestH2OperatorLift:
    def test_stabilized_shift_lift_inverts_exactly(self):
        from fredk2.invariants import _lift
        w = 32
        one = identity_op(w)
        for k in (2, 3):
            fwd, bwd = _lift(k, LoopLog(1, zero_loop()), w)
            prod = fwd.mul(bwd)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    blk = prod.block(i, j)
                    want = one if i == j else None
                    if want is None:
                        assert blk.symbol.is_zero()
                        assert not np.any(blk.correction)
                    else:
                        assert blk.symbol.sub(want.symbol).is_zero()
                        assert not np.any(blk.correction)

    @pytest.mark.parametrize("ll", [
        LoopLog(-1, zero_loop()),
        LoopLog(2, FourierLoop({1: 0.2, -2: 0.1j})),
        LoopLog(-1, FourierLoop({0: 0.1, -1: 0.3})),
    ], ids=["winding_-1", "winding_2_log", "winding_-1_log"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_lift_inverts(self, k, ll):
        w = 32
        one = identity_op(w)
        fwd, bwd = invariants._lift(k, ll, w)
        eye = Block3.diagonal(one, one, one, w)
        assert fwd.mul(bwd).deviation_from(eye) <= 1e-12
        assert bwd.mul(fwd).deviation_from(eye) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_lift_leaves_the_other_index_alone(self, k):
        w = 32
        other = 5 - k
        for x in invariants._lift(k, LoopLog(-2, FourierLoop({1: 0.2, -1: 0.1})), w):
            blk = x.block(other, other)
            assert blk.symbol.sub(identity_op(w).symbol).is_zero()
            assert not np.any(blk.correction) and blk.tail_bound == 0.0
            for j in (1, 2, 3):
                if j == other:
                    continue
                for blk in (x.block(other, j), x.block(j, other)):
                    assert blk.symbol.is_zero()
                    assert not np.any(blk.correction) and blk.tail_bound == 0.0

    def test_lift_products_skip_the_identity_index(self, monkeypatch):
        calls = []
        orig = ToeplitzOp.mul

        def counted(self, other):
            calls.append(1)
            return orig(self, other)

        monkeypatch.setattr(ToeplitzOp, "mul", counted)
        sym = SteinbergSymbol(LoopLog(2, FourierLoop({1: 0.2})),
                              LoopLog(-3, FourierLoop({-1: 0.1})))
        h2_psi_representative(sym, 32)
        assert len(calls) <= 165

    def test_cross_symbol_collapses_to_w0(self):
        w = 64
        b = FourierLoop({0: 0.3, 1: 0.2, -1: 0.1})
        sym = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(0, b))
        rep = h2_psi_representative(sym, w)
        target = Block3.diagonal(w0_representative(b, w), identity_op(w),
                                 identity_op(w), w)
        assert rep.deviation_from(target) < 1e-9

    def test_h2_det_z_z(self):
        sym = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
        assert abs(h2_representative_det(sym, window=32) + 1.0) < 1e-10

    def test_h2_det_matches_closed(self, rng=np.random.default_rng(77)):
        for _ in range(3):
            sym = rand_symbol(rng, band=2, mag=0.2, wind=2)
            dc = det_invariant_closed(sym)
            dh = h2_representative_det(sym, window=48)
            assert abs(dh - dc) < 1e-9 * abs(dc)

    def test_swapped_cycle_dets_multiply_to_one(self, rng=np.random.default_rng(13)):
        sym = SteinbergSymbol(LoopLog(1, rand_log(rng, band=2, mag=0.2)),
                              LoopLog(-1, rand_log(rng, band=2, mag=0.2)))
        prod = (h2_representative_det(sym, window=48)
                * h2_representative_det(sym.swap(), window=48))
        assert abs(prod - 1.0) < 1e-8

    def test_block3_validation(self):
        with pytest.raises(InputError, match="square"):
            Block3(((identity_op(8), identity_op(8)),))
