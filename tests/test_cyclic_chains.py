import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import roots_legendre

import fredk2
from fredk2._errors import InputError, NumericalError
from fredk2.cyclic_chains import (
    Block2,
    BlockOp,
    CyclicChain,
    FormalChain,
    SimplexPath,
    based_zero_face,
    cyclic_b,
    cyclic_project,
    cyclic_t,
    dN,
    face,
    gamma_log,
    tau_cocycle,
    tilde_gamma,
)
from fredk2.fourier_loops import FourierLoop, zero_loop
from fredk2.fredholm import OperatorPath, path_log_det
from fredk2.toeplitz_calculus import ToeplitzOp, identity_op, shift_op, zero_op


def rand_mat(rng, m, scale=0.5):
    return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


def two_exp_simplex(X, Y):
    """sigma(t1, t2) = exp(t1 X) exp(t2 Y) with explicit partials."""
    val = lambda t1, t2: expm(t1 * X) @ expm(t2 * Y)

    def part(i, t1, t2):
        if i == 1:
            return X @ expm(t1 * X) @ expm(t2 * Y)
        return expm(t1 * X) @ Y @ expm(t2 * Y)

    return SimplexPath(2, val, part)


def exp_line(X):
    return SimplexPath(1, lambda t: expm(t * X),
                       lambda _i, t: X @ expm(t * X))


def curved_line(X, Y):
    """sigma(t) = exp(t X) exp(t^2 Y), based, with explicit derivative."""
    val = lambda t: expm(t * X) @ expm(t * t * Y)

    def part(_i, t):
        return X @ expm(t * X) @ expm(t * t * Y) \
            + expm(t * X) @ (2.0 * t * Y) @ expm(t * t * Y)

    return SimplexPath(1, val, part)


def oscillating_line():
    """sigma(t) = e^{i sin(3000 t)} as a based 1x1 path; its log-derivative
    oscillates past every allowed quadrature order."""
    return SimplexPath(
        1, lambda t: np.array([[np.exp(1j * np.sin(3000.0 * t))]]),
        lambda _i, t: np.array([[3000j * np.cos(3000.0 * t)
                                 * np.exp(1j * np.sin(3000.0 * t))]]))


def unit_nodes(order):
    x, w = roots_legendre(order)
    return 0.5 * (x + 1.0), 0.5 * w


def line_rule(fn, order):
    """Fixed Gauss-Legendre rule of the given order for the integral of
    fn on [0, 1]."""
    nodes, weights = unit_nodes(order)
    return sum(w * fn(t) for t, w in zip(nodes, weights))


def oscillating_triangle():
    """sigma(t1, t2) = diag(e^{i sin(3000 t1)}, 1) e^{t2 Y} with Y the swap,
    based; its first log-derivative oscillates past every allowed order."""
    y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def phase(t1):
        return np.diag([np.exp(1j * np.sin(3000.0 * t1)), 1.0])

    def exp_y(t2):
        return np.cosh(t2) * np.eye(2) + np.sinh(t2) * y

    def part(i, t1, t2):
        if i == 1:
            return np.diag([3000j * np.cos(3000.0 * t1)
                            * np.exp(1j * np.sin(3000.0 * t1)), 0.0]) @ exp_y(t2)
        return phase(t1) @ y @ exp_y(t2)

    return SimplexPath(2, lambda t1, t2: phase(t1) @ exp_y(t2), part)


def line_log_reference(sig):
    """-integral of sigma' sigma^{-1} by the fixed rule of order 64."""
    return -line_rule(lambda t: sig.partial(1, t) @ np.linalg.inv(sig.at(t)), 64)


def rel_dev(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFaces:
    def test_constant_simplex(self):
        m = 3
        sig = SimplexPath(2, lambda t1, t2: np.eye(m, dtype=complex),
                          lambda i, t1, t2: np.zeros((m, m), dtype=complex))
        for i in range(3):
            f = face(i, sig)
            for t in (0.0, 0.3, 0.9):
                assert np.allclose(f.at(t), np.eye(m))
        chain = dN(sig)
        assert [c for c, _ in chain.terms] == [-1.0, 1.0, 1.0]

    def test_coordinate_restriction(self):
        rng = np.random.default_rng(7)
        X = rand_mat(rng, 3)
        sig = SimplexPath(2, lambda t1, t2: expm(t1 * X),
                          lambda i, t1, t2: X @ expm(t1 * X) if i == 1
                          else np.zeros((3, 3), dtype=complex))
        d2 = face(2, sig)
        d1 = face(1, sig)
        for t in (0.0, 0.25, 0.8, 1.0):
            assert np.allclose(d2.at(t), expm(t * X), atol=1e-12)
            assert np.allclose(d1.at(t), np.eye(3), atol=1e-12)
        # zeroth face translated: sigma(1-t, t) sigma(1,0)^{-1} = exp(-t X)
        p0 = based_zero_face(sig)
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(p0.at(t), expm(-t * X), atol=1e-10)

    def test_face_partials_match_finite_differences(self):
        rng = np.random.default_rng(11)
        X, Y = rand_mat(rng, 3), rand_mat(rng, 3)
        sig = two_exp_simplex(X, Y)
        fd = SimplexPath(2, sig.at)
        for i in (1, 2):
            for pt in ((0.3, 0.2), (0.5, 0.1)):
                assert np.allclose(sig.partial(i, *pt), fd.partial(i, *pt),
                                   atol=1e-8)

    def test_equalsigma_identity(self):
        # d0(d_j sigma) (d_j sigma(1))^{-1} equals the (j-1)-th normalized
        # face of d0(sigma) sigma(1)^{-1}, for j = 1, 2
        rng = np.random.default_rng(23)
        X, Y = rand_mat(rng, 4), rand_mat(rng, 4)
        sig = two_exp_simplex(X, Y)
        p = based_zero_face(sig)
        lhs1 = based_zero_face(face(1, sig))
        rhs1 = based_zero_face(p)
        assert np.allclose(lhs1, rhs1, atol=1e-10)
        lhs2 = based_zero_face(face(2, sig))
        rhs2 = face(1, p)
        assert np.allclose(lhs2, rhs2, atol=1e-10)

    def test_boundary_squares_to_zero(self):
        rng = np.random.default_rng(29)
        sig = two_exp_simplex(rand_mat(rng, 3), rand_mat(rng, 3))
        dd = dN(dN(sig))
        assert dd.n == 0
        assert np.linalg.norm(dd.materialize()) < 1e-10

    def test_based_line_boundary_vanishes(self):
        rng = np.random.default_rng(31)
        sig = exp_line(rand_mat(rng, 3))
        chain = dN(sig)
        assert chain.n == 0
        assert np.linalg.norm(chain.materialize()) < 1e-12

    def test_scaled_multiplies_non_unit_coefficients(self):
        # dN's coefficients are all +-1, where c * co and c / co agree
        sig = exp_line(np.zeros((2, 2), dtype=complex))
        assert FormalChain(1, [(0.5, sig)]).scaled(4).terms == [(2, sig)]

    def test_input_validation(self):
        sig = SimplexPath(1, lambda t: np.eye(2, dtype=complex))
        with pytest.raises(InputError):
            face(2, sig)
        with pytest.raises(InputError):
            SimplexPath(3, lambda *t: np.eye(2, dtype=complex))
        with pytest.raises(InputError):
            SimplexPath(1, lambda t: np.diag([2.0 + 0j, 1.0]))  # not based

    def test_based_check_on_operator_values(self):
        with pytest.raises(InputError, match="based simplex must start at the identity"):
            SimplexPath(1, lambda t: 2.0 * identity_op(16))
        w = 16
        corr = np.zeros((w, w), dtype=complex)
        corr[0, 0] = 0.4
        N = ToeplitzOp(zero_loop(), corr, window=w)
        one = identity_op(w)
        SimplexPath(1, lambda t: one + t * N, lambda _i, t: N)
        SimplexPath(1, lambda t: BlockOp.diagonal(one + t * N, one, w))
        with pytest.raises(InputError, match="based simplex must start at the identity"):
            SimplexPath(1, lambda t: BlockOp.diagonal(one, one + N, w))
        z = np.zeros((2, 2), dtype=complex)
        SimplexPath(1, lambda t: BlockOp([[np.eye(2), z], [z, np.eye(2)]]))
        with pytest.raises(InputError, match="based simplex must start at the identity"):
            SimplexPath(1, lambda t: BlockOp([[np.eye(2), z], [z, 2.0 * np.eye(2)]]))


class TestGammaLog:
    def test_exponential_line(self):
        rng = np.random.default_rng(37)
        X = rand_mat(rng, 4)
        chain = gamma_log(exp_line(X))
        assert chain.degree == 0
        assert len(chain.terms) == 1
        assert np.allclose(chain.terms[0][1][0], -X, atol=1e-12)

    def test_constant_one(self):
        chain = gamma_log(SimplexPath(1, lambda t: np.eye(3, dtype=complex)))
        assert np.linalg.norm(chain.materialize()) < 1e-13

    def test_exp_trace_inverts_endpoint_determinant(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            sig = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
            g = gamma_log(sig).materialize()
            val = np.exp(np.trace(g)) * np.linalg.det(sig.at(1.0))
            assert abs(val - 1.0) < 1e-9

    def test_triangle_against_brute_force(self):
        rng = np.random.default_rng(43)
        X, Y = rand_mat(rng, 4), rand_mat(rng, 4)
        sig = two_exp_simplex(X, Y)
        chain = gamma_log(sig)
        assert chain.degree == 1

        nodes, weights = unit_nodes(48)
        brute = np.zeros((16, 16), dtype=complex)
        for u, wu in zip(nodes, weights):
            for v, wv in zip(nodes, weights):
                t1, t2 = u, v * (1.0 - u)
                w = wu * wv * (1.0 - u)
                finv = np.linalg.inv(sig.at(t1, t2))
                a = sig.partial(1, t1, t2) @ finv
                b = sig.partial(2, t1, t2) @ finv
                brute += 0.5 * w * (np.kron(a, b) - np.kron(b, a))
        assert np.linalg.norm(chain.materialize() - brute) < 1e-9

    def test_singular_path_detected(self):
        sig = SimplexPath(1, lambda t: np.diag([1.0 + 0j, 1.0 - 2.0 * t]),
                          lambda _i, t: np.diag([0.0 + 0j, -2.0]))
        with pytest.raises(NumericalError):
            gamma_log(sig)

    def test_unresolved_line_does_not_converge(self):
        with pytest.raises(NumericalError, match="did not converge"):
            gamma_log(oscillating_line())

    def test_unresolved_triangle_does_not_converge(self):
        with pytest.raises(NumericalError, match="did not converge"):
            gamma_log(oscillating_triangle())

    def test_triangle_rule_stops_at_orders_6_and_9(self):
        # the first two rungs of gl_adaptive's ladder already agree
        rng = np.random.default_rng(43)
        sig = two_exp_simplex(rand_mat(rng, 4), rand_mat(rng, 4))
        value = sig.at
        nodes = []

        def counted(t1, t2):
            if (t1, t2) != (0.0, 0.0):  # the base point is no quadrature node
                nodes.append((t1, t2))
            return value(t1, t2)

        sig.at = counted
        gamma_log(sig)
        assert len(nodes) == 6 ** 2 + 9 ** 2

    def test_lines_match_order_64_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            sig = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
            got = gamma_log(sig).materialize()
            assert rel_dev(got, line_log_reference(sig)) < 1e-12

    def test_boundary_faces_match_order_64_rule(self):
        rng = np.random.default_rng(47)
        chain = dN(two_exp_simplex(rand_mat(rng, 4), rand_mat(rng, 4)))
        ref = sum(c * line_log_reference(f) for c, f in chain.terms)
        assert rel_dev(gamma_log(chain).materialize(), ref) < 1e-12

    def test_triangle_matches_order_128_rule(self):
        # A = X and B = e^{t1 X} Y e^{-t1 X} do not depend on t2, so the
        # triangle integral is the t1 integral weighted by 1 - t1
        rng = np.random.default_rng(43)
        X, Y = rand_mat(rng, 4), rand_mat(rng, 4)

        def slice_(t):
            b = expm(t * X) @ Y @ expm(-t * X)
            return 0.5 * (1.0 - t) * (np.kron(X, b) - np.kron(b, X))

        got = gamma_log(two_exp_simplex(X, Y)).materialize()
        assert rel_dev(got, line_rule(slice_, 128)) < 1e-12

    def test_triangle_matches_order_64_grid_on_benchmark_inputs(self):
        # X, Y of Frobenius norm 1.5 as in the chains benchmark; the
        # reference is the order-64 collapsed o x o rule, its integrand
        # written out from sigma = e^{t1 X} e^{t2 Y} over all 64^2 nodes
        u, wu = unit_nodes(64)
        t1, t2 = np.repeat(u, 64), (np.outer(1.0 - u, u)).ravel()
        w = (np.outer(wu * (1.0 - u), wu)).ravel()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            X, Y = (m * (1.5 / np.linalg.norm(m)) for m in (rand_mat(rng, 4, 1.0),
                                                            rand_mat(rng, 4, 1.0)))
            e1, e2 = expm(t1[:, None, None] * X), expm(t2[:, None, None] * Y)
            finv = np.linalg.inv(e1 @ e2)
            a, b = X @ e1 @ e2 @ finv, e1 @ Y @ e2 @ finv
            ab = np.einsum("n,nij,nkl->ikjl", 0.5 * w, a, b).reshape(16, 16)
            ref = ab - np.einsum("n,nij,nkl->ikjl", 0.5 * w, b, a).reshape(16, 16)
            got = gamma_log(two_exp_simplex(X, Y)).materialize()
            assert rel_dev(got, ref) < 1e-12

    def test_unbased_rejected(self):
        g = np.diag([2.0 + 0j, 1.0])
        sig = SimplexPath(1, lambda t: expm(t * np.eye(2)) @ g, based=False)
        with pytest.raises(InputError, match="based"):
            gamma_log(sig)


class TestBoundaryOfLogarithm:
    def test_b_gamma_anticommutes_with_dN(self):
        # with gamma_log taken verbatim from its defining integral, the
        # chain identity carries a minus sign: b(gamma(sigma)) equals
        # -(1/(n-1)) gamma(dN(sigma)) for n = 2
        rng = np.random.default_rng(47)
        X, Y = rand_mat(rng, 4), rand_mat(rng, 4)
        sig = two_exp_simplex(X, Y)
        lhs = cyclic_b(gamma_log(sig)).materialize()
        rhs = gamma_log(dN(sig)).materialize()
        scale = max(1.0, np.linalg.norm(lhs))
        assert np.linalg.norm(lhs + rhs) < 1e-7 * scale
        # the identity with a plus sign fails grossly for generic X, Y
        assert np.linalg.norm(lhs - rhs) > 0.01

    def test_b_gamma_closed_form(self):
        # b(gamma(sigma)) = -Y + integral_0^1 exp(tX) Y exp(-tX) dt
        rng = np.random.default_rng(53)
        X, Y = rand_mat(rng, 4), rand_mat(rng, 4)
        sig = two_exp_simplex(X, Y)
        lhs = cyclic_b(gamma_log(sig)).materialize()
        nodes, weights = unit_nodes(64)
        acc = -Y.astype(complex)
        for t, w in zip(nodes, weights):
            acc = acc + w * (expm(t * X) @ Y @ expm(-t * X))
        assert np.linalg.norm(lhs - acc) < 1e-8


# (make_a, make_b, equal) for CyclicChain.equals, one per branch
EQUALS_CASES = [
    (lambda e: CyclicChain(0, [(1.0, (e,))]), lambda e: CyclicChain(1, [(1.0, (e, e))]),
     False),
    (lambda e: CyclicChain(1, []), lambda e: CyclicChain(1, []), True),
    (lambda e: CyclicChain(0, []), lambda e: CyclicChain(0, [(1.0, (e,)), (-1.0, (e,))]),
     True),
    (lambda e: CyclicChain(0, [(1.0, (e,))]), lambda e: CyclicChain(0, []), False),
    (lambda e: CyclicChain(0, [(1.0, (e,))]), lambda e: CyclicChain(0, [(1.0, (e[:1],))]),
     False),
    (lambda e: CyclicChain(0, [(2.0, (e,))]), lambda e: CyclicChain(0, [(1.0, (e,))]), False),
]
EQUALS_IDS = ["degrees", "both-empty", "empty-and-zero", "empty-and-nonzero", "shapes",
              "values"]


class TestCyclicOperators:
    def rand_chain(self, rng, degree, m, nterms):
        return CyclicChain(degree, [
            (complex(rng.standard_normal()),
             tuple(rand_mat(rng, m) for _ in range(degree + 1)))
            for _ in range(nterms)])

    def test_b_degree_one_is_commutator(self):
        rng = np.random.default_rng(59)
        a0, a1 = rand_mat(rng, 3), rand_mat(rng, 3)
        out = cyclic_b(CyclicChain(1, [(1.0, (a0, a1))]))
        assert np.allclose(out.materialize(), a0 @ a1 - a1 @ a0, atol=1e-13)

    def test_t_squared_identity_degree_one(self):
        rng = np.random.default_rng(61)
        c = self.rand_chain(rng, 1, 3, 4)
        c2 = cyclic_t(cyclic_t(c))
        assert len(c2.terms) == len(c.terms)
        for (ca, xa), (cb, xb) in zip(c.terms, c2.terms):
            assert ca == cb
            for u, v in zip(xa, xb):
                assert np.array_equal(u, v)

    def test_b_squared_zero(self):
        rng = np.random.default_rng(67)
        c = self.rand_chain(rng, 3, 3, 5)
        raw = cyclic_b(cyclic_b(c)).materialize()
        assert np.linalg.norm(raw) < 1e-12 * max(1.0, np.linalg.norm(raw) + 1.0)
        projected = cyclic_b(cyclic_b(cyclic_project(c)))
        assert np.linalg.norm(projected.materialize()) < 1e-12

    def test_projection_idempotent(self):
        rng = np.random.default_rng(71)
        c = self.rand_chain(rng, 2, 3, 4)
        p1 = cyclic_project(c)
        p2 = cyclic_project(p1)
        assert np.linalg.norm(p1.materialize() - p2.materialize()) < 1e-13

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 2)),
                                        ((2, 3), (3, 1), (2, 2))])
    def test_materialize_is_the_kron_sum(self, shapes):
        rng = np.random.default_rng(79)
        terms = [(complex(rng.standard_normal(), rng.standard_normal()),
                  tuple(rng.standard_normal(s) + 1j * rng.standard_normal(s)
                        for s in shapes))
                 for _ in range(3)]
        want = None
        for c, x in terms:
            piece = x[0]
            for e in x[1:]:
                piece = np.kron(piece, e)
            want = c * piece if want is None else want + c * piece
        got = CyclicChain(len(shapes) - 1, terms).materialize()
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_b_descends_to_cyclic_quotient(self):
        rng = np.random.default_rng(73)
        c = self.rand_chain(rng, 2, 3, 4)
        assert cyclic_b(cyclic_project(c)).equals(cyclic_b(c))

    @pytest.mark.parametrize("make_a, make_b, equal", EQUALS_CASES, ids=EQUALS_IDS)
    def test_equals_cases(self, make_a, make_b, equal):
        e = np.eye(2, dtype=complex)
        assert make_a(e).equals(make_b(e)) == equal
        assert make_b(e).equals(make_a(e)) == equal

    @pytest.mark.parametrize("make_a, make_b, equal", EQUALS_CASES, ids=EQUALS_IDS)
    def test_equals_returns_a_python_bool(self, make_a, make_b, equal):
        e = np.eye(2, dtype=complex)
        assert make_a(e).equals(make_b(e)) is equal
        assert make_b(e).equals(make_a(e)) is equal

    def test_b_of_degree_zero_is_empty(self):
        out = cyclic_b(CyclicChain(0, [(1.0, (np.eye(2),))]))
        assert (out.degree, out.terms) == (0, [])

    def test_tensor_length_validation(self):
        with pytest.raises(InputError):
            CyclicChain(1, [(1.0, (np.eye(2),))])


class TestBlockOperators:
    """``@``, ``+``, ``-`` and scalar ``*`` on BlockOp are mul, add, sub and
    scalar_mul, over Toeplitz and over dense blocks."""

    @staticmethod
    def blocks(x):
        def key(b):
            if isinstance(b, np.ndarray):
                return b.shape, b.tobytes()
            return (b.corner.shape, b.corner.tobytes(), b.symbol.lo,
                    b.symbol.run.tobytes(), b.window, b.tail_bound)
        return ([key(b) for r in x.rows for b in r],
                None if x.first is None else key(x.first))

    def toeplitz_pair(self, rng):
        from fredk2.fourier_loops import FourierLoop
        w = 16

        def op(symbol):
            corr = np.zeros((w, w), dtype=complex)
            corr[:3, :4] = rand_mat(rng, 4)[:3]
            return ToeplitzOp(symbol, corr, w, 1e-12)

        def block():
            # zero symbols off the diagonal, so that products keep ``first``
            top = op(FourierLoop({0: 1.0, 1: 0.3 - 0.1j}))
            first = top.add(ToeplitzOp(zero_loop(), 0.2 * np.eye(w), w))
            return BlockOp([[top, op(zero_loop())],
                            [op(zero_loop()), op(FourierLoop({0: 1.0, -1: 0.2j}))]], first)

        return block(), block()

    def test_toeplitz_blocks(self):
        x, y = self.toeplitz_pair(np.random.default_rng(151))
        assert (x @ y).first is not None
        assert self.blocks(x @ y) == self.blocks(x.mul(y))
        assert self.blocks(x + y) == self.blocks(x.add(y))
        assert self.blocks(x - y) == self.blocks(x.sub(y))
        for c in (0.7 + 0.2j, np.complex128(0.7 + 0.2j)):
            assert self.blocks(c * x) == self.blocks(x.scalar_mul(c))

    def test_matmul_goes_through_mul(self, monkeypatch):
        # x @ y looks mul up when it runs, so a wrapper put on either class's
        # mul (a profiler's, say) sees every product
        x, y = self.toeplitz_pair(np.random.default_rng(151))
        calls = []
        for cls in (BlockOp, ToeplitzOp):
            def counted(self, other, mul=cls.mul, name=cls.__name__):
                calls.append(name)
                return mul(self, other)

            monkeypatch.setattr(cls, "mul", counted)
        x @ y
        # two block products for each of the four blocks, and one of the firsts
        assert (calls.count("BlockOp"), calls.count("ToeplitzOp")) == (1, 9)

    def test_dense_blocks(self):
        rng = np.random.default_rng(157)
        x, y = (BlockOp([[rand_mat(rng, 2) for _ in range(3)] for _ in range(3)])
                for _ in range(2))
        assert (x @ y).dense().tobytes() == x.mul(y).dense().tobytes()
        assert np.allclose((x @ y).dense(), x.dense() @ y.dense(), atol=1e-14)
        assert (x - y).dense().tobytes() == x.sub(y).dense().tobytes()
        assert (np.complex128(2j) * x).dense().tobytes() == (2j * x.dense()).tobytes()


class TestTauCocycle:
    def test_block_names_alias_one_type(self):
        assert fredk2.Block2 is fredk2.Block3 is fredk2.TwoByTwoOp is BlockOp
        assert Block2 is BlockOp

    def test_antidiagonal_pair(self):
        rng = np.random.default_rng(79)
        A, B = rand_mat(rng, 3), rand_mat(rng, 3)
        z = np.zeros((3, 3), dtype=complex)
        x0 = Block2(((z, A), (z, z)))
        x1 = Block2(((z, z), (B, z)))
        val = tau_cocycle(1, CyclicChain(1, [(1.0, (x0, x1))]))
        assert abs(val - np.trace(A @ B)) < 1e-12

    def test_diagonal_blocks_vanish(self):
        rng = np.random.default_rng(83)
        z = np.zeros((3, 3), dtype=complex)
        xs = [Block2(((rand_mat(rng, 3), z), (z, rand_mat(rng, 3)))) for _ in range(2)]
        assert tau_cocycle(1, CyclicChain(1, [(1.0, tuple(xs))])) == 0j

    def test_degree_mismatch(self):
        z = np.zeros((2, 2), dtype=complex)
        x = Block2(((z, z), (z, z)))
        c = CyclicChain(2, [(1.0, (x, x, x))])
        with pytest.raises(InputError, match="cocycle degree"):
            tau_cocycle(1, c)

    def rand_block(self, rng, m):
        return Block2(((rand_mat(rng, m), rand_mat(rng, m)),
                       (rand_mat(rng, m), rand_mat(rng, m))))

    def test_vanishes_on_boundaries(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            c = CyclicChain(2, [(complex(rng.standard_normal()),
                                 tuple(self.rand_block(rng, 3) for _ in range(3)))])
            val = tau_cocycle(1, cyclic_b(c))
            assert abs(val) < 1e-12

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(97)
        c = CyclicChain(1, [(1.3 - 0.2j, (self.rand_block(rng, 3),
                                          self.rand_block(rng, 3)))])
        assert abs(tau_cocycle(1, cyclic_t(c)) - tau_cocycle(1, c)) < 1e-13

    def test_higher_cocycle_against_dense_formula(self):
        rng = np.random.default_rng(101)
        m = 2
        terms = [(complex(rng.standard_normal()),
                  tuple(self.rand_block(rng, m) for _ in range(4)))
                 for _ in range(2)]
        val = tau_cocycle(2, CyclicChain(3, terms))

        E = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        z = np.zeros((m, m), dtype=complex)
        brute = 0j
        for co, xs in terms:
            prod = E.copy()
            for x in xs:
                off = Block2(((z, x.block(1, 2)), (x.block(2, 1), z))).dense()
                prod = prod @ off
            brute += co * np.trace(prod)
        brute *= -6.0  # (-1)^{p-1} (2p-1)!/(p-1)! at p = 2
        assert abs(val - brute) < 1e-12


def toeplitz_pair(w=64):
    """T(e^{0.3z + 0.2/z}) + t·K for two corners K of rank 4, and the first K."""
    rng = np.random.default_rng(113)
    base = ToeplitzOp(FourierLoop({1: 0.3, -1: 0.2}).exp(), None, window=w)
    ks = []
    for _ in range(2):
        corr = np.zeros((w, w), dtype=complex)
        corr[:4, :4] = rand_mat(rng, 4, 0.1)
        ks.append(ToeplitzOp(zero_loop(), corr, window=w))
    s1, s2 = (SimplexPath(1, lambda t, k=k: base + t * k, lambda _i, t, k=k: k, based=False)
              for k in ks)
    return s1, s2, ks[0]


class TestTildeGamma:
    def test_equal_paths(self):
        rng = np.random.default_rng(103)
        sig = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
        assert abs(tilde_gamma(sig, sig)) < 1e-10

    def test_against_constant_path(self):
        rng = np.random.default_rng(107)
        X = rand_mat(rng, 4)
        one = SimplexPath(1, lambda t: np.eye(4, dtype=complex),
                          lambda _i, t: np.zeros((4, 4), dtype=complex))
        val = tilde_gamma(exp_line(X), one)
        assert abs(val - (-np.trace(X))) < 1e-10

    def test_exponential_is_ratio_of_determinants(self):
        rng = np.random.default_rng(109)
        s1 = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
        s2 = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
        val = tilde_gamma(s1, s2)
        target = np.linalg.det(np.linalg.inv(s1.at(1.0)) @ s2.at(1.0))
        assert abs(np.exp(val) - target) < 1e-8

    def test_one_inverse_per_path_and_node(self, monkeypatch):
        # the rules of orders 6 and 9, the ladder's first two rungs, agree,
        # so each of those nodes takes one inverse of each path, and the
        # endpoint determinants take none
        rng = np.random.default_rng(109)
        x, y = rand_mat(rng, 3), rand_mat(rng, 3)
        calls = []
        inv = np.linalg.inv

        def counted_inv(m):
            calls.append(m.shape)
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        val = tilde_gamma(curved_line(x, y), curved_line(y, x))
        assert len(calls) == 2 * (6 + 9)
        monkeypatch.setattr(np.linalg, "inv", inv)
        target = np.linalg.det(np.linalg.inv(curved_line(x, y).at(1.0))
                               @ curved_line(y, x).at(1.0))
        assert abs(np.exp(val) - target) < 1e-8 * abs(target)

    def test_resolves_the_second_draw_of_seed_5(self):
        # m = 7: while a second, cyclically equal form rode along in the
        # quadrature, its roundoff (about 2e-8 between rungs) kept the pair
        # from settling on any rung below the cap
        rng = np.random.default_rng(5)
        for _ in range(2):
            m, scale = int(rng.integers(2, 9)), rng.uniform(0.2, 1.0)
            x1, y1, x2, y2 = (rand_mat(rng, m, scale) for _ in range(4))
        assert m == 7
        s1, s2 = curved_line(x1, y1), curved_line(x2, y2)
        val = tilde_gamma(s1, s2)
        (sign2, log2), (sign1, log1) = (np.linalg.slogdet(s.at(1.0)) for s in (s2, s1))
        assert abs(val.real - (log2 - log1)) < 1e-9 * max(1.0, abs(log2 - log1))
        assert abs(np.exp(1j * val.imag) - sign2 / sign1) < 1e-9

    def test_wrong_partial_refused(self):
        # Tr(s2' s2^{-1} - s1' s1^{-1}) is integrated as given; only the
        # endpoint determinants can tell a partial that is not the path's
        rng = np.random.default_rng(109)
        x, y = rand_mat(rng, 3), rand_mat(rng, 3)
        good = curved_line(x, y)
        wrong = SimplexPath(1, good.at, lambda _i, t: 1.01 * good.partial(1, t))
        tilde_gamma(good, curved_line(y, x))
        with pytest.raises(NumericalError, match="path leaves invertibles"):
            tilde_gamma(wrong, curved_line(y, x))

    def test_wrong_partial_is_named(self):
        rng = np.random.default_rng(109)
        x, y = rand_mat(rng, 3), rand_mat(rng, 3)
        good = curved_line(x, y)
        wrong = SimplexPath(1, good.at, lambda _i, t: 1.01 * good.partial(1, t))
        with pytest.raises(NumericalError, match="a derivative is not the path's"):
            tilde_gamma(wrong, curved_line(y, x))

    def test_matches_order_64_rule(self):
        rng = np.random.default_rng(109)
        s1 = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
        s2 = curved_line(rand_mat(rng, 3), rand_mat(rng, 3))
        ref = np.trace(line_log_reference(s1) - line_log_reference(s2))
        assert abs(tilde_gamma(s1, s2) - ref) < 1e-12 * abs(ref)

    def test_unresolved_path_does_not_converge(self):
        one = SimplexPath(1, lambda t: np.eye(1, dtype=complex),
                          lambda _i, t: np.zeros((1, 1), dtype=complex))
        with pytest.raises(NumericalError, match="did not converge"):
            tilde_gamma(oscillating_line(), one)

    def test_shape_mismatch(self):
        s1 = SimplexPath(1, lambda t: np.eye(3, dtype=complex))
        s2 = SimplexPath(1, lambda t: np.eye(4, dtype=complex))
        with pytest.raises(InputError, match="paths do not agree"):
            tilde_gamma(s1, s2)

    def test_rank_one_toeplitz_perturbation(self):
        lam = 0.4
        w = 64
        corr = np.zeros((w, w), dtype=complex)
        corr[0, 0] = lam
        N = ToeplitzOp(zero_loop(), corr, window=w)
        ident = identity_op(w)
        zero = zero_op(w)
        s1 = SimplexPath(1, lambda t: ident.add(N.scalar_mul(t)),
                         lambda _i, t: N)
        s2 = SimplexPath(1, lambda t: ident, lambda _i, t: zero)
        val = tilde_gamma(s1, s2)
        assert abs(val - (-np.log1p(lam))) < 1e-9

    def test_toeplitz_pair_against_endpoint_determinants(self, monkeypatch):
        s1, s2, k1 = toeplitz_pair()
        nodes, muls = [], []
        mul = ToeplitzOp.mul

        def counted_mul(x, y):
            muls.append(1)
            return mul(x, y)

        monkeypatch.setattr(ToeplitzOp, "mul", counted_mul)
        counted = SimplexPath(1, s1.at, lambda _i, t: nodes.append(t) or k1, based=False)
        val = tilde_gamma(counted, s2)
        # one product per path and node, one per endpoint
        assert len(muls) <= 2 * len(nodes) + 2
        monkeypatch.setattr(ToeplitzOp, "mul", mul)
        # both paths start at the same operator, so only t = 1 counts
        want = np.log(np.linalg.det(s2.at(1.0).dense_section(128))
                      / np.linalg.det(s1.at(1.0).dense_section(128)))
        assert abs(val - want) < 1e-9

    def test_toeplitz_wrong_partial_refused(self):
        s1, s2, k1 = toeplitz_pair()
        wrong = SimplexPath(1, s1.at, lambda _i, t: 1.01 * k1, based=False)
        with pytest.raises(NumericalError, match="path leaves invertibles"):
            tilde_gamma(wrong, s2)

    def test_symbol_mismatch_toeplitz(self):
        from fredk2.fourier_loops import FourierLoop
        w = 64
        ident = identity_op(w)
        zero = zero_op(w)
        other = ToeplitzOp(FourierLoop({0: 1.0, 1: 0.5}), None, window=w)
        s1 = SimplexPath(1, lambda t: ident, lambda _i, t: zero, based=False)
        s2 = SimplexPath(1, lambda t: other, lambda _i, t: zero, based=False)
        with pytest.raises(InputError, match="paths do not agree"):
            tilde_gamma(s1, s2)


class TestOneLogDerivative:
    """path_log_det, tilde_gamma and gamma_log's line case integrate one
    log-derivative F′F⁻¹ through one line driver."""

    @staticmethod
    def infinite_derivative_line(calls):
        return SimplexPath(1, lambda t: calls.append(t) or np.eye(2, dtype=complex),
                           lambda _i, t: calls.append(t) or np.full((2, 2), np.inf))

    @pytest.mark.parametrize("integral", [gamma_log, lambda s: tilde_gamma(s, LINE)],
                             ids=["gamma_log", "tilde_gamma"])
    def test_infinite_derivative_refused_at_its_node(self, integral):
        # refused at the first node, not after every rung of the ladder
        calls = []
        with pytest.raises(NumericalError, match="path leaves invertibles"):
            integral(self.infinite_derivative_line(calls))
        assert len(calls) <= 10

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 6),
           scale=st.floats(0.2, 1.0))
    def test_three_integrals_agree(self, seed, m, scale):
        rng = np.random.default_rng(seed)
        x, y = rand_mat(rng, m, scale), rand_mat(rng, m, scale)
        line = curved_line(x, y)
        one = SimplexPath(1, lambda t: np.eye(m, dtype=complex),
                          lambda _i, t: np.zeros((m, m), dtype=complex))
        by_path = path_log_det(OperatorPath(line.at, lambda t: line.partial(1, t)))
        by_pair = tilde_gamma(one, line)
        by_chain = -np.trace(gamma_log(line).materialize())
        scale_of = max(1.0, abs(by_path))
        assert abs(by_pair - by_path) < 1e-10 * scale_of
        assert abs(by_chain - by_path) < 1e-10 * scale_of


W = 16
EYE = np.eye(2, dtype=complex)
LINE = SimplexPath(1, lambda t: EYE, lambda _i, t: 0 * EYE)
TRIANGLE = SimplexPath(2, lambda t1, t2: EYE, lambda _i, t1, t2: 0 * EYE)
OP_LINE = SimplexPath(1, lambda t: identity_op(W), lambda _i, t: zero_op(W))
BLOCK_LINE = SimplexPath(1, lambda t: BlockOp.diagonal(identity_op(W), identity_op(W), W),
                        lambda _i, t: BlockOp.diagonal(zero_op(W), zero_op(W), W))
SINGULAR = SimplexPath(1, lambda t: 0 * EYE, lambda _i, t: 0 * EYE, based=False)


def bump(t):
    """Vanishes at the checkpoints t = 0, 0.37 and 1 of the path comparison."""
    return t * (1.0 - t) * (t - 0.37)


def bump_prime(t):
    return (1.0 - 2.0 * t) * (t - 0.37) + t * (1.0 - t)


# identity + bump(t)·S: its symbol leaves the identity's between the checkpoints
BUMPED = SimplexPath(1, lambda t: identity_op(W) + bump(t) * shift_op(W),
                     lambda _i, t: bump_prime(t) * shift_op(W))

# (call, error, message) for each refusal of the simplex and chain layer
REFUSALS = {
    "partial-index": (lambda: LINE.partial(2, 0.5), InputError, "partial index"),
    "vertex-index": (lambda: LINE.vertex(2), InputError, "vertex index"),
    "face-of-a-matrix": (lambda: face(0, EYE), InputError, "face expects a simplex"),
    "formal-dimensions": (lambda: FormalChain(1).plus(FormalChain(0)), InputError,
                          "dimensions differ"),
    "formal-materialize": (lambda: FormalChain(1, [(1.0, LINE)]).materialize(), InputError,
                           "dimension-0"),
    "boundary-of-empty": (lambda: dN(FormalChain(1)), InputError, "empty chain"),
    "cyclic-degrees": (lambda: CyclicChain(0).plus(CyclicChain(1)), InputError,
                       "degrees differ"),
    "cyclic-materialize": (lambda: CyclicChain(0, [(1.0, (identity_op(W),))]).materialize(),
                           InputError, "only dense matrix"),
    # a degree or dimension is a nonnegative integer, never truncated or cast
    **{"chain-degree-%s" % name: (call, InputError, "chain degree must be a nonnegative integer")
       for name, call in [("cyclic-fraction", lambda: CyclicChain(1.5, [])),
                          ("cyclic-string", lambda: CyclicChain("1", [])),
                          ("cyclic-none", lambda: CyclicChain(None, [])),
                          ("cyclic-boolean", lambda: CyclicChain(True, [])),
                          ("cyclic-negative", lambda: CyclicChain(-1, [])),
                          ("formal-fraction", lambda: FormalChain(0.7)),
                          ("formal-boolean", lambda: FormalChain(True))]},
    "simplex-boolean-dimension": (lambda: SimplexPath(True, lambda t: EYE), InputError,
                                  "simplex dimension must be 1 or 2"),
    "simplex-fraction-dimension": (lambda: SimplexPath(1.0, lambda t: EYE), InputError,
                                   "simplex dimension must be 1 or 2"),
    # a simplex of another dimension than its chain's
    "formal-triangle-in-dimension-1": (lambda: gamma_log(FormalChain(1, [(1.0, TRIANGLE)])),
                                       InputError, "simplex dimension differs"),
    "formal-line-in-dimension-2": (lambda: dN(FormalChain(2, [(1.0, LINE)])), InputError,
                                   "simplex dimension differs"),
    "log-of-triangle-chain": (lambda: gamma_log(FormalChain(2, [(1.0, TRIANGLE)])),
                              InputError, "1-simplex chains"),
    "log-of-operators": (lambda: gamma_log(OP_LINE), InputError, "dense matrix simplices"),
    "relative-log-of-a-matrix": (lambda: tilde_gamma(EYE, LINE), InputError,
                                 "expects two paths"),
    "relative-log-of-triangles": (lambda: tilde_gamma(TRIANGLE, TRIANGLE), InputError,
                                  "1-simplices"),
    "relative-log-of-block-lines": (lambda: tilde_gamma(BLOCK_LINE, BLOCK_LINE), InputError,
                                    "matrix or Toeplitz paths"),
    "relative-log-mixed": (lambda: tilde_gamma(LINE, OP_LINE), InputError,
                           "paths do not agree"),
    "relative-log-symbols-between-checkpoints": (lambda: tilde_gamma(OP_LINE, BUMPED),
                                                 InputError, "paths do not agree"),
    "relative-log-singular-node": (lambda: tilde_gamma(SINGULAR, SINGULAR), NumericalError,
                                   "singular simplex value"),
    # a NaN tol would pass every comparison, a negative one fail every call
    "cocycle-fraction-index": (lambda: tau_cocycle(1.5, CyclicChain(1)), InputError,
                               "for an integer p"),
    "cocycle-boolean-index": (lambda: tau_cocycle(True, CyclicChain(1)), InputError,
                              "for an integer p"),
    "relative-log-negative-tol": (lambda: tilde_gamma(LINE, LINE, tol=-1e-9), InputError,
                                  "tolerance must be finite"),
    "relative-log-nan-tol": (lambda: tilde_gamma(LINE, LINE, tol=math.nan), InputError,
                             "tolerance must be finite"),
    "relative-log-infinite-tol": (lambda: tilde_gamma(LINE, LINE, tol=math.inf), InputError,
                                  "tolerance must be finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()
