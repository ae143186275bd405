import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import roots_legendre

import fredk2
from fredk2._errors import InputError, NumericalError
from fredk2.cyclic_chains import (
    Block2,
    BlockOp,
    CyclicChain,
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
from fredk2.fourier_loops import zero_loop
from fredk2.fredholm import GL_START_ORDER
from fredk2.toeplitz_calculus import ToeplitzOp, identity_op, zero_op


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

    def test_input_validation(self):
        sig = SimplexPath(1, lambda t: np.eye(2, dtype=complex))
        with pytest.raises(InputError):
            face(2, sig)
        with pytest.raises(InputError):
            SimplexPath(3, lambda *t: np.eye(2, dtype=complex))
        with pytest.raises(InputError):
            SimplexPath(1, lambda t: np.diag([2.0 + 0j, 1.0]))  # not based


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

    def test_triangle_rule_stops_at_orders_8_and_16(self):
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
        assert len(nodes) == 8 ** 2 + 16 ** 2

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

    def test_tensor_length_validation(self):
        with pytest.raises(InputError):
            CyclicChain(1, [(1.0, (np.eye(2),))])


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
        # both forms come from one pass per node: the rules of order
        # GL_START_ORDER and twice that agree, so each of those nodes takes
        # one inverse of each path
        rng = np.random.default_rng(109)
        x, y = rand_mat(rng, 3), rand_mat(rng, 3)
        calls = []
        inv = np.linalg.inv

        def counted_inv(m):
            calls.append(m.shape)
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        val = tilde_gamma(curved_line(x, y), curved_line(y, x))
        assert len(calls) == 2 * (GL_START_ORDER + 2 * GL_START_ORDER)
        monkeypatch.setattr(np.linalg, "inv", inv)
        target = np.linalg.det(np.linalg.inv(curved_line(x, y).at(1.0))
                               @ curved_line(y, x).at(1.0))
        assert abs(np.exp(val) - target) < 1e-8 * abs(target)

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
