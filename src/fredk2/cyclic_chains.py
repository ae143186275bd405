"""Chain-level homological algebra for matrix-valued simplices.

Smooth simplices sigma: Delta^n -> GL_m for n in {1, 2}, the normalized
boundary dN whose zeroth face is right-translated back to the base point,
the logarithm gamma_log sending a simplex to a cyclic chain, the cyclic
operators b and t with the symmetrization projector, the odd cocycles
tau_{2p-1} on 2x2 block algebras, and the relative logarithm tilde_gamma
of a pair of paths whose pointwise difference is trace class.  BlockOp is
the one n x n block element type, for the 2x2 algebras here and the 3x3
stabilized lifts in invariants.

Degree-0 chains are formal sums of group elements; the boundary of a
1-simplex is -sigma(0) + sigma(1)sigma(1)^{-1}, which vanishes for based
loops.  Entries of a simplex may be dense complex matrices or operator
objects carrying mul/inv/add/scalar_mul/op_trace (windowed Toeplitz
elements); chains materialize only over dense matrices.

Sign conventions are fixed by the defining integral of gamma_log,
including its (-1)^n prefactor, and every identity in the tests is stated
against that convention.
"""

import math

import numpy as np

from ._errors import InputError, InvariantViolation, NumericalError
from .fredholm import endpoint_check, gl_adaptive, gl_nodes, gl_sum
from .toeplitz_calculus import zero_op

LINE_MAX_ORDER = 512
TRI_MAX_ORDER = 128
LINE_TOL = 1e-11
TRI_TOL = 1e-9
CHAIN_TOL = 1e-10
FD_STEP = 1e-4    # step of the central differences in SimplexPath.partial


def _is_mat(x):
    return isinstance(x, np.ndarray)


def _e_mul(x, y):
    if _is_mat(x) and _is_mat(y):
        return x @ y
    return x.mul(y)


def _e_add(x, y):
    if _is_mat(x) and _is_mat(y):
        return x + y
    return x.add(y)


def _e_sub(x, y):
    if _is_mat(x) and _is_mat(y):
        return x - y
    return x.sub(y)


def _e_scale(c, x):
    if _is_mat(x):
        return c * x
    return x.scalar_mul(c)


def _e_inv(x):
    if _is_mat(x):
        try:
            return np.linalg.inv(x)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular simplex value at a quadrature node") from exc
    return x.inv()


def _e_trace(x):
    if _is_mat(x):
        return complex(np.trace(x))
    return x.op_trace()


class SimplexPath:
    """C^2 map from the n-simplex into invertible m x m elements.

    value is a callable of n floats; partials is either None (fourth-order
    central differences, requiring value to extend slightly past the
    simplex), a callable (i, *t) for i in 1..n, or a tuple of per-variable
    callables.  based asserts sigma(0) = 1.
    """

    def __init__(self, dimension, value, partials=None, based=True):
        if dimension not in (1, 2):
            raise InputError("simplex dimension must be 1 or 2")
        self.n = dimension
        self._value = value
        if partials is None or callable(partials):
            self._partials = partials
        else:
            ps = tuple(partials)
            if len(ps) != dimension:
                raise InputError("one partial per simplex coordinate required")
            self._partials = lambda i, *t: ps[i - 1](*t)
        self.based = bool(based)
        if self.based:
            v0 = self.at(*([0.0] * self.n))
            if _is_mat(v0):
                m = v0.shape[0]
                if np.linalg.norm(v0 - np.eye(m)) > 1e-9 * max(1.0, np.linalg.norm(v0)):
                    raise InputError("based simplex must start at the identity")

    def at(self, *t):
        return self._value(*t)

    def partial(self, i, *t):
        if not 1 <= i <= self.n:
            raise InputError("partial index out of range")
        if self._partials is not None:
            return self._partials(i, *t)
        h = FD_STEP

        def shifted(d):
            u = list(t)
            u[i - 1] += d
            return self._value(*u)

        far = _e_sub(shifted(-2.0 * h), shifted(2.0 * h))
        near = _e_sub(shifted(h), shifted(-h))
        return _e_scale(1.0 / (12.0 * h), _e_add(far, _e_scale(8.0, near)))

    def vertex(self, k):
        pts = ((0.0,), (1.0,)) if self.n == 1 else ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        if not 0 <= k <= self.n:
            raise InputError("vertex index out of range")
        return self.at(*pts[k])


def face(i, sigma):
    """Face map d_i; faces of a 1-simplex are point values.

    d_i for i >= 1 sets coordinate i to zero; d_0 substitutes the missing
    barycentric coordinate, so for n = 2 it is t -> sigma(1 - t, t).
    """
    if not isinstance(sigma, SimplexPath):
        raise InputError("face expects a simplex")
    n = sigma.n
    if not 0 <= i <= n:
        raise InputError("face index out of range")
    if n == 1:
        return sigma.at(1.0) if i == 0 else sigma.at(0.0)
    if i == 0:
        val = lambda t: sigma.at(1.0 - t, t)
        part = lambda _j, t: _e_sub(sigma.partial(2, 1.0 - t, t),
                                    sigma.partial(1, 1.0 - t, t))
        return SimplexPath(1, val, part, based=False)
    if i == 1:
        val = lambda t: sigma.at(0.0, t)
        part = lambda _j, t: sigma.partial(2, 0.0, t)
    else:
        val = lambda t: sigma.at(t, 0.0)
        part = lambda _j, t: sigma.partial(1, t, 0.0)
    return SimplexPath(1, val, part, based=sigma.based)


def based_zero_face(sigma):
    """d_0(sigma) right-translated by sigma(1-vertex)^{-1}."""
    g = _e_inv(sigma.vertex(1))
    if sigma.n == 1:
        return _e_mul(face(0, sigma), g)
    f0 = face(0, sigma)
    val = lambda t: _e_mul(f0.at(t), g)
    part = lambda _j, t: _e_mul(f0.partial(1, t), g)
    return SimplexPath(1, val, part, based=sigma.based)


class FormalChain:
    """Formal complex combination of simplices, or of group elements in
    dimension zero."""

    def __init__(self, dimension, terms=()):
        self.n = int(dimension)
        self.terms = [(complex(c), s) for c, s in terms]

    def scaled(self, c):
        return FormalChain(self.n, [(c * co, s) for co, s in self.terms])

    def plus(self, other):
        if other.n != self.n:
            raise InputError("chain dimensions differ")
        return FormalChain(self.n, self.terms + other.terms)

    def materialize(self):
        if self.n != 0:
            raise InputError("only dimension-0 chains materialize")
        total = None
        for c, g in self.terms:
            piece = _e_scale(c, g)
            total = piece if total is None else _e_add(total, piece)
        return total


def dN(sigma):
    """Boundary sum_{i>=1} (-1)^i d_i + (zeroth face translated to base)."""
    if isinstance(sigma, FormalChain):
        out = None
        for c, s in sigma.terms:
            piece = dN(s).scaled(c)
            out = piece if out is None else out.plus(piece)
        if out is None:
            raise InputError("empty chain has no boundary dimension")
        return out
    terms = [(float((-1) ** i), face(i, sigma)) for i in range(1, sigma.n + 1)]
    terms.append((1.0, based_zero_face(sigma)))
    return FormalChain(sigma.n - 1, terms)


class CyclicChain:
    """Formal combination of elementary (q+1)-fold tensors of m x m
    matrices; equality is tested after cyclic symmetrization."""

    def __init__(self, degree, terms=()):
        self.degree = int(degree)
        self.terms = []
        for c, x in terms:
            x = tuple(x)
            if len(x) != self.degree + 1:
                raise InputError("tensor length must be degree + 1")
            self.terms.append((complex(c), x))

    def scaled(self, c):
        return CyclicChain(self.degree, [(c * co, x) for co, x in self.terms])

    def plus(self, other):
        if other.degree != self.degree:
            raise InputError("chain degrees differ")
        return CyclicChain(self.degree, self.terms + other.terms)

    def minus(self, other):
        return self.plus(other.scaled(-1.0))

    def materialize(self):
        """Sum of coeff * kron(x^0, ..., x^q); the kron embedding is a
        linear isomorphism onto M_{m^(q+1)}, so this is faithful."""
        total = None
        for c, x in self.terms:
            if not all(_is_mat(e) for e in x):
                raise InputError("only dense matrix chains materialize")
            piece = x[0]
            for e in x[1:]:
                piece = (piece[:, None, :, None] * e[None, :, None, :]).reshape(
                    piece.shape[0] * e.shape[0], piece.shape[1] * e.shape[1])
            piece = c * piece
            total = piece if total is None else total + piece
        return total

    def project(self):
        return cyclic_project(self)

    def equals(self, other):
        if other.degree != self.degree:
            return False
        a = self.project().materialize()
        b = other.project().materialize()
        if a is None and b is None:
            return True
        if a is None or b is None:
            present = a if a is not None else b
            return np.linalg.norm(present) <= CHAIN_TOL
        if a.shape != b.shape:
            return False
        scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        return np.linalg.norm(a - b) <= CHAIN_TOL * scale


def cyclic_t(c):
    """t(a_0 x ... x a_q) = (-1)^q a_q x a_0 x ... x a_{q-1}."""
    sign = float((-1) ** c.degree)
    return CyclicChain(c.degree,
                       [(sign * co, (x[-1],) + x[:-1]) for co, x in c.terms])


def cyclic_project(c):
    """Average of the signed cyclic action, the computable model of the
    quotient by (1 - t)."""
    out = []
    cur = c
    for _ in range(c.degree + 1):
        out.extend(cur.terms)
        cur = cyclic_t(cur)
    frac = 1.0 / (c.degree + 1.0)
    return CyclicChain(c.degree, [(frac * co, x) for co, x in out])


def cyclic_b(c):
    """b(a_0 x ... x a_q) = sum (-1)^i a_0 x ... x a_i a_{i+1} x ... x a_q
    + (-1)^q a_q a_0 x a_1 x ... x a_{q-1}."""
    q = c.degree
    if q == 0:
        return CyclicChain(0, [])
    out = []
    for co, x in c.terms:
        for i in range(q):
            merged = x[:i] + (_e_mul(x[i], x[i + 1]),) + x[i + 2:]
            out.append((co * (-1) ** i, merged))
        out.append((co * (-1) ** q, (_e_mul(x[q], x[0]),) + x[1:q]))
    return CyclicChain(q - 1, out)


def _line_integral(fn):
    """Adaptive Gauss-Legendre integral of fn on [0, 1]."""
    return gl_adaptive(lambda o: gl_sum(fn, o), LINE_MAX_ORDER, LINE_TOL)


def gamma_log(sigma):
    """Logarithm of a based simplex as a cyclic chain.

    Defined by ((-1)^n / n!) sum over permutations s of sgn(s) times the
    integral over the simplex of the tensor of log-derivatives in the
    order prescribed by s.  For n = 1 this is the degree-0 chain
    -integral of sigma' sigma^{-1}; for n = 2 the degree-1 chain
    (1/2)(integral of A x B - integral of B x A) with A, B the two
    log-derivatives, summed over collapsed-square o x o Gauss grids with
    o = 8, 16, ... (from GL_START_ORDER) until two chains agree.
    """
    if isinstance(sigma, FormalChain):
        if sigma.n != 1:
            raise InputError("linear extension is defined on 1-simplex chains")
        out = None
        for c, s in sigma.terms:
            piece = gamma_log(s).scaled(c)
            out = piece if out is None else out.plus(piece)
        return out if out is not None else CyclicChain(0, [])
    if not sigma.based:
        raise InputError("logarithm requires a based simplex")
    probe = sigma.at(*([0.0] * sigma.n))
    if not _is_mat(probe):
        raise InputError("logarithm is defined for dense matrix simplices")

    if sigma.n == 1:
        def logderiv(t):
            f, fp = sigma.at(t), sigma.partial(1, t)
            try:
                return np.linalg.solve(f.T, fp.T).T
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    "singular simplex value at a quadrature node") from exc

        integral = _line_integral(logderiv)
        endpoint_check(sigma.at(0.0), sigma.at(1.0), complex(np.trace(integral)))
        return CyclicChain(0, [(1.0, (-integral,))])

    def triangle_chain(order):
        nodes, weights = gl_nodes(order)
        terms = []
        for u, wu in zip(nodes, weights):
            for v, wv in zip(nodes, weights):
                t1 = float(u)
                t2 = float(v * (1.0 - u))
                w = float(wu * wv * (1.0 - u))
                f = sigma.at(t1, t2)
                try:
                    finv = np.linalg.inv(f)
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(
                        "singular simplex value at a quadrature node") from exc
                a = sigma.partial(1, t1, t2) @ finv
                b = sigma.partial(2, t1, t2) @ finv
                terms.append((0.5 * w, (a, b)))
                terms.append((-0.5 * w, (b, a)))
        return CyclicChain(1, terms)

    return gl_adaptive(triangle_chain, TRI_MAX_ORDER, TRI_TOL,
                       measure=CyclicChain.materialize)


class BlockOp:
    """n x n block element over dense matrices or windowed Toeplitz
    operators, built from its rows of blocks; block(i, j) is 1-based.

    Optionally carries a companion operator ``first`` whose difference from
    the (1,1) block is trace class; the membership holds by construction
    because the difference has zero symbol, which is validated here.
    Products, sums and multiples keep ``first`` when every operand has one.
    """

    __slots__ = ("rows", "first")

    def __init__(self, rows, first=None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise InputError("block matrix must be square")
        if first is not None and not first.symbol.sub(rows[0][0].symbol).is_zero():
            raise InvariantViolation("pair defect has nonzero symbol")
        self.rows = rows
        self.first = first

    @classmethod
    def diagonal(cls, *args):
        """diagonal(d1, ..., dn, window): diag(d1, ..., dn) of windowed
        operators, with zero blocks of the given window."""
        *entries, window = args
        z = zero_op(window)
        return cls([[d if i == j else z for j in range(len(entries))]
                    for i, d in enumerate(entries)])

    @property
    def window(self):
        return max(b.window for r in self.rows for b in r)

    def block(self, i, j):
        return self.rows[i - 1][j - 1]

    def _firsts(self, other, op):
        if self.first is None or other.first is None:
            return None
        return op(self.first, other.first)

    def _blockwise(self, other, op):
        return BlockOp([[op(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)],
                       self._firsts(other, op))

    def mul(self, other):
        rows = []
        for ra in self.rows:
            row = []
            for j in range(len(other.rows)):
                acc = None
                for a, rb in zip(ra, other.rows):
                    term = _e_mul(a, rb[j])
                    acc = term if acc is None else _e_add(acc, term)
                row.append(acc)
            rows.append(row)
        return BlockOp(rows, self._firsts(other, _e_mul))

    def add(self, other):
        return self._blockwise(other, _e_add)

    def sub(self, other):
        return self._blockwise(other, _e_sub)

    def scalar_mul(self, c):
        return BlockOp([[_e_scale(c, b) for b in r] for r in self.rows],
                       None if self.first is None else _e_scale(c, self.first))

    def dense_section(self, n):
        """Dense section of every (windowed operator) block, n x n each."""
        return np.block([[b.dense_section(n) for b in r] for r in self.rows])

    def dense(self):
        return np.block([list(r) for r in self.rows])

    def deviation_from(self, other):
        """Largest op_norm_est over the blocks of the difference."""
        return max(b.op_norm_est() for r in self.sub(other).rows for b in r)


# Former names of the 2x2 and 3x3 block types.
Block2 = Block3 = TwoByTwoOp = BlockOp


def tau_cocycle(p, chain):
    """Odd cyclic cocycle on 2x2 block elements.

    tau_{2p-1}(x^0 x ... x x^{2p-1}) = (-1)^{p-1} (2p-1)!/(p-1)! times
    Tr(diag(1,-1) offdiag(x^0) ... offdiag(x^{2p-1})); the product of the
    2p off-diagonal parts is block diagonal, so this is the trace of the
    (1,1) corner minus the trace of the (2,2) corner.
    """
    p = int(p)
    if p < 1 or chain.degree != 2 * p - 1:
        raise InputError("cocycle degree must be 2p−1")
    pref = float((-1) ** (p - 1)) * math.factorial(2 * p - 1) / math.factorial(p - 1)
    total = 0j
    for co, x in chain.terms:
        top = x[0].block(1, 2)
        bot = x[0].block(2, 1)
        for k in range(1, 2 * p):
            el = x[k]
            if k % 2 == 1:
                top = _e_mul(top, el.block(2, 1))
                bot = _e_mul(bot, el.block(1, 2))
            else:
                top = _e_mul(top, el.block(1, 2))
                bot = _e_mul(bot, el.block(2, 1))
        total += co * (_e_trace(top) - _e_trace(bot))
    return pref * total


def _paths_compatible(s1, s2):
    for t in (0.0, 0.37, 1.0):
        a = s1.at(t)
        b = s2.at(t)
        if _is_mat(a) != _is_mat(b):
            raise InputError("paths do not agree modulo trace class")
        if _is_mat(a):
            if a.shape != b.shape:
                raise InputError("paths do not agree modulo trace class")
        else:
            if a.symbol.sub(b.symbol).l1() > 1e-9:
                raise InputError("paths do not agree modulo trace class")


def tilde_gamma(s1, s2, tol=1e-9):
    """Relative logarithm of a pair of paths with trace class difference.

    Evaluates both displayed forms,
      -Tr integral of d(s1 s2^{-1})/dt . s2 s1^{-1} dt   and
      Tr integral of (s2' s2^{-1} - s1' s1^{-1}) dt,
    as one 2-vector quadrature, checks they agree to tol, and returns the
    second.
    """
    if not (isinstance(s1, SimplexPath) and isinstance(s2, SimplexPath)):
        raise InputError("relative logarithm expects two paths")
    if s1.n != 1 or s2.n != 1:
        raise InputError("relative logarithm is defined for 1-simplices")
    _paths_compatible(s1, s2)

    def forms(t):
        # both integrands from one evaluation and one inverse of each path
        f1 = s1.at(t)
        f2 = s2.at(t)
        f1p = s1.partial(1, t)
        f2p = s2.partial(1, t)
        inv1 = _e_inv(f1)
        inv2 = _e_inv(f2)
        # d/dt (s1 s2^{-1}) = s1' s2^{-1} - s1 s2^{-1} s2' s2^{-1}
        deriv = _e_sub(_e_mul(f1p, inv2),
                       _e_mul(_e_mul(_e_mul(f1, inv2), f2p), inv2))
        prod = _e_mul(deriv, _e_mul(f2, inv1))
        diff = _e_sub(_e_mul(f2p, inv2), _e_mul(f1p, inv1))
        return np.array([-_e_trace(prod), _e_trace(diff)])

    try:
        val_a, val_b = (complex(v) for v in _line_integral(forms))
    except InvariantViolation as exc:
        # a nonzero-symbol trace inside either form means the paths differ
        # by more than trace class
        raise InputError("paths do not agree modulo trace class") from exc
    if abs(val_a - val_b) > tol * max(1.0, abs(val_a), abs(val_b)):
        raise InvariantViolation("relative logarithm forms disagree")
    return val_b
