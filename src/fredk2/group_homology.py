"""Bar-complex homology of finite groups and relative cycle machinery.

Integer chain complexes of finite groups in the inhomogeneous bar model,
Smith normal form over Z with recorded transforms, low-degree homology
(n <= 2), and the relative constructions attached to a surjection
phi: G -> H with a set-theoretic section t:

  * the mapping cone complex of phi,
  * the fibered cokernel complex in basepoint-normalized form,
  * the boundary / section map sending a 2-cycle x over H to the class
    f_phi(x) in ker(phi) modulo commutators [g, k].

H_n is read off the boundary D_{n+1}, built sparse from the multiplication
table: its +-1 pivots are eliminated exactly (Dumas-Saunders-Villard) and
only the small residual goes through the Smith normal form.  The bar
complex is the unnormalized one throughout.

All arithmetic is exact (python ints).  Groups are given by index tables;
elements are indices 0..order-1.
"""

import heapq
import itertools
import json

import numpy as np

from ._errors import InputError, InvariantViolation

# n-th homology needs chains of degree n+1; cap the bar module size.
MAX_BAR_CELLS = 4096


class FiniteGroup:
    """Finite group presented by its multiplication table.

    table[a][b] is the index of a*b.  Closure, associativity, identity and
    inverses are checked at construction time.
    """

    def __init__(self, table, labels=None, name=None):
        n = len(table)
        if n == 0:
            raise InputError("group table is empty")
        for row in table:
            if len(row) != n:
                raise InputError("group table is not square")
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise InputError("group table entry out of range")
        self.order = n
        self.table = [list(row) for row in table]
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InputError("group table has no identity")
        self.identity = ident
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident:
                    inv[a] = b
                    break
            if inv[a] is None or self.table[inv[a]][a] != ident:
                raise InputError("group table has a non-invertible element")
        self._inv = inv
        for a in range(n):
            ra = self.table[a]
            for b in range(n):
                rab = self.table[ra[b]]
                rb = self.table[b]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        raise InputError("group table is not associative")
        if labels is not None:
            if len(labels) != n or len(set(labels)) != n:
                raise InputError("group labels must be distinct, one per element")
            self.labels = [str(s) for s in labels]
        else:
            self.labels = [str(i) for i in range(n)]
        self.name = name

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        """g x g^{-1}."""
        return self.op(self.op(g, x), self.inv(g))

    def commutator(self, a, b):
        """a b a^{-1} b^{-1}."""
        return self.op(self.op(a, b), self.op(self.inv(a), self.inv(b)))

    def prod(self, elems):
        out = self.identity
        for g in elems:
            out = self.op(out, g)
        return out

    def power(self, g, k):
        if k < 0:
            return self.power(self.inv(g), -k)
        out = self.identity
        for _ in range(k):
            out = self.op(out, g)
        return out

    def subgroup_closure(self, gens):
        """Smallest subgroup containing gens, as a sorted list."""
        closed = {self.identity}
        closed.update(gens)
        frontier = list(closed)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closed):
                    for p in (self.op(a, b), self.op(b, a)):
                        if p not in closed:
                            closed.add(p)
                            nxt.append(p)
            frontier = nxt
        return sorted(closed)

    def is_abelian(self):
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    # -- constructions ----------------------------------------------------

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise InputError("cyclic group order must be positive")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, labels=[str(i) for i in range(n)], name="Z%d" % n)

    @classmethod
    def direct_product(cls, g1, g2):
        n1, n2 = g1.order, g2.order

        def idx(a, b):
            return a * n2 + b

        table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
        for a1 in range(n1):
            for b1 in range(n2):
                for a2 in range(n1):
                    for b2 in range(n2):
                        table[idx(a1, b1)][idx(a2, b2)] = idx(
                            g1.op(a1, a2), g2.op(b1, b2)
                        )
        labels = [
            "%s|%s" % (g1.labels[a], g2.labels[b])
            for a in range(n1)
            for b in range(n2)
        ]
        name = None
        if g1.name and g2.name:
            name = "%sx%s" % (g1.name, g2.name)
        return cls(table, labels=labels, name=name)

    @classmethod
    def dihedral(cls, n):
        """Symmetries of the regular n-gon, order 2n.  Index = flip*n + k."""
        if n < 1:
            raise InputError("dihedral parameter must be positive")

        def mul(f1, k1, f2, k2):
            if f1 == 0 and f2 == 0:
                return (0, (k1 + k2) % n)
            if f1 == 0 and f2 == 1:
                return (1, (k2 - k1) % n)
            if f1 == 1 and f2 == 0:
                return (1, (k1 + k2) % n)
            return (0, (k2 - k1) % n)

        size = 2 * n
        table = [[0] * size for _ in range(size)]
        for f1 in range(2):
            for k1 in range(n):
                for f2 in range(2):
                    for k2 in range(n):
                        f, k = mul(f1, k1, f2, k2)
                        table[f1 * n + k1][f2 * n + k2] = f * n + k
        labels = ["e"] + ["r%d" % k for k in range(1, n)]
        labels += ["s"] + ["sr%d" % k for k in range(1, n)]
        return cls(table, labels=labels, name="D%d" % n)

    @classmethod
    def quaternion(cls):
        """The quaternion group {+-1, +-i, +-j, +-k}, index = 2*letter + sign."""
        base = {
            (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
            (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
            (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
            (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
        }
        table = [[0] * 8 for _ in range(8)]
        for l1 in range(4):
            for s1 in range(2):
                for l2 in range(4):
                    for s2 in range(2):
                        sgn, ltr = base[(l1, l2)]
                        table[2 * l1 + s1][2 * l2 + s2] = 2 * ltr + (s1 + s2 + sgn) % 2
        labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        return cls(table, labels=labels, name="Q8")

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"order": self.order, "table": self.table, "labels": self.labels}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise InputError("group record must be a JSON object")
        extra = set(data) - {"order", "table", "labels", "name"}
        if extra:
            raise InputError("unknown group record keys: %s" % sorted(extra))
        if "order" not in data or "table" not in data:
            raise InputError("group record needs order and table")
        table = data["table"]
        if not isinstance(table, list) or len(table) != data["order"]:
            raise InputError("group table does not match declared order")
        return cls(table, labels=data.get("labels"), name=data.get("name"))


class GroupHom:
    """Homomorphism given by an index map, with an optional section table.

    The section, when present, satisfies phi(t(h)) = h for all h and is used
    for lifting chains; it need not be a homomorphism.
    """

    def __init__(self, source, target, mapping, section=None):
        if len(mapping) != source.order:
            raise InputError("homomorphism map must list one image per element")
        for v in mapping:
            if not isinstance(v, int) or not 0 <= v < target.order:
                raise InputError("homomorphism image out of range")
        for a in range(source.order):
            for b in range(source.order):
                if mapping[source.op(a, b)] != target.op(mapping[a], mapping[b]):
                    raise InputError("map is not a homomorphism")
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        if section is not None:
            section = list(section)
            if len(section) != target.order:
                raise InputError("section must list one lift per target element")
            for h, g in enumerate(section):
                if not isinstance(g, int) or not 0 <= g < source.order:
                    raise InputError("section entry out of range")
                if mapping[g] != h:
                    raise InputError("section is not a right inverse of the map")
        self.section = section
        self._quotient = None

    def __call__(self, g):
        return self.mapping[g]

    def is_surjective(self):
        return len(set(self.mapping)) == self.target.order

    def kernel(self):
        return [g for g in range(self.source.order) if self.mapping[g] == self.target.identity]

    def default_section(self):
        """Minimal-index preimage for each target element."""
        sec = [None] * self.target.order
        for g in range(self.source.order):
            h = self.mapping[g]
            if sec[h] is None:
                sec[h] = g
        if any(s is None for s in sec):
            raise InputError("map is not surjective, no section exists")
        return sec

    def section_table(self):
        if self.section is not None:
            return self.section
        return self.default_section()

    def push(self, chain):
        """Image chain phi_*: apply the map to every tuple coordinate."""
        if chain.group is not self.source:
            raise InputError("chain group does not match homomorphism source")
        m = self.mapping
        return _summed_chain(self.target, chain.degree,
                             ((tuple(m[g] for g in cell), z)
                              for cell, z in chain.coeffs.items()))

    def lift(self, chain):
        """Section lift t_*: apply the section to every tuple coordinate."""
        if chain.group is not self.target:
            raise InputError("chain group does not match homomorphism target")
        sec = self.section_table()
        return _summed_chain(self.source, chain.degree,
                             ((tuple(sec[h] for h in cell), z)
                              for cell, z in chain.coeffs.items()))

    def to_json(self):
        data = {"map": self.mapping}
        if self.section is not None:
            data["section"] = self.section
        return data

    @classmethod
    def from_json(cls, data, source, target):
        if not isinstance(data, dict):
            raise InputError("homomorphism record must be a JSON object")
        extra = set(data) - {"map", "section"}
        if extra:
            raise InputError("unknown homomorphism record keys: %s" % sorted(extra))
        if "map" not in data:
            raise InputError("homomorphism record needs a map")
        return cls(source, target, data["map"], section=data.get("section"))


class GroupChain:
    """Integer chain in the bar complex: a finite Z-combination of
    degree-tuples of group elements.  Degree-0 cells are the empty tuple."""

    def __init__(self, group, degree, coeffs=None):
        if degree < 0:
            raise InputError("chain degree must be nonnegative")
        self.group = group
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for cell, z in coeffs.items():
                self.add_cell(cell, z)

    def add_cell(self, cell, z=1):
        cell = tuple(cell)
        if len(cell) != self.degree:
            raise InputError("cell length does not match chain degree")
        for g in cell:
            if not isinstance(g, int) or not 0 <= g < self.group.order:
                raise InputError("cell entry is not a group element index")
        if not isinstance(z, int):
            raise InputError("chain coefficients must be integers")
        c = self.coeffs.get(cell, 0) + z
        if c:
            self.coeffs[cell] = c
        else:
            self.coeffs.pop(cell, None)
        return self

    def add(self, other):
        if other.group is not self.group or other.degree != self.degree:
            raise InputError("chain mismatch in addition")
        return _summed_chain(self.group, self.degree,
                             itertools.chain(self.coeffs.items(), other.coeffs.items()))

    def scale(self, z):
        if not isinstance(z, int):
            raise InputError("chain coefficients must be integers")
        return _summed_chain(self.group, self.degree,
                             ((cell, z * c) for cell, c in self.coeffs.items()))

    def sub(self, other):
        return self.add(other.scale(-1))

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, GroupChain)
            and other.group is self.group
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        parts = []
        for cell in sorted(self.coeffs):
            z = self.coeffs[cell]
            lab = ",".join(self.group.labels[g] for g in cell)
            parts.append("%+d(%s)" % (z, lab))
        return "GroupChain(deg=%d: %s)" % (self.degree, " ".join(parts) or "0")


def _summed_chain(group, degree, terms):
    """Chain summing (cell, coefficient) terms whose cells are already known
    to be valid (taken from a checked chain, the group table or a checked
    hom), so nothing is re-checked.  Zero sums are dropped."""
    sums = {}
    get = sums.get
    for cell, z in terms:
        sums[cell] = get(cell, 0) + z
    out = GroupChain(group, degree)
    out.coeffs = {cell: z for cell, z in sums.items() if z}
    return out


def _bar_terms(cell, mul):
    """(face, sign) terms of the bar boundary of one cell,
    d(g_1,...,g_n) = (g_2,...,g_n) + sum_i (-1)^i (g_1,...,g_i g_{i+1},...,g_n)
    + (-1)^n (g_1,...,g_{n-1}), with mul(a, b) the product."""
    yield cell[1:], 1
    sgn = 1
    for i in range(len(cell) - 1):
        sgn = -sgn
        yield cell[:i] + (mul(cell[i], cell[i + 1]),) + cell[i + 2:], sgn
    yield cell[:-1], -sgn


def bar_boundary(chain):
    """Bar-complex boundary d(g_1,...,g_n) =
    (g_2,...,g_n) + sum_i (-1)^i (g_1,...,g_i g_{i+1},...,g_n)
    + (-1)^n (g_1,...,g_{n-1}).  Degree 1 maps to zero.
    """
    if chain.degree == 0:
        raise InputError("degree-0 chains have no boundary")
    op = chain.group.op
    return _summed_chain(chain.group, chain.degree - 1,
                         ((face, sgn * z) for cell, z in chain.coeffs.items()
                          for face, sgn in _bar_terms(cell, op)))


def _all_cells(group, degree):
    cells = [()]
    for _ in range(degree):
        cells = [c + (g,) for c in cells for g in range(group.order)]
    return cells


def _boundary_columns(group, degree):
    """Columns of the bar boundary C_degree -> C_{degree-1} as sparse dicts
    {row: coefficient} over the lexicographic cell bases, with those bases."""
    rows = _all_cells(group, degree - 1)
    cols = _all_cells(group, degree)
    index = {c: i for i, c in enumerate(rows)}
    columns = []
    for cell in cols:
        col = {}
        for face, sgn in _bar_terms(cell, group.op):
            i = index[face]
            col[i] = col.get(i, 0) + sgn
        columns.append({i: z for i, z in col.items() if z})
    return columns, rows, cols


def boundary_matrix(group, degree):
    """Matrix of the bar boundary C_degree -> C_{degree-1} in the lexicographic
    cell basis, as a numpy object array of python ints."""
    columns, rows, cols = _boundary_columns(group, degree)
    mat = np.zeros((len(rows), len(cols)), dtype=object)
    for j, col in enumerate(columns):
        for i, z in col.items():
            mat[i, j] = z
    return mat, rows, cols


def _reduced_boundary(group, degree):
    """The bar boundary D = D_degree with its +-1 pivots eliminated exactly.

    A pivot D[r, c] = +-1 is cleared from the rest of row r by column
    operations; then Z^rows / im D = Z^(rows - r) / im D', with D' the
    matrix left without row r and column c.  The pivot is taken from the
    shortest live column (a heap with lazy re-push) and in it from the
    shortest row, to limit fill-in.  Columns that repeat another up to
    sign are dropped from the residual; the column lattice is unchanged.

    Returns (pivots, residual, cells): the number of pivots, the residual
    as a dense object array, and the (degree-1)-cells labelling its rows.
    """
    columns, faces, _cells = _boundary_columns(group, degree)
    rows = [set() for _ in faces]
    for j, col in enumerate(columns):
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(columns) if col]
    heapq.heapify(heap)
    pivot_rows = set()
    while heap:
        size, j = heapq.heappop(heap)
        col = columns[j]
        if size != len(col):
            continue  # stale: the column changed and was pushed again
        units = [i for i, z in col.items() if z in (1, -1)]
        if not units:
            continue  # parked; an update that changes it pushes it again
        r = min(units, key=lambda i: (len(rows[i]), i))
        p = col[r]
        for k in sorted(rows[r] - {j}):
            other = columns[k]
            f = other[r] * p
            for i, z in col.items():
                v = other.get(i, 0) - f * z
                if v:
                    other[i] = v
                    rows[i].add(k)
                else:
                    del other[i]
                    rows[i].discard(k)
            heapq.heappush(heap, (len(other), k))
        for i in col:
            rows[i].discard(j)
        columns[j] = {}
        pivot_rows.add(r)
    kept = [i for i in range(len(faces)) if i not in pivot_rows]
    position = {i: a for a, i in enumerate(kept)}
    unique = {}
    for col in columns:
        if col:
            key = tuple(sorted(col.items()))
            if key[0][1] < 0:
                key = tuple((i, -z) for i, z in key)
            unique.setdefault(key, None)
    residual = np.zeros((len(kept), len(unique)), dtype=object)
    for j, key in enumerate(unique):
        for i, z in key:
            residual[position[i], j] = z
    return len(pivot_rows), residual, [faces[i] for i in kept]


def smith_normal_form(mat):
    """Smith normal form over Z with unimodular transforms.

    Returns (S, U, V, Uinv, Vinv) with U.dot(A).dot(V) == S, S diagonal with
    nonnegative entries d_1 | d_2 | ..., and U.dot(Uinv) == Vinv.dot(V)... ==
    identity.  Pivoting is deterministic (smallest absolute value, then
    row-major position), all arithmetic on python ints.
    """
    A = np.array(mat, dtype=object)
    if A.ndim != 2:
        raise InputError("smith normal form needs a matrix")
    m, n = A.shape
    U = np.eye(m, dtype=object)
    Uinv = np.eye(m, dtype=object)
    V = np.eye(n, dtype=object)
    Vinv = np.eye(n, dtype=object)

    def row_sub(dst, src, q):
        # row_dst -= q * row_src;  inverse update: col_src += q * col_dst
        A[dst, :] -= q * A[src, :]
        U[dst, :] -= q * U[src, :]
        Uinv[:, src] += q * Uinv[:, dst]

    def col_sub(dst, src, q):
        A[:, dst] -= q * A[:, src]
        V[:, dst] -= q * V[:, src]
        Vinv[src, :] += q * Vinv[dst, :]

    def row_swap(i, j):
        if i != j:
            A[[i, j], :] = A[[j, i], :]
            U[[i, j], :] = U[[j, i], :]
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def col_swap(i, j):
        if i != j:
            A[:, [i, j]] = A[:, [j, i]]
            V[:, [i, j]] = V[:, [j, i]]
            Vinv[[i, j], :] = Vinv[[j, i], :]

    def row_neg(i):
        A[i, :] = -A[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i, j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(pivot[0], t)
        col_swap(pivot[1], t)
        while True:
            if A[t, t] < 0:
                row_neg(t)
            restart = False
            for i in range(t + 1, m):
                if A[i, t] != 0:
                    q = A[i, t] // A[t, t]
                    row_sub(i, t, q)
                    if A[i, t] != 0:
                        row_swap(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t, j] != 0:
                    q = A[t, j] // A[t, t]
                    col_sub(j, t, q)
                    if A[t, j] != 0:
                        col_swap(j, t)
                        restart = True
                        break
            if restart:
                continue
            # divisibility of the remaining block by the pivot
            fixed = False
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i, j] % A[t, t] != 0:
                        row_sub(t, i, -1)
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                break
        t += 1
    return A, U, V, Uinv, Vinv


def snf_divisors(S):
    """Nonzero diagonal entries of a Smith form, in order."""
    out = []
    for i in range(min(S.shape)):
        if S[i, i] != 0:
            out.append(int(S[i, i]))
    return out


class HomologyResult:
    """Rank, torsion invariants and (for torsion) an explicit generating cycle."""

    def __init__(self, group, degree, rank, torsion, generator, divisors):
        self.group = group
        self.degree = degree
        self.rank = rank
        self.torsion = list(torsion)
        self.generator = generator
        self.presentation_divisors = list(divisors)

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def __repr__(self):
        parts = ["Z"] * self.rank + ["Z/%d" % d for d in self.torsion]
        return "H_%d = %s" % (self.degree, " x ".join(parts) or "0")


def homology(group, degree):
    """Integral bar homology H_degree(group; Z) for degree <= 2.

    Returns a HomologyResult; for nontrivial torsion the generator field
    holds an explicit cycle spanning the first torsion factor.
    """
    if degree < 0:
        raise InputError("homology degree must be nonnegative")
    if degree > 2:
        raise InputError("homology implemented for degree at most 2")
    if group.order ** (degree + 1) > MAX_BAR_CELLS:
        raise InputError("group too large for degree")
    if degree == 0:
        return HomologyResult(group, 0, 1, [], None, [])
    # H_n = ker D_n / im D_{n+1}.  ker D_n is a direct summand of C_n
    # containing im D_{n+1}, so coker D_{n+1} = C_n / ker D_n (+) H_n and
    # D_{n+1} has the divisors of any presentation of H_n.  A torsion class
    # u of coker D_{n+1} is a cycle: d u in im D_{n+1} gives d D_n u = 0.
    pivots, residual, cells = _reduced_boundary(group, degree + 1)
    S, _U, _V, Uinv, _Vinv = smith_normal_form(residual)
    reduced = snf_divisors(S)
    divisors = [1] * pivots + reduced
    rank = group.order ** degree - _boundary_rank(group, degree) - len(divisors)
    torsion = [d for d in divisors if d > 1]
    generator = None
    if torsion:
        jt = reduced.index(torsion[0])
        generator = _vector_to_chain(group, degree, cells, Uinv[:, jt])
    return HomologyResult(group, degree, rank, torsion, generator, divisors)


def _boundary_rank(group, degree):
    pivots, residual, _cells = _reduced_boundary(group, degree)
    return pivots + len(snf_divisors(smith_normal_form(residual)[0]))


def _vector_to_chain(group, degree, cells, vec):
    return _summed_chain(group, degree,
                         ((cell, int(z)) for cell, z in zip(cells, vec) if z))


def cycle_basis(group, degree):
    """Integer basis of the degree-cycles, as a list of GroupChain."""
    if group.order ** degree > MAX_BAR_CELLS:
        raise InputError("group too large for degree")
    D, _, cells = boundary_matrix(group, degree)
    S, _U, V, _Uinv, _Vinv = smith_normal_form(D)
    r = len(snf_divisors(S))
    return [_vector_to_chain(group, degree, cells, V[:, j])
            for j in range(r, V.shape[1])]


class KernelQuotient:
    """ker(phi) modulo the normal subgroup generated by commutators [g, k]
    with g in G and k in ker(phi).  Classes carry minimal-index representatives.
    """

    def __init__(self, hom):
        G = hom.source
        self.hom = hom
        self.kernel = hom.kernel()
        kset = set(self.kernel)
        gens = set()
        for g in range(G.order):
            for k in self.kernel:
                gens.add(G.commutator(g, k))
        self.gamma = G.subgroup_closure(gens)
        if any(c not in kset for c in self.gamma):
            raise InvariantViolation("commutator subgroup escapes the kernel")
        gset = self.gamma
        self._rep = {}
        for k in self.kernel:
            self._rep[k] = min(G.op(k, c) for c in gset)
        self.classes = sorted(set(self._rep.values()))

    def rep(self, g):
        if g not in self._rep:
            raise InputError("element is not in the kernel")
        return self._rep[g]

    @property
    def identity(self):
        return self._rep[self.hom.source.identity]

    def label(self, rep):
        return self.hom.source.labels[rep]


def _kernel_quotient(hom):
    if hom._quotient is None:
        hom._quotient = KernelQuotient(hom)
    return hom._quotient


def f_phi_section(hom, cycle, section=None):
    """Class of a 2-cycle x = sum z_i (a_i, b_i) over the target in
    ker(phi)/[G, ker(phi)]: expand coefficients into plus and minus lists,
    multiply the defect terms t(a) t(b) t(ab)^{-1} over the plus list and
    divide by the product over the minus list.

    Returns the minimal-index representative of the class.
    """
    G, H = hom.source, hom.target
    if cycle.group is not H or cycle.degree != 2:
        raise InputError("not a 2-cycle")
    if not bar_boundary(cycle).is_zero():
        raise InputError("not a 2-cycle")
    t = list(section) if section is not None else hom.section_table()
    if len(t) != H.order or any(hom.mapping[t[h]] != h for h in range(H.order)):
        raise InputError("section is not a right inverse of the map")
    plus, minus = [], []
    for (a, b), z in sorted(cycle.coeffs.items()):
        if z > 0:
            plus.extend([(a, b)] * z)
        else:
            minus.extend([(a, b)] * (-z))
    # genuine cycles are balanced; pad degenerate inputs with identity cells
    while len(plus) < len(minus):
        plus.append((H.identity, H.identity))
    while len(minus) < len(plus):
        minus.append((H.identity, H.identity))

    def defect(a, b):
        return G.op(G.op(t[a], t[b]), G.inv(t[H.op(a, b)]))

    quot = _kernel_quotient(hom)
    num = G.prod(defect(a, b) for a, b in plus)
    den = G.prod(defect(a, b) for a, b in minus)
    return quot.rep(G.op(num, G.inv(den)))


class ConeChain:
    """Degree-n chain (y, x) of the mapping cone of phi: y lives over the
    target in degree n+1, x over the source in degree n."""

    def __init__(self, hom, y, x):
        if y.group is not hom.target or x.group is not hom.source:
            raise InputError("cone chain components over the wrong groups")
        if y.degree != x.degree + 1:
            raise InputError("cone chain degrees are inconsistent")
        self.hom = hom
        self.y = y
        self.x = x

    @property
    def degree(self):
        return self.x.degree

    def boundary(self):
        """d(y, x) = (d y + phi_* x, -d x)."""
        y_part = bar_boundary(self.y).add(self.hom.push(self.x))
        if self.x.degree == 0:
            raise InputError("degree-0 cone chains have no boundary")
        x_part = bar_boundary(self.x).scale(-1)
        return ConeChain(self.hom, y_part, x_part)

    def is_zero(self):
        return self.y.is_zero() and self.x.is_zero()

    def add(self, other):
        return ConeChain(self.hom, self.y.add(other.y), self.x.add(other.x))

    def scale(self, z):
        return ConeChain(self.hom, self.y.scale(z), self.x.scale(z))


def boundary_to_relative(cycle, hom):
    """Connecting map on a 2-cycle x over the target: lift through the section
    and return the degree-1 cone cycle (0, -d(t_* x))."""
    if cycle.group is not hom.target or cycle.degree != 2:
        raise InputError("not a 2-cycle")
    if not bar_boundary(cycle).is_zero():
        raise InputError("not a 2-cycle")
    lifted = hom.lift(cycle)
    return ConeChain(
        hom,
        GroupChain(hom.target, 2),
        bar_boundary(lifted).scale(-1),
    )


class CokerChain:
    """Chain in the fibered cokernel complex, basepoint-normalized.

    A formal sum of pairs (g1, g2) with phi_*(g1) = phi_*(g2) modulo the
    relation (g1,g2) + (g2,g3) ~ (g1,g3) is determined by the integer chain
    sum z (g1 - g2) over the source; per fiber the coefficients sum to zero.
    """

    def __init__(self, hom, degree, coeffs=None):
        self.hom = hom
        self.chain = GroupChain(hom.source, degree, coeffs)
        fibers = {}
        for cell, z in self.chain.coeffs.items():
            key = tuple(hom.mapping[g] for g in cell)
            fibers[key] = fibers.get(key, 0) + z
        if any(v != 0 for v in fibers.values()):
            raise InputError("cokernel chain is not fiberwise balanced")

    @property
    def degree(self):
        return self.chain.degree

    @classmethod
    def from_pairs(cls, hom, degree, pairs):
        """pairs: iterable of (cell1, cell2, z) with matching fiber images."""
        chain = GroupChain(hom.source, degree)
        for c1, c2, z in pairs:
            c1, c2 = tuple(c1), tuple(c2)
            if tuple(hom.mapping[g] for g in c1) != tuple(hom.mapping[g] for g in c2):
                raise InputError("pair components lie in different fibers")
            chain.add_cell(c1, z)
            chain.add_cell(c2, -z)
        return cls(hom, degree, chain.coeffs)

    def boundary(self):
        if self.degree == 0:
            raise InputError("degree-0 chains have no boundary")
        return CokerChain(self.hom, self.degree - 1, bar_boundary(self.chain).coeffs)

    def is_zero(self):
        return self.chain.is_zero()

    def add(self, other):
        return CokerChain(self.hom, self.degree, self.chain.add(other.chain).coeffs)

    def scale(self, z):
        return CokerChain(self.hom, self.degree, self.chain.scale(z).coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CokerChain)
            and other.hom is self.hom
            and other.chain == self.chain
        )


def coker_representative(cone, hom=None):
    """Invert the quasi-isomorphism onto the cokernel complex in degree 1.

    A cone cycle (y, x) is homologous to (0, x + d(t_* y)); the second slot
    must then be fiberwise balanced, and the result is its cokernel class.
    """
    hom = hom or cone.hom
    if cone.hom is not hom:
        raise InputError("cone chain does not belong to this homomorphism")
    if cone.degree != 1:
        raise InputError("representative extraction implemented in degree 1")
    adjusted = cone.x.add(bar_boundary(hom.lift(cone.y)))
    fibers = {}
    for (g,), z in adjusted.coeffs.items():
        key = hom.mapping[g]
        fibers[key] = fibers.get(key, 0) + z
    if any(v != 0 for v in fibers.values()):
        raise InvariantViolation("not in image")
    return CokerChain(hom, 1, adjusted.coeffs)


def psi(coker_chain):
    """Isomorphism H_1(Coker) -> ker(phi)/[G, ker(phi)]: send each pair
    (g1, g2) to g1 g2^{-1}.  Basepoints b = t(phi(g)) pair the normalized
    chain; any other pairing gives the same class.

    Returns the minimal-index representative.
    """
    if coker_chain.degree != 1:
        raise InputError("psi is defined on degree-1 chains")
    hom = coker_chain.hom
    G = hom.source
    t = hom.section_table()
    quot = _kernel_quotient(hom)
    out = G.identity
    for (g,), z in sorted(coker_chain.chain.coeffs.items()):
        base = t[hom.mapping[g]]
        k = G.op(g, G.inv(base))
        out = G.op(out, G.power(k, z))
    return quot.rep(out)


def builtin_catalog():
    """Named surjections with stored sections, all small enough for degree-2
    homology.  Keys are 'source->target' strings."""
    z2 = FiniteGroup.cyclic(2)
    z4 = FiniteGroup.cyclic(4)
    z2z2 = FiniteGroup.direct_product(z2, z2)
    d4 = FiniteGroup.dihedral(4)
    q8 = FiniteGroup.quaternion()
    s3 = FiniteGroup.dihedral(3)
    s3.name = "S3"
    cat = {}
    cat["Z4->Z2"] = GroupHom(z4, z2, [g % 2 for g in range(4)], section=[0, 1])
    cat["Z2xZ2->Z2"] = GroupHom(z2z2, z2, [g // 2 for g in range(4)], section=[0, 2])
    # D4 = <r, s>; phi(flip, k) = (k mod 2, flip) in Z2 x Z2
    d4_map = [2 * (k % 2) + f for f in range(2) for k in range(4)]
    cat["D4->Z2xZ2"] = GroupHom(d4, z2z2, d4_map, section=[0, 4, 1, 5])
    # Q8 -> Q8/{+-1}; +-i -> (1,0), +-j -> (0,1), +-k -> (1,1)
    cat["Q8->Z2xZ2"] = GroupHom(q8, z2z2, [0, 0, 2, 2, 1, 1, 3, 3], section=[0, 4, 2, 6])
    cat["S3->Z2"] = GroupHom(s3, z2, [g // 3 for g in range(6)], section=[0, 3])
    return cat


def load_catalog_file(path):
    """Read a JSON catalog file: {"groups": {name: record}, "surjections":
    {name: {"source": ..., "target": ..., "map": ..., "section": ...}}}."""
    with open(path, "r") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError("catalog must be a JSON object")
    groups = {}
    for name, rec in data.get("groups", {}).items():
        groups[name] = FiniteGroup.from_json(rec)
        groups[name].name = name
    homs = {}
    for name, rec in data.get("surjections", {}).items():
        if not isinstance(rec, dict) or "source" not in rec or "target" not in rec:
            raise InputError("surjection record needs source and target")
        src = groups.get(rec["source"])
        tgt = groups.get(rec["target"])
        if src is None or tgt is None:
            raise InputError("surjection references an unknown group")
        homs[name] = GroupHom.from_json(
            {k: v for k, v in rec.items() if k in ("map", "section")}, src, tgt
        )
    return groups, homs
