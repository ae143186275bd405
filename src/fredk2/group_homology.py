"""Homology of finite groups, bar chains and relative cycle machinery.

Integer chain complexes of finite groups in the inhomogeneous bar model,
Smith normal form over Z, low-degree homology (n <= 2), and the relative
constructions attached to a surjection phi: G -> H with a set-theoretic
section t:

  * the mapping cone complex of phi,
  * the fibered cokernel complex in basepoint-normalized form,
  * the boundary / section map sending a 2-cycle x over H to the class
    f_phi(x) in ker(phi) modulo commutators [g, k].

H_1 and H_2 are read off one Cayley-graph presentation, built sparse from
the multiplication table: the +-1 pivots are eliminated exactly
(Dumas-Saunders-Villard) and only the small residual goes through the
Smith normal form.  The Smith form records its elementary operations, and
each caller replays only the transform it reads.  The bar complex is the
unnormalized one, with its faces written out for degrees 1 to 3; a chain
of higher degree is refused.

All arithmetic is exact (python ints).  Groups are given by index tables;
elements are indices 0..order-1.
"""

import heapq
import itertools

import numpy as np

from ._errors import InputError, InvariantViolation, read_json
from .fourier_loops import _is_index

# Bar cells of one degree, capped in boundary_matrix (cycle_basis needs the 2-cells).
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
                if type(v) is not int or not 0 <= v < n:
                    raise InputError("group table entry out of range")
        self.order = n
        self.table = [list(row) for row in table]
        ident = next((e for e in range(n) if all(
            self.table[e][x] == x and self.table[x][e] == x for x in range(n))), None)
        if ident is None:
            raise InputError("group table has no identity")
        self.identity = ident
        inv = [row.index(ident) if ident in row else None for row in self.table]
        if any(b is None or self.table[b][a] != ident for a, b in enumerate(inv)):
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
        self.labels = [str(s) for s in (range(n) if labels is None else labels)]
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise InputError("group labels must be distinct, one per element")
        self.name = name

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        """g x g^{-1}."""
        return self.table[self.table[g][x]][self._inv[g]]

    def commutator(self, a, b):
        """a b a^{-1} b^{-1}."""
        tab, inv = self.table, self._inv
        return tab[tab[a][b]][tab[inv[a]][inv[b]]]

    def power(self, g, k):
        """g^k in k mod |G| products, since g^|G| is the identity."""
        out = self.identity
        for _ in range(k % self.order):
            out = self.table[out][g]
        return out

    def subgroup_closure(self, gens):
        """Smallest subgroup containing gens, as a sorted list: the identity
        closed under right multiplication by gens, which in a finite group
        reaches every element of the subgroup."""
        gens = set(gens)
        closed = {self.identity}
        reached = [self.identity]
        for a in reached:  # grows while it is read
            for g in gens:
                p = self.table[a][g]
                if p not in closed:
                    closed.add(p)
                    reached.append(p)
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
        """G1 x G2 with componentwise product; index = a * |G2| + b."""
        n1, n2 = g1.order, g2.order
        t1, t2 = g1.table, g2.table
        pairs = [divmod(x, n2) for x in range(n1 * n2)]
        table = [[t1[a1][a2] * n2 + t2[b1][b2] for a2, b2 in pairs]
                 for a1, b1 in pairs]
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
        """Symmetries of the regular n-gon, order 2n.  Index = flip*n + k, and
        (f1, k1)(f2, k2) = (f1 xor f2, (-1)^f2 k1 + k2 mod n)."""
        if n < 1:
            raise InputError("dihedral parameter must be positive")
        elements = [divmod(x, n) for x in range(2 * n)]
        table = [[(f1 ^ f2) * n + ((-1) ** f2 * k1 + k2) % n for f2, k2 in elements]
                 for f1, k1 in elements]
        labels = ["e"] + ["r%d" % k for k in range(1, n)]
        labels += ["s"] + ["sr%d" % k for k in range(1, n)]
        return cls(table, labels=labels, name="D%d" % n)

    @classmethod
    def quaternion(cls):
        """The quaternion group {+-1, +-i, +-j, +-k}, index = 2*letter + sign
        with letters 1, i, j, k = 0..3: i^2 = j^2 = k^2 = -1, ij = k, jk = i,
        ki = j, and each reversed product is negated."""

        def product(x, y):  # the letters multiply as Z2 x Z2, up to sign
            (l1, s1), (l2, s2) = divmod(x, 2), divmod(y, 2)
            neg = l1 and l2 and (l1 == l2 or (l2 - l1) % 3 == 2)
            return 2 * (l1 ^ l2) + (s1 + s2 + neg) % 2

        table = [[product(x, y) for y in range(8)] for x in range(8)]
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
        table, labels = data["table"], data.get("labels")
        if type(data["order"]) is not int:
            raise InputError("group order must be an integer")
        if not isinstance(table, list) or len(table) != data["order"]:
            raise InputError("group table does not match declared order")
        if not all(isinstance(row, list) for row in table):
            raise InputError("group table rows must be lists")
        if labels is not None and not (isinstance(labels, list) and all(
                isinstance(s, (str, int, float)) for s in labels)):
            raise InputError("group labels must be a list of strings or numbers")
        return cls(table, labels=labels, name=data.get("name"))


class GroupHom:
    """Homomorphism given by an index map, with an optional section table.

    The section, when present, satisfies phi(t(h)) = h for all h and is used
    for lifting chains; it need not be a homomorphism.
    """

    def __init__(self, source, target, mapping, section=None):
        if len(mapping) != source.order:
            raise InputError("homomorphism map must list one image per element")
        for v in mapping:
            if type(v) is not int or not 0 <= v < target.order:
                raise InputError("homomorphism image out of range")
        for a, row in enumerate(source.table):
            image_row = target.table[mapping[a]]
            if any(mapping[ab] != image_row[mapping[b]] for b, ab in enumerate(row)):
                raise InputError("map is not a homomorphism")
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        self.section = None if section is None else self._checked_section(section)
        self._quotient = None

    def _checked_section(self, section):
        """section as a list, checked to be a right inverse of the map: one
        source element index t(h) per target element h, with phi(t(h)) = h."""
        section = list(section)
        if len(section) != self.target.order:
            raise InputError("section must list one lift per target element")
        for h, g in enumerate(section):
            if type(g) is not int or not 0 <= g < self.source.order:
                raise InputError("section entry out of range")
            if self.mapping[g] != h:
                raise InputError("section is not a right inverse of the map")
        return section

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
        return _mapped_chain(chain, self.target, self.mapping)

    def lift(self, chain):
        """Section lift t_*: apply the section to every tuple coordinate."""
        if chain.group is not self.target:
            raise InputError("chain group does not match homomorphism target")
        return _mapped_chain(chain, self.source, self.section_table())

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
        mapping, section = data["map"], data.get("section")
        if not isinstance(mapping, list) or not isinstance(section, (list, type(None))):
            raise InputError("homomorphism map and section must be lists")
        return cls(source, target, mapping, section=section)


class GroupChain:
    """Integer chain in the bar complex: a finite Z-combination of
    degree-tuples of group elements.  Degree-0 cells are the empty tuple.
    coeffs is a validated {cell: nonzero int} map; chain operations build
    their results unchecked (``_of``) and never share an operand's map."""

    def __init__(self, group, degree, coeffs=None):
        if not (_is_index(degree) and degree >= 0):
            raise InputError("chain degree must be a nonnegative integer")
        self.group = group
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for cell, z in coeffs.items():
                self.add_cell(cell, z)

    def add_cell(self, cell, z=1):
        cell = tuple(cell)
        if len(cell) != self.degree:
            raise InputError("cell length does not match chain degree")
        for g in cell:
            if type(g) is not int or not 0 <= g < self.group.order:
                raise InputError("cell entry is not a group element index")
        if not isinstance(z, int):
            raise InputError("chain coefficients must be integers")
        c = self.coeffs.get(cell, 0) + z
        if c:
            self.coeffs[cell] = c
        else:
            self.coeffs.pop(cell, None)
        return self

    @classmethod
    def _of(cls, group, degree, coeffs):
        """Chain owning coeffs, a fresh {valid cell: nonzero int} map, unchecked."""
        out = cls.__new__(cls)
        out.group, out.degree, out.coeffs = group, degree, coeffs
        return out

    def add(self, other):
        if other.group is not self.group or other.degree != self.degree:
            raise InputError("chain mismatch in addition")
        out = dict(self.coeffs)
        for cell, z in other.coeffs.items():
            c = out.get(cell, 0) + z
            if c:
                out[cell] = c
            else:
                del out[cell]
        return GroupChain._of(self.group, self.degree, out)

    def scale(self, z):
        if not isinstance(z, int):
            raise InputError("chain coefficients must be integers")
        return GroupChain._of(self.group, self.degree,
                              {cell: z * c for cell, c in self.coeffs.items()} if z else {})

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


def _mapped_chain(chain, group, images):
    """chain with every coordinate g replaced by images[g], over group.  The
    images come from a checked hom, so nothing is re-checked; zero sums drop."""
    sums = {}
    for cell, z in chain.coeffs.items():
        cell = tuple(map(images.__getitem__, cell))
        sums[cell] = sums.get(cell, 0) + z
    return GroupChain._of(group, chain.degree, {cell: z for cell, z in sums.items() if z})


def _bar_terms(cell, table):
    """(face, sign) terms of the bar boundary of a cell of degree <= 3, with
    products table[a][b]: d(a) = () - () (and likewise for the 0-cell),
    d(a, b) = (b) - (ab) + (a), d(a, b, c) = (b, c) - (ab, c) + (a, bc) - (a, b).
    A higher cell is refused: nothing builds one."""
    n = len(cell)
    if n == 2:
        a, b = cell
        return ((b,), 1), ((table[a][b],), -1), ((a,), 1)
    if n == 3:
        a, b, c = cell
        return ((b, c), 1), ((table[a][b], c), -1), ((a, table[b][c]), 1), ((a, b), -1)
    if n > 3:
        raise InputError("bar boundary implemented for degree at most 3")
    return ((), 1), ((), -1)


def bar_boundary(chain):
    """Bar-complex boundary of a chain of degree 1 to 3, face by face as in
    _bar_terms; degree 1 maps to zero."""
    if chain.degree == 0:
        raise InputError("degree-0 chains have no boundary")
    table = chain.group.table
    sums = {}
    for cell, z in chain.coeffs.items():
        for face, sgn in _bar_terms(cell, table):
            sums[face] = sums.get(face, 0) + sgn * z
    return GroupChain._of(chain.group, chain.degree - 1,
                          {face: z for face, z in sums.items() if z})


def _all_cells(group, degree):
    cells = [()]
    for _ in range(degree):
        cells = [c + (g,) for c in cells for g in range(group.order)]
    return cells


def boundary_matrix(group, degree):
    """Matrix of the bar boundary C_degree -> C_{degree-1} in the lexicographic
    cell bases, as a numpy object array of python ints, with those bases.
    Every bar boundary is built here, so its degree and the MAX_BAR_CELLS
    cap on its |G|^degree columns are checked here alone."""
    if not (_is_index(degree) and degree >= 0):
        raise InputError("boundary/cycle degree must be a nonnegative integer")
    degree = int(degree)
    if group.order ** degree > MAX_BAR_CELLS:
        raise InputError("group too large for degree")
    rows = _all_cells(group, degree - 1)
    cols = _all_cells(group, degree)
    index = {c: i for i, c in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=object)
    for j, cell in enumerate(cols):
        for face, sgn in _bar_terms(cell, group.table):
            mat[index[face], j] += sgn
    return mat, rows, cols


def _reduced_boundary(columns, nrows):
    """The integer matrix D with the given sparse columns ({row: coefficient}
    over nrows rows, consumed) with its +-1 pivots eliminated exactly.

    A pivot D[r, c] = +-1 is cleared from the rest of row r by column
    operations; then Z^rows / im D = Z^(rows - r) / im D', with D' the
    matrix left without row r and column c.  The pivot is taken from the
    shortest live column (a heap with lazy re-push) and in it from the
    shortest row, to limit fill-in.  Columns that repeat another up to
    sign are dropped from the residual; the column lattice is unchanged.

    Returns (residual, kept): the residual as a dense object array, and
    the indices of the rows of D it keeps.
    """
    rows = [set() for _ in range(nrows)]
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
        units = [i for i, z in col.items() if z == 1 or z == -1]
        if not units:
            continue  # parked; an update that changes it pushes it again
        r = min(units, key=lambda i: (len(rows[i]), i))
        p = col.pop(r)
        rest = list(col.items())
        # updates commute (each reads column j and its own); entry r cancels
        rows[r].discard(j)
        for k in rows[r]:
            other = columns[k]
            f = other.pop(r) * p
            for i, z in rest:
                v = other.get(i)
                if v is None:
                    other[i] = -f * z
                    rows[i].add(k)
                elif v != f * z:
                    other[i] = v - f * z
                else:
                    del other[i]
                    rows[i].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
        for i, _z in rest:
            rows[i].discard(j)
        columns[j] = {}
        pivot_rows.add(r)
    kept = [i for i in range(nrows) if i not in pivot_rows]
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
    return residual, kept


def _presentation(group, degree):
    """(columns, rows) of H_degree, for degree 1 or 2, from one presentation.

    Generators S: the elements, in index order, outside the subgroup of
    those before.  A BFS tree of the Cayley graph spells each h as w_h, and
    each non-tree edge e = (h, s) closes c_e = w_h s w_{hs}^-1, a basis of
    R_ab.  H_1 = F / R[F, F] is the cokernel of R_ab -> F_ab: one column per
    c_e, its exponent sums over S, and rows[s] the bar 1-cell [s], a cycle
    with [a] + [b] = [ab] modulo im D_2.  H_2 is Hopf's (R & [F, F]) / [F, R]:
    the columns g c_e - c_e (g in S), read on the non-tree edges, span
    [F, R] / [R, R], so the torsion of their cokernel R / [F, R] is H_2.
    rows[e] holds the terms of
    sum_{i >= 2} [p_{i-1} | y_i] - sum [u | u^-1] - (q - 1) [1 | 1] over
    c_e's letters y_i, prefixes p_i and q inverse letters u^-1: a bar
    2-chain with boundary sum_u (exponent sum of u) [u].
    """
    table, inv, one = group.table, group._inv, group.identity
    gens, closure = [], {one}
    for g in range(group.order):
        if g not in closure:
            gens.append(g)
            closure = set(group.subgroup_closure(gens))
    words, queue = {one: []}, [one]
    for h in queue:  # grows while it is read, in BFS order
        for s in gens:
            if table[h][s] not in words:
                words[table[h][s]] = words[h] + [s]
                queue.append(table[h][s])
    edges = [(h, s) for h in queue for s in gens if words[table[h][s]] != words[h] + [s]]

    def read(col, v, h, s, basis):
        """col plus c_e's two paths from v to v w_h s (w_h s forward, w_hs
        back): the letter y leaving vertex u adds its sign to basis[u, y]."""
        for word, z in ((words[h] + [s], 1), (words[table[h][s]], -1)):
            u = v
            for y in word:
                if (u, y) in basis:
                    col[basis[u, y]] = col.get(basis[u, y], 0) + z
                u = table[u][y]
        return {i: z for i, z in col.items() if z}

    if degree == 1:
        by_letter = {(u, s): a for u in queue for a, s in enumerate(gens)}
        return [read({}, one, h, s, by_letter) for h, s in edges], [[((s,), 1)] for s in gens]
    index = {e: i for i, e in enumerate(edges)}
    columns = [read({i: -1}, g, h, s, index) for g in gens for i, (h, s) in enumerate(edges)]
    rows = []
    for h, s in edges:
        back = words[table[h][s]]
        letters = words[h] + [s] + [inv[u] for u in reversed(back)]
        prefixes = itertools.accumulate(letters, lambda p, y: table[p][y])
        rows.append([((one, one), 1 - len(back))] + [((u, inv[u]), -1) for u in back]
                    + [((p, y), 1) for p, y in zip(prefixes, letters[1:])])
    return columns, rows


def _apply(M, op):
    """Apply one elementary row operation to M in place: (dst, src, q) is
    row dst -= q * row src, (i, j) swaps rows i and j, (i,) negates row i.
    The same call on M.T is the column operation."""
    if len(op) == 3:
        M[op[0], :] -= op[2] * M[op[1], :]
    elif len(op) == 2:
        M[list(op), :] = M[op[::-1], :]
    else:
        M[op[0], :] = -M[op[0], :]


def _smith(mat):
    """(S, row_ops, col_ops): the Smith form S of mat and the elementary
    operations (see ``_apply``) that reach it, each list in the order applied,
    the column ones as row operations on the transpose.  Only A changes."""
    A = np.array(mat, dtype=object)
    if A.ndim != 2:
        raise InputError("smith normal form needs a matrix")
    m, n = A.shape
    row_ops, col_ops = [], []

    def do(ops, *op):
        _apply(A if ops is row_ops else A.T, op)
        ops.append(op)

    for t in range(min(m, n)):
        block = np.abs(A[t:, t:])
        block[block == 0] = np.inf  # zeros are never the pivot
        k = int(np.argmin(block))  # the first minimum in row-major order
        if block.flat[k] == np.inf:
            break
        do(row_ops, t + k // (n - t), t)
        do(col_ops, t + k % (n - t), t)
        while True:
            if A[t, t] < 0:
                do(row_ops, t)
            # clear column t, then row t; a nonzero remainder is a smaller
            # pivot: swap it in and start over
            for i in range(t + 1, m):
                if A[i, t]:
                    do(row_ops, i, t, A[i, t] // A[t, t])
                    if A[i, t]:
                        do(row_ops, i, t)
                        break
            else:
                # column t is now zero off row t, so the column operation
                # col j -= q * col t changes A[t, j] alone
                for j in range(t + 1, n):
                    if A[t, j]:
                        q, A[t, j] = divmod(A[t, j], A[t, t])
                        col_ops.append((j, t, q))
                        if A[t, j]:
                            do(col_ops, j, t)
                            break
                else:
                    # divisibility of the remaining block by the pivot: add
                    # the first failing row to row t and start over
                    bad = np.flatnonzero((A[t + 1:, t + 1:] % A[t, t] != 0).any(axis=1))
                    if not bad.size:
                        break
                    do(row_ops, t, t + 1 + int(bad[0]), -1)
    return A, row_ops, col_ops


def _replay(ops, size, inverse=False):
    """The recorded row operations E_1, ..., E_k applied in order to the
    size x size identity: E_k ... E_1.  With inverse, each is replaced by its
    inverse transpose (row dst -= q * row src by row src += q * row dst;
    swaps and negations are their own), giving (E_1^-1 ... E_k^-1)^T."""
    M = np.eye(size, dtype=object)
    for op in ops:
        _apply(M, (op[1], op[0], -op[2]) if inverse and len(op) == 3 else op)
    return M


def smith_normal_form(mat):
    """Smith normal form over Z with unimodular transforms.

    Returns (S, U, V, Uinv, Vinv) with U.dot(A).dot(V) == S, S diagonal with
    nonnegative entries d_1 | d_2 | ..., U.dot(Uinv) == I and Vinv.dot(V) == I.
    Pivoting is deterministic (smallest absolute value, then row-major
    position), all arithmetic on python ints.  Each transform is the
    pivot loop's recorded operations replayed on the identity.
    """
    S, row_ops, col_ops = _smith(mat)
    m, n = S.shape
    return (S, _replay(row_ops, m), _replay(col_ops, n).T,
            _replay(row_ops, m, inverse=True).T, _replay(col_ops, n, inverse=True))


def snf_divisors(S):
    """Nonzero diagonal entries of a Smith form, in order."""
    return [int(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0]


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


def homology(group, degree):
    """Integral homology H_degree(group; Z) for degree <= 2, both degrees
    from one Cayley-graph presentation (``_presentation``), which builds no
    bar cell.  Returns a HomologyResult; for nontrivial torsion the generator
    field holds an explicit bar cycle spanning the first torsion factor."""
    if not (_is_index(degree) and degree >= 0):
        raise InputError("homology degree must be a nonnegative integer")
    degree = int(degree)
    if degree > 2:
        raise InputError("homology implemented for degree at most 2")
    if degree == 0:
        return HomologyResult(group, 0, 1, [], None, [])
    columns, rows = _presentation(group, degree)
    residual, kept = _reduced_boundary(columns, len(rows))
    S, row_ops, _col_ops = _smith(residual)
    reduced = snf_divisors(S)
    torsion = [d for d in reduced if d > 1]
    # ker D_n is a direct summand of C_n containing im D_{n+1}, so D_{n+1}
    # has the divisors of any presentation of H_n: 1s, then the torsion,
    # rank D_{n+1} in all.  D_1 = 0 and H_1 is finite, so rank D_2 = |G|;
    # H_2 is finite, so rank D_3 = |G|^2 - |G|.
    rank = group.order if degree == 1 else group.order ** 2 - group.order
    divisors = [1] * (rank - len(torsion)) + torsion
    generator = None
    if torsion:
        # row jt of the inverse replay is column jt of Uinv, a torsion class u,
        # of exponent sums 0 in degree 2; sum u_s [s] has u's order in degree 1
        vec = _replay(row_ops, len(kept), inverse=True)[reduced.index(torsion[0])]
        generator = GroupChain(group, degree)
        for i, z in zip(kept, vec):
            for cell, sign in rows[i] if z else ():
                generator.add_cell(cell, sign * int(z))
    # H_n of a finite group is |G|-torsion for n >= 1: rank 0
    return HomologyResult(group, degree, 0, torsion, generator, divisors)


def cycle_basis(group, degree):
    """Integer basis of the degree-cycles, as a list of GroupChain."""
    D, _, cells = boundary_matrix(group, degree)
    S, _row_ops, col_ops = _smith(D)
    r = len(snf_divisors(S))
    v_t = _replay(col_ops, len(cells))  # the columns of V as rows
    return [GroupChain._of(group, int(degree), {c: int(z) for c, z in zip(cells, v_t[j]) if z})
            for j in range(r, len(cells))]


class KernelQuotient:
    """ker(phi) modulo the normal subgroup generated by commutators [g, k]
    with g in G and k in ker(phi).  Classes carry minimal-index representatives.
    """

    def __init__(self, hom):
        G = hom.source
        self.hom = hom
        self.kernel = hom.kernel()
        self.gamma = G.subgroup_closure(
            {G.commutator(g, k) for g in range(G.order) for k in self.kernel})
        self._rep = {k: min(G.table[k][c] for c in self.gamma) for k in self.kernel}
        self.classes = sorted(set(self._rep.values()))

    def rep(self, g):
        if g not in self._rep:
            raise InputError("element is not in the kernel")
        return self._rep[g]

    @property
    def identity(self):
        return self._rep[self.hom.source.identity]


def _kernel_quotient(hom):
    if hom._quotient is None:
        hom._quotient = KernelQuotient(hom)
    return hom._quotient


def f_phi_section(hom, cycle, section=None):
    """Class of a 2-cycle x = sum z_i (a_i, b_i) over the target in
    ker(phi)/[G, ker(phi)]: with d_i = t(a_i) t(b_i) t(a_i b_i)^{-1} the
    defect of cell i, multiply the powers d_i^{z_i} of the positive cells
    and divide by the product of the powers d_i^{-z_i} of the negative ones.
    A given section t is checked as GroupHom checks its own.

    Returns the minimal-index representative of the class.
    """
    G, H = hom.source, hom.target
    if cycle.group is not H or cycle.degree != 2:
        raise InputError("not a 2-cycle")
    if not bar_boundary(cycle).is_zero():
        raise InputError("not a 2-cycle")
    t = hom.section_table() if section is None else hom._checked_section(section)
    tab, inv = G.table, G._inv
    num = den = G.identity
    for (a, b), z in sorted(cycle.coeffs.items()):
        d = tab[tab[t[a]][t[b]]][inv[t[H.table[a][b]]]]
        if z > 0:
            num = tab[num][G.power(d, z)]
        else:
            den = tab[den][G.power(d, -z)]
    return _kernel_quotient(hom).rep(tab[num][inv[den]])


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
        if self.x.degree == 0:
            raise InputError("degree-0 cone chains have no boundary")
        y_part = bar_boundary(self.y).add(self.hom.push(self.x))
        x_part = bar_boundary(self.x).scale(-1)
        return ConeChain(self.hom, y_part, x_part)

    def is_zero(self):
        return self.y.is_zero() and self.x.is_zero()

    def add(self, other):
        return ConeChain(self.hom, self.y.add(other.y), self.x.add(other.x))


def boundary_to_relative(cycle, hom):
    """Connecting map on a 2-cycle x over the target: lift through the section
    and return the degree-1 cone cycle (0, -d(t_* x))."""
    if cycle.group is not hom.target or cycle.degree != 2:
        raise InputError("not a 2-cycle")
    boundary = bar_boundary(hom.lift(cycle))
    # phi_* is a chain map and phi t = id, so phi_* d(t_* x) = dx
    if not hom.push(boundary).is_zero():
        raise InputError("not a 2-cycle")
    return ConeChain(hom, GroupChain(hom.target, 2), boundary.scale(-1))


class CokerChain:
    """Chain in the fibered cokernel complex, basepoint-normalized.

    A formal sum of pairs (g1, g2) with phi_*(g1) = phi_*(g2) modulo the
    relation (g1,g2) + (g2,g3) ~ (g1,g3) is determined by the integer chain
    sum z (g1 - g2) over the source; per fiber the coefficients sum to zero.
    """

    def __init__(self, hom, degree, coeffs=None):
        self.hom = hom
        self.chain = GroupChain(hom.source, degree, coeffs)
        if not hom.push(self.chain).is_zero():
            raise InputError("cokernel chain is not fiberwise balanced")

    @classmethod
    def _of(cls, hom, chain):
        """Cokernel chain owning chain, a checked chain over the source
        whose map nothing else holds; only the fiber balance is checked."""
        out = cls.__new__(cls)
        out.hom, out.chain = hom, chain
        if not hom.push(chain).is_zero():
            raise InputError("cokernel chain is not fiberwise balanced")
        return out

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
        return CokerChain._of(self.hom, bar_boundary(self.chain))

    def is_zero(self):
        return self.chain.is_zero()


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
    if cone.y.is_zero():  # as on every cone from boundary_to_relative
        adjusted = GroupChain._of(hom.source, 1, dict(cone.x.coeffs))
    else:
        adjusted = cone.x.add(bar_boundary(hom.lift(cone.y)))
    try:
        return CokerChain._of(hom, adjusted)
    except InputError as exc:  # not fiberwise balanced
        raise InvariantViolation("not in image") from exc


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
    tab, inv, t = G.table, G._inv, hom.section_table()
    out = G.identity
    for (g,), z in sorted(coker_chain.chain.coeffs.items()):
        out = tab[out][G.power(tab[g][inv[t[hom.mapping[g]]]], z)]
    return _kernel_quotient(hom).rep(out)


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
    {name: {"source": ..., "target": ..., "map": ..., "section": ...}}}.
    An unreadable file or invalid JSON is an InputError, as a bad record is."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError("catalog must be a JSON object")
    extra = set(data) - {"groups", "surjections"}
    if extra:
        raise InputError("unknown catalog keys: %s" % sorted(extra))
    group_recs, hom_recs = data.get("groups", {}), data.get("surjections", {})
    if not isinstance(group_recs, dict) or not isinstance(hom_recs, dict):
        raise InputError("catalog groups and surjections must be JSON objects")
    groups = {}
    for name, rec in group_recs.items():
        groups[name] = FiniteGroup.from_json(rec)
        groups[name].name = name
    homs = {}
    for name, rec in hom_recs.items():
        if not isinstance(rec, dict) or "source" not in rec or "target" not in rec:
            raise InputError("surjection record needs source and target")
        if not isinstance(rec["source"], str) or not isinstance(rec["target"], str):
            raise InputError("surjection source and target must be group names")
        src = groups.get(rec["source"])
        tgt = groups.get(rec["target"])
        if src is None or tgt is None:
            raise InputError("surjection references an unknown group")
        homs[name] = GroupHom.from_json(
            {k: v for k, v in rec.items() if k not in ("source", "target")}, src, tgt)
    return groups, homs
