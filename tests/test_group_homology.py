import functools
import json
import math

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fredk2 import group_homology
from fredk2._errors import InputError, InvariantViolation
from fredk2.group_homology import (
    CokerChain,
    ConeChain,
    FiniteGroup,
    GroupChain,
    GroupHom,
    bar_boundary,
    boundary_matrix,
    boundary_to_relative,
    builtin_catalog,
    coker_representative,
    cycle_basis,
    f_phi_section,
    homology,
    KernelQuotient,
    load_catalog_file,
    psi,
    smith_normal_form,
    snf_divisors,
)


def random_chain(rng, group, degree, ncells=5, lo=-3, hi=3):
    c = GroupChain(group, degree)
    for _ in range(ncells):
        cell = tuple(int(rng.integers(group.order)) for _ in range(degree))
        c.add_cell(cell, int(rng.integers(lo, hi + 1)))
    return c


def random_cycle(rng, hom_target, basis):
    x = GroupChain(hom_target, 2)
    for b in basis:
        z = int(rng.integers(-2, 3))
        if z:
            x = x.add(b.scale(z))
    x = x.add(bar_boundary(random_chain(rng, hom_target, 3, ncells=4)))
    return x


class TestFiniteGroup:
    def test_cyclic_axioms(self):
        g = FiniteGroup.cyclic(6)
        assert g.identity == 0
        assert g.op(4, 5) == 3
        assert g.inv(2) == 4
        assert g.is_abelian()

    def test_dihedral_structure(self):
        d4 = FiniteGroup.dihedral(4)
        assert d4.order == 8
        assert not d4.is_abelian()
        r, s = 1, 4
        assert d4.power(r, 4) == d4.identity
        assert d4.op(s, s) == d4.identity
        # s r s^{-1} = r^{-1}
        assert d4.conj(s, r) == d4.inv(r)

    def test_quaternion_relations(self):
        q = FiniteGroup.quaternion()
        one, minus, i, j, k = 0, 1, 2, 4, 6
        assert q.op(i, i) == minus
        assert q.op(j, j) == minus
        assert q.op(k, k) == minus
        assert q.op(i, j) == k
        assert q.op(j, i) == q.inv(k)
        assert q.inv(i) == 3
        assert not q.is_abelian()

    def test_direct_product(self):
        g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
        assert g.order == 6
        assert g.is_abelian()
        # (1,1) has order 6
        assert g.power(1 * 3 + 1, 6) == g.identity
        assert g.power(1 * 3 + 1, 3) != g.identity

    def test_bad_tables_rejected(self):
        with pytest.raises(InputError):
            FiniteGroup([[0, 1], [1, 1]])  # 1*1 = 1 kills invertibility
        with pytest.raises(InputError):
            FiniteGroup([[1, 0], [1, 0]])  # no identity
        with pytest.raises(InputError):
            FiniteGroup([[0, 1, 2], [1, 2, 0]])  # not square

    def test_subgroup_closure(self):
        d4 = FiniteGroup.dihedral(4)
        rot = d4.subgroup_closure([1])
        assert rot == [0, 1, 2, 3]
        assert d4.subgroup_closure([]) == [d4.identity]

    def test_json_round_trip(self):
        q = FiniteGroup.quaternion()
        data = q.to_json()
        q2 = FiniteGroup.from_json(data)
        assert q2.table == q.table
        assert q2.labels == q.labels
        with pytest.raises(InputError):
            FiniteGroup.from_json({"order": 2, "table": [[0, 1], [1, 0]], "junk": 1})
        with pytest.raises(InputError):
            FiniteGroup.from_json({"order": 3, "table": [[0, 1], [1, 0]]})


class TestGroupHom:
    def test_hom_validation(self):
        z4 = FiniteGroup.cyclic(4)
        z2 = FiniteGroup.cyclic(2)
        GroupHom(z4, z2, [0, 1, 0, 1])
        with pytest.raises(InputError):
            GroupHom(z4, z2, [0, 1, 1, 0])  # not multiplicative
        with pytest.raises(InputError):
            GroupHom(z4, z2, [0, 1, 0])  # wrong length

    def test_section_validation(self):
        z4 = FiniteGroup.cyclic(4)
        z2 = FiniteGroup.cyclic(2)
        GroupHom(z4, z2, [0, 1, 0, 1], section=[0, 3])
        with pytest.raises(InputError):
            GroupHom(z4, z2, [0, 1, 0, 1], section=[0, 2])  # phi(2) = 0 != 1

    def test_kernel_and_default_section(self):
        cat = builtin_catalog()
        hom = cat["Q8->Z2xZ2"]
        assert hom.kernel() == [0, 1]
        assert hom.is_surjective()
        sec = hom.default_section()
        assert all(hom(sec[h]) == h for h in range(4))

    def test_push_and_lift(self):
        cat = builtin_catalog()
        hom = cat["Z4->Z2"]
        c = GroupChain(hom.source, 2, {(1, 3): 2, (2, 2): -1})
        pushed = hom.push(c)
        assert pushed.coeffs == {(1, 1): 2, (0, 0): -1}
        lifted = hom.lift(pushed)
        assert lifted.coeffs == {(1, 1): 2, (0, 0): -1}
        assert lifted.group is hom.source


class TestBarBoundary:
    def test_z2_example(self):
        z2 = FiniteGroup.cyclic(2)
        c = GroupChain(z2, 2, {(1, 1): 1})
        b = bar_boundary(c)
        assert b.coeffs == {(1,): 2, (0,): -1}

    def test_degree_one_is_zero(self):
        z4 = FiniteGroup.cyclic(4)
        c = GroupChain(z4, 1, {(3,): 5})
        assert bar_boundary(c).is_zero()

    def test_degree_zero_rejected(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(InputError):
            bar_boundary(GroupChain(z2, 0, {(): 1}))

    def test_boundary_squares_to_zero(self):
        rng = np.random.default_rng(11)
        s3 = FiniteGroup.dihedral(3)
        for _ in range(20):
            c = random_chain(rng, s3, 3, ncells=6)
            assert bar_boundary(bar_boundary(c)).is_zero()

    def test_chain_arithmetic(self):
        z4 = FiniteGroup.cyclic(4)
        a = GroupChain(z4, 1, {(1,): 2})
        b = GroupChain(z4, 1, {(1,): -2, (2,): 1})
        assert a.add(b).coeffs == {(2,): 1}
        assert a.sub(a).is_zero()
        with pytest.raises(InputError):
            GroupChain(z4, 1, {(1, 2): 1})
        with pytest.raises(InputError):
            GroupChain(z4, 1, {(7,): 1})

    @pytest.mark.parametrize("make", [lambda: FiniteGroup.dihedral(3), FiniteGroup.quaternion,
                                      lambda: FiniteGroup.direct_product(_z(2), _z(4))],
                             ids=["S3", "Q8", "Z2xZ4"])
    def test_faces_match_the_textbook_rule(self, make):
        group = make()
        rng = np.random.default_rng(59)
        for degree in (1, 2, 3):
            for _ in range(10):
                chain = random_chain(rng, group, degree, ncells=6)
                assert bar_boundary(chain).coeffs == _textbook_boundary(chain)
        for degree in (2, 3):
            D, rows, cols = boundary_matrix(group, degree)
            index = {c: i for i, c in enumerate(rows)}
            for j, cell in enumerate(cols):
                col = [0] * len(rows)
                for face, z in _textbook_boundary(GroupChain(group, degree, {cell: 1})).items():
                    col[index[face]] = z
                assert list(D[:, j]) == col

    def test_degree_four_rejected(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(InputError, match="degree at most 3"):
            bar_boundary(GroupChain(z2, 4, {(1, 0, 1, 1): 1}))


def _textbook_boundary(chain):
    """d(g_1,...,g_n) = (g_2,...,g_n) + sum_i (-1)^i (g_1,...,g_i g_{i+1},...,g_n)
    + (-1)^n (g_1,...,g_{n-1}) for any n, as a {face: nonzero coefficient} map."""
    n, out = chain.degree, {}
    for cell, z in chain.coeffs.items():
        terms = [(cell[1:], 1), (cell[:-1], (-1) ** n)]
        terms += [(cell[:i - 1] + (chain.group.op(cell[i - 1], cell[i]),) + cell[i + 1:],
                   (-1) ** i) for i in range(1, n)]
        for face, sgn in terms:
            out[face] = out.get(face, 0) + sgn * z
    return {face: z for face, z in out.items() if z}


class TestSmithNormalForm:
    def test_transforms_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            A = np.array(rng.integers(-6, 7, size=(m, n)), dtype=object)
            S, U, V, Uinv, Vinv = smith_normal_form(A)
            assert (U.dot(A).dot(V) == S).all()
            assert (U.dot(Uinv) == np.eye(m, dtype=object)).all()
            assert (Vinv.dot(V) == np.eye(n, dtype=object)).all()
            d = snf_divisors(S)
            # divisibility chain and zero off-diagonal
            for i in range(len(d) - 1):
                assert d[i + 1] % d[i] == 0
            for i in range(min(m, n)):
                for j in range(min(m, n)):
                    if i != j:
                        assert S[i, j] == 0

    def test_against_sympy(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = rng.integers(-9, 10, size=(m, n))
            S, _, _, _, _ = smith_normal_form(np.array(A, dtype=object))
            ours = snf_divisors(S)
            ref = sympy_snf(sympy.Matrix(A.tolist()))
            theirs = [abs(int(ref[i, i])) for i in range(min(m, n)) if ref[i, i] != 0]
            assert ours == theirs

    def test_unimodular_transforms(self):
        A = np.array([[2, 4], [6, 8]], dtype=object)
        _, U, V, _, _ = smith_normal_form(A)
        assert abs(sympy.Matrix(U.tolist()).det()) == 1
        assert abs(sympy.Matrix(V.tolist()).det()) == 1

    def test_non_matrix_rejected(self):
        for bad in ([1, 2, 3], 7, [[[1]]]):
            with pytest.raises(InputError, match="needs a matrix"):
                smith_normal_form(bad)

    def test_each_caller_replays_only_what_it_reads(self, monkeypatch):
        """homology replays the inverted row list only when it has a
        generator to read, cycle_basis the column list only."""
        smith, replay = group_homology._smith, group_homology._replay
        made, replayed = [], []

        def spy_smith(mat):
            made.append(smith(mat))
            return made[-1]

        def spy_replay(ops, size, inverse=False):
            _, rows, cols = made[-1]
            replayed.append(("rows" if ops is rows else "cols" if ops is cols else None, inverse))
            return replay(ops, size, inverse)

        monkeypatch.setattr(group_homology, "_smith", spy_smith)
        monkeypatch.setattr(group_homology, "_replay", spy_replay)
        klein = _product(_z(2), _z(2))
        for run, want in ((lambda: homology(klein, 2), [("rows", True)]),
                          (lambda: homology(_z(3), 2), []),
                          (lambda: cycle_basis(klein, 2), [("cols", False)])):
            made.clear()
            replayed.clear()
            run()
            assert len(made) == 1 and replayed == want


class TestHomology:
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_degrees_are_python_ints(self, kind):
        # the bar and analytic chains share one degree rule (_is_index)
        z3, d3 = FiniteGroup.cyclic(3), FiniteGroup.dihedral(3)
        assert homology(z3, kind(1)).torsion == [3]
        for g, d in ((z3, 0), (z3, 1), (z3, 2), (d3, 1), (d3, 2)):
            got, want = homology(g, kind(d)), homology(g, d)
            assert type(got.degree) is int and got.degree == d
            assert ((got.rank, got.torsion, got.presentation_divisors)
                    == (want.rank, want.torsion, want.presentation_divisors))
            assert (got.generator is None) == (want.generator is None)
            if want.generator is not None:
                assert got.generator.coeffs == want.generator.coeffs
        for d in (1, 2):
            got, want = boundary_matrix(d3, kind(d)), boundary_matrix(d3, d)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
            assert ([c.coeffs for c in cycle_basis(d3, kind(d))]
                    == [c.coeffs for c in cycle_basis(d3, d)])
            assert all(type(c.degree) is int for c in cycle_basis(d3, kind(d)))
        chain = GroupChain(d3, kind(2), {(1, 2): 1, (3, 4): -2})
        assert type(chain.degree) is int
        assert (bar_boundary(chain).coeffs
                == bar_boundary(GroupChain(d3, 2, {(1, 2): 1, (3, 4): -2})).coeffs)

    def test_h0(self):
        g = FiniteGroup.cyclic(3)
        h = homology(g, 0)
        assert h.rank == 1 and h.torsion == []

    def test_h1_z4(self):
        h = homology(FiniteGroup.cyclic(4), 1)
        assert h.rank == 0
        assert h.torsion == [4]
        assert h.presentation_divisors == [1, 1, 1, 4]
        assert bar_boundary(h.generator).is_zero()

    def test_h1_abelianizations(self):
        s3 = FiniteGroup.dihedral(3)
        h = homology(s3, 1)
        assert h.rank == 0 and h.torsion == [2]
        q8 = FiniteGroup.quaternion()
        h = homology(q8, 1)
        assert h.rank == 0 and h.torsion == [2, 2]

    def test_h2_cyclic_trivial(self):
        assert homology(FiniteGroup.cyclic(2), 2).is_trivial()
        assert homology(FiniteGroup.cyclic(4), 2).is_trivial()

    def test_h2_klein_four(self):
        v = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        h = homology(v, 2)
        assert h.rank == 0 and h.torsion == [2]
        gen = h.generator
        assert gen is not None and not gen.is_zero()
        assert bar_boundary(gen).is_zero()

    def test_h2_schur_multipliers(self):
        assert homology(FiniteGroup.dihedral(4), 2).torsion == [2]
        assert homology(FiniteGroup.quaternion(), 2).is_trivial()
        assert homology(FiniteGroup.dihedral(3), 2).is_trivial()

    def test_size_guard(self):
        with pytest.raises(InputError, match="group too large for degree"):
            boundary_matrix(FiniteGroup.cyclic(65), 2)
        with pytest.raises(InputError):
            homology(FiniteGroup.cyclic(2), 3)

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            homology(FiniteGroup.cyclic(2), -1)

    def test_cycle_basis_spans_cycles(self):
        v = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        basis = cycle_basis(v, 2)
        assert basis
        for b in basis:
            assert bar_boundary(b).is_zero()
        # dimension: dim C_2 - rank d_2
        D2, _, _ = boundary_matrix(v, 2)
        S, _, _, _, _ = smith_normal_form(D2)
        assert len(basis) == v.order ** 2 - len(snf_divisors(S))

    def test_degree_0_cycle_basis_is_the_0_cell(self):
        # D_0 is the 1×1 zero matrix, so the one 0-cell is the whole basis
        basis = cycle_basis(FiniteGroup.cyclic(3), 0)
        assert [(c.degree, c.coeffs) for c in basis] == [(0, {(): 1})]


class TestKernelQuotient:
    def test_q8_center(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        q = KernelQuotient(hom)
        assert q.kernel == [0, 1]
        assert q.gamma == [0]  # central kernel, all commutators trivial
        assert q.classes == [0, 1]
        assert q.rep(1) == 1
        with pytest.raises(InputError):
            q.rep(2)

    def test_s3_sign_kernel_collapses(self):
        hom = builtin_catalog()["S3->Z2"]
        q = KernelQuotient(hom)
        assert sorted(q.kernel) == [0, 1, 2]
        # [s, r] = r^{-2} generates the rotation subgroup
        assert q.gamma == [0, 1, 2]
        assert q.classes == [0]

    def test_d4_quotient(self):
        hom = builtin_catalog()["D4->Z2xZ2"]
        q = KernelQuotient(hom)
        assert sorted(q.kernel) == [0, 2]  # {e, r^2}
        # r^2 = [r, s] is itself a commutator with a kernel element? it is
        # central, so Gamma is generated by [g, r^2] = e only
        assert q.gamma == [0]
        assert q.classes == [0, 2]


class TestFPhiSection:
    def test_zero_cycle(self):
        hom = builtin_catalog()["Z4->Z2"]
        x = GroupChain(hom.target, 2)
        assert f_phi_section(hom, x) == hom.source.identity

    def test_not_a_cycle_rejected(self):
        hom = builtin_catalog()["Z4->Z2"]
        x = GroupChain(hom.target, 2, {(1, 1): 1})
        with pytest.raises(InputError, match="not a 2-cycle"):
            f_phi_section(hom, x)
        with pytest.raises(InputError, match="not a 2-cycle"):
            f_phi_section(hom, GroupChain(hom.target, 1, {(1,): 1}))

    def test_klein_generator_detects_center_of_q8(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        gen = homology(hom.target, 2).generator
        assert f_phi_section(hom, gen) == 1  # the class of -1

    def test_z4_to_z2_all_classes_trivial_or_not(self):
        # K = {0, 2} = Z/2, Gamma trivial (abelian); the generator of
        # H_2(Z/2) = 0 forces every cycle to land on boundaries' image
        hom = builtin_catalog()["Z4->Z2"]
        rng = np.random.default_rng(3)
        basis = cycle_basis(hom.target, 2)
        seen = set()
        for _ in range(30):
            x = random_cycle(rng, hom.target, basis)
            seen.add(f_phi_section(hom, x))
        # H_2(Z/2) = 0 so the image class depends only on the boundary part,
        # which f_phi kills: everything collapses to the identity
        assert seen == {hom.source.identity}

    def test_vanishes_on_boundaries(self):
        rng = np.random.default_rng(23)
        for name, hom in builtin_catalog().items():
            for _ in range(10):
                x = bar_boundary(random_chain(rng, hom.target, 3, ncells=5))
                assert f_phi_section(hom, x) == hom.source.identity, name

    def test_section_independence(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        other = [0, 5, 3, 7]  # lift through the negative representatives
        rng = np.random.default_rng(29)
        basis = cycle_basis(hom.target, 2)
        for _ in range(20):
            x = random_cycle(rng, hom.target, basis)
            assert f_phi_section(hom, x) == f_phi_section(hom, x, section=other)

    def test_bad_section_rejected(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        x = GroupChain(hom.target, 2)
        with pytest.raises(InputError):
            f_phi_section(hom, x, section=[0, 0, 0, 0])

    # each is refused by GroupHom; -1 would wrap to element 7 and True act as 1
    @pytest.mark.parametrize("section", [[0, 4, 2, -1], [True, 4, 2, 6], [0, 4, 2, 6.0]],
                             ids=["negative", "boolean", "float"])
    def test_section_checked_as_grouphom_checks_it(self, section):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        with pytest.raises(InputError, match="section entry out of range"):
            GroupHom(hom.source, hom.target, hom.mapping, section)
        with pytest.raises(InputError, match="section entry out of range"):
            f_phi_section(hom, GroupChain(hom.target, 2), section=section)
        # the cycle is checked first
        with pytest.raises(InputError, match="not a 2-cycle"):
            f_phi_section(hom, GroupChain(hom.target, 2, {(1, 1): 1}), section=section)


class TestConeAndCoker:
    def test_cone_boundary_squares_to_zero(self):
        rng = np.random.default_rng(31)
        hom = builtin_catalog()["D4->Z2xZ2"]
        for _ in range(10):
            y = random_chain(rng, hom.target, 3, ncells=4)
            x = random_chain(rng, hom.source, 2, ncells=4)
            c = ConeChain(hom, y, x)
            assert c.boundary().boundary().is_zero()

    def test_boundary_to_relative_is_a_cycle(self):
        rng = np.random.default_rng(37)
        hom = builtin_catalog()["Q8->Z2xZ2"]
        basis = cycle_basis(hom.target, 2)
        for _ in range(10):
            x = random_cycle(rng, hom.target, basis)
            cone = boundary_to_relative(x, hom)
            assert cone.y.is_zero()
            b = cone.boundary()
            assert b.is_zero()

    def test_boundary_to_relative_takes_one_bar_boundary(self, monkeypatch):
        # the cycle check reads phi_* of the lifted boundary, which is dx
        calls = []
        inner = group_homology.bar_boundary
        monkeypatch.setattr(group_homology, "bar_boundary",
                            lambda chain: calls.append(chain) or inner(chain))
        rng = np.random.default_rng(41)
        hom = builtin_catalog()["Q8->Z2xZ2"]
        basis = cycle_basis(hom.target, 2)
        for _ in range(5):
            calls.clear()
            boundary_to_relative(random_cycle(rng, hom.target, basis), hom)
            assert len(calls) == 1

    def test_coker_representative_bounds_only_a_nonzero_y(self, monkeypatch):
        # boundary_to_relative's cones have y = 0: d(t_* 0) is not computed
        calls = []
        inner = group_homology.bar_boundary
        monkeypatch.setattr(group_homology, "bar_boundary",
                            lambda chain: calls.append(chain) or inner(chain))
        hom = builtin_catalog()["Q8->Z2xZ2"]
        cycle = random_cycle(np.random.default_rng(47), hom.target,
                             cycle_basis(hom.target, 2))
        cone = boundary_to_relative(cycle, hom)
        calls.clear()
        coker_representative(cone, hom)
        assert calls == []
        w = random_chain(np.random.default_rng(53), hom.target, 3, ncells=3)
        moved = cone.add(ConeChain(hom, w, GroupChain(hom.source, 2)).boundary())
        assert not moved.y.is_zero()
        calls.clear()
        coker_representative(moved, hom)
        assert len(calls) == 1

    def test_boundary_to_relative_rejects_non_cycles(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        with pytest.raises(InputError, match="not a 2-cycle"):
            boundary_to_relative(GroupChain(hom.target, 2, {(1, 2): 1}), hom)

    def test_coker_balance_enforced(self):
        hom = builtin_catalog()["Z4->Z2"]
        with pytest.raises(InputError):
            CokerChain(hom, 1, {(1,): 1})
        c = CokerChain.from_pairs(hom, 1, [((1,), (3,), 2)])
        assert c.chain.coeffs == {(1,): 2, (3,): -2}
        with pytest.raises(InputError):
            CokerChain.from_pairs(hom, 1, [((1,), (2,), 1)])  # different fibers

    def test_coker_boundary_squares_to_zero(self):
        rng = np.random.default_rng(41)
        hom = builtin_catalog()["D4->Z2xZ2"]
        G = hom.source
        for _ in range(10):
            pairs = []
            for _ in range(5):
                c1 = tuple(int(rng.integers(G.order)) for _ in range(3))
                k = tuple(int(hom.section_table()[hom(g)]) for g in c1)
                pairs.append((c1, k, int(rng.integers(-2, 3))))
            c = CokerChain.from_pairs(hom, 3, pairs)
            assert c.boundary().boundary().is_zero()

    def test_degenerate_pair_is_zero(self):
        hom = builtin_catalog()["Z4->Z2"]
        c = CokerChain.from_pairs(hom, 1, [((2,), (2,), 1)])
        assert c.is_zero()
        assert psi(c) == hom.source.identity

    def test_psi_of_plain_pair(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        G = hom.source
        # (g1, g2) in one fiber maps to the class of g1 g2^{-1}
        c = CokerChain.from_pairs(hom, 1, [((3,), (2,), 1)])  # -i vs i
        assert psi(c) == KernelQuotient(hom).rep(G.op(3, G.inv(2)))

    def test_not_in_image_with_a_target_part(self):
        # (y, x) is balanced only if phi_* x + d y = 0; here it is 3(1) - (0)
        hom = builtin_catalog()["Z4->Z2"]
        cone = ConeChain(
            hom,
            GroupChain(hom.target, 2, {(1, 1): 1}),
            GroupChain(hom.source, 1, {(1,): 1}),
        )
        with pytest.raises(InvariantViolation, match="not in image"):
            coker_representative(cone, hom)

    def test_public_constructors_still_validate(self):
        hom = builtin_catalog()["Z4->Z2"]
        for bad in ({(4,): 1, (2,): -1}, {(1,): 1.0, (3,): -1.0}):
            with pytest.raises(InputError):
                GroupChain(hom.source, 1, bad)
            with pytest.raises(InputError):
                CokerChain(hom, 1, bad)

    def test_not_in_image(self):
        hom = builtin_catalog()["Z4->Z2"]
        cone = ConeChain(
            hom,
            GroupChain(hom.target, 2),
            GroupChain(hom.source, 1, {(1,): 1}),
        )
        with pytest.raises(InvariantViolation, match="not in image"):
            coker_representative(cone, hom)

    def test_representative_absorbs_target_part(self):
        # (y, x) and (0, x + d t_* y) must give the same class through psi
        rng = np.random.default_rng(43)
        hom = builtin_catalog()["Q8->Z2xZ2"]
        basis = cycle_basis(hom.target, 2)
        for _ in range(10):
            x = random_cycle(rng, hom.target, basis)
            cone = boundary_to_relative(x, hom)
            # shift by the cone boundary of (w, 0): changes y but not the class
            w = random_chain(rng, hom.target, 3, ncells=3)
            shift = ConeChain(hom, w, GroupChain(hom.source, 2)).boundary()
            moved = cone.add(shift)
            assert not moved.y.is_zero() or bar_boundary(w).is_zero()
            a = psi(coker_representative(cone, hom))
            b = psi(coker_representative(moved, hom))
            assert a == b


class TestMainEquality:
    @pytest.mark.parametrize("name", sorted(builtin_catalog()))
    def test_f_phi_matches_relative_boundary(self, name):
        hom = builtin_catalog()[name]
        rng = np.random.default_rng(abs(hash(name)) % 2**31)
        basis = cycle_basis(hom.target, 2)
        for _ in range(100):
            x = random_cycle(rng, hom.target, basis)
            lhs = f_phi_section(hom, x)
            rhs = psi(coker_representative(boundary_to_relative(x, hom), hom))
            assert lhs == rhs

    def test_klein_generator_both_paths(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        gen = homology(hom.target, 2).generator
        lhs = f_phi_section(hom, gen)
        rhs = psi(coker_representative(boundary_to_relative(gen, hom), hom))
        assert lhs == rhs == 1
        assert hom.source.labels[lhs] == "-1"


def _product(*factors):
    group = factors[0]
    for other in factors[1:]:
        group = FiniteGroup.direct_product(group, other)
    return group


def _z(n):
    return FiniteGroup.cyclic(n)


def _quaternion16():
    """<a, b | a^8, b^2 = a^4, b a b^-1 = a^-1>; index k is a^k, 8 + k is a^k b."""
    def mul(x, y):
        i, j = x % 8, y % 8
        if x < 8:
            return (i + j) % 8 + (8 if y >= 8 else 0)
        return (i - j + (4 if y >= 8 else 0)) % 8 + (0 if y >= 8 else 8)
    return FiniteGroup([[mul(x, y) for y in range(16)] for x in range(16)], name="Q16")


# One group of each isomorphism type of order <= 8.
SMALL_GROUPS = {
    "Z1": lambda: _z(1),
    "Z2": lambda: _z(2),
    "Z3": lambda: _z(3),
    "Z4": lambda: _z(4),
    "Z2xZ2": lambda: _product(_z(2), _z(2)),
    "Z5": lambda: _z(5),
    "Z6": lambda: _z(6),
    "S3": lambda: FiniteGroup.dihedral(3),
    "Z7": lambda: _z(7),
    "Z8": lambda: _z(8),
    "Z2xZ4": lambda: _product(_z(2), _z(4)),
    "Z2^3": lambda: _product(_z(2), _z(2), _z(2)),
    "D4": lambda: FiniteGroup.dihedral(4),
    "Q8": lambda: FiniteGroup.quaternion(),
}


@functools.lru_cache(maxsize=None)
def _dense_snf(name, degree):
    """Dense Smith form of the bar boundary D_degree: (U, divisors)."""
    D, _, _ = boundary_matrix(SMALL_GROUPS[name](), degree)
    S, U, _V, _Uinv, _Vinv = smith_normal_form(D)
    return U, snf_divisors(S)


def _in_image(name, degree, vec):
    """Whether an integer vector over the (degree-1)-cells lies in im D_degree."""
    U, divisors = _dense_snf(name, degree)
    w = U.dot(np.array(vec, dtype=object))
    return (all(w[i] % d == 0 for i, d in enumerate(divisors))
            and all(w[i] == 0 for i in range(len(divisors), len(w))))


def _cell_vector(group, degree, chain):
    return [chain.coeffs.get(c, 0) for c in group_homology._all_cells(group, degree)]


class TestSparseHomology:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_matches_dense_reference(self, name, degree):
        group = SMALL_GROUPS[name]()
        divisors = _dense_snf(name, degree + 1)[1]
        rank_in = len(_dense_snf(name, degree)[1]) if degree == 2 else 0
        h = homology(group, degree)
        assert h.presentation_divisors == divisors
        assert h.torsion == [d for d in divisors if d > 1]
        assert h.rank == group.order ** degree - rank_in - len(divisors)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_generator_has_exact_order(self, name, degree):
        group = SMALL_GROUPS[name]()
        h = homology(group, degree)
        if not h.torsion:
            assert h.generator is None
            return
        gen = h.generator
        assert bar_boundary(gen).is_zero()
        d = h.torsion[0]
        vec = _cell_vector(group, degree, gen)
        assert _in_image(name, degree + 1, [d * z for z in vec])
        for p in sympy.primefactors(d):
            assert not _in_image(name, degree + 1, [d // p * z for z in vec])

    @pytest.mark.parametrize("make, torsion", [
        (lambda: FiniteGroup.dihedral(6), [2]),
        (lambda: _product(_z(2), _z(6)), [2]),
        (lambda: _product(_z(2), _z(8)), [2]),
        (lambda: _product(_z(2), FiniteGroup.dihedral(4)), [2, 2, 2]),
        (lambda: _product(_z(4), _z(4)), [4]),
        (lambda: FiniteGroup.dihedral(8), [2]),
        (lambda: _product(_z(2), _z(2), _z(2), _z(2)), [2] * 6),
        (_quaternion16, []),
        (lambda: _product(*[_z(2)] * 5), [2] * 10),
        (lambda: FiniteGroup.dihedral(16), [2]),
        (lambda: _product(_z(4), _z(8)), [4]),
        (lambda: _product(FiniteGroup.quaternion(), _z(4)), [2, 2]),
        (lambda: FiniteGroup.dihedral(24), [2]),
        (lambda: _product(*[_z(2)] * 6), [2] * 15),
        (lambda: _product(_z(4), _z(4), _z(4)), [4, 4, 4]),
        (lambda: FiniteGroup.dihedral(64), [2]),
    ], ids=["D6", "Z2xZ6", "Z2xZ8", "Z2xD4", "Z4xZ4", "D8", "Z2^4", "Q16",
            "Z2^5", "D16", "Z4xZ8", "Q8xZ4", "D24", "Z2^6", "Z4^3", "D64"])
    def test_schur_multipliers_order_12_and_16(self, make, torsion):
        h = homology(make(), 2)
        assert h.rank == 0 and h.torsion == torsion
        if torsion:
            assert bar_boundary(h.generator).is_zero()
            assert not h.generator.is_zero()
        else:
            assert h.generator is None

    def test_size_guard_raises_before_building(self, monkeypatch):
        def no_boundary(*_args):
            raise AssertionError("boundary built past the size guard")

        monkeypatch.setattr(group_homology, "_bar_terms", no_boundary)
        with pytest.raises(InputError, match="group too large for degree"):
            cycle_basis(FiniteGroup.cyclic(65), 2)

    @pytest.mark.parametrize("degree, make, torsion", [
        (1, lambda: _z(17), [17]),
        (1, lambda: FiniteGroup.dihedral(5), [2]),
        (1, lambda: _product(_z(2), _z(2), _z(2)), [2, 2, 2]),
        (2, lambda: _z(17), []),
        (2, lambda: FiniteGroup.dihedral(5), []),
        (2, lambda: _product(_z(2), _z(2), _z(2)), [2, 2, 2]),
    ], ids=["H1-Z17", "H1-D5", "H1-Z2^3", "Z17", "D5", "Z2^3"])
    def test_h2_builds_no_bar_cell(self, degree, make, torsion, monkeypatch):
        group = make()

        def no_boundary(*_args):
            raise AssertionError("bar cell built for homology")

        monkeypatch.setattr(group_homology, "_bar_terms", no_boundary)
        assert homology(group, degree).torsion == torsion

    def test_boundary_matrix_matches_bar_boundary(self):
        s3 = FiniteGroup.dihedral(3)
        D, rows, cols = boundary_matrix(s3, 3)
        index = {c: i for i, c in enumerate(rows)}
        for j, cell in enumerate(cols):
            col = [0] * len(rows)
            for face, z in bar_boundary(GroupChain(s3, 3, {cell: 1})).coeffs.items():
                col[index[face]] = z
            assert list(D[:, j]) == col


def _cone(hom, y_degree, x_degree):
    """The zero cone chain (y, x) with y and x of the given degrees."""
    return ConeChain(hom, GroupChain(hom.target, y_degree), GroupChain(hom.source, x_degree))


# (call, message) for each refusal of the chain layer that an input can reach.
CHAIN_REFUSALS = {
    "push-wrong-group": (lambda h, o: h.push(GroupChain(h.target, 1)), "homomorphism source"),
    "lift-wrong-group": (lambda h, o: h.lift(GroupChain(h.source, 1)), "homomorphism target"),
    "negative-degree": (lambda h, o: GroupChain(h.source, -1), "nonnegative"),
    "fraction-degree": (lambda h, o: GroupChain(h.source, 1.5), "chain degree must be a nonnegative integer"),
    "boolean-degree": (lambda h, o: GroupChain(h.source, True), "chain degree must be a nonnegative integer"),
    "numpy-negative-degree": (lambda h, o: GroupChain(h.source, np.int64(-1)),
                              "chain degree must be a nonnegative integer"),
    "numpy-boolean-degree": (lambda h, o: GroupChain(h.source, np.True_),
                             "chain degree must be a nonnegative integer"),
    "cone-groups": (lambda h, o: ConeChain(h, GroupChain(h.source, 2), GroupChain(h.source, 1)),
                    "wrong groups"),
    "cone-degrees": (lambda h, o: _cone(h, 1, 1), "inconsistent"),
    "cone-degree-0": (lambda h, o: ConeChain(h, GroupChain(h.target, 1, {(1,): 1}),
                                             GroupChain(h.source, 0, {(): 1})).boundary(),
                      "degree-0 cone"),
    "coker-degree-0": (lambda h, o: CokerChain(h, 0).boundary(), "degree-0 chains"),
    "representative-hom": (lambda h, o: coker_representative(_cone(h, 2, 1), o),
                           "does not belong"),
    "representative-degree": (lambda h, o: coker_representative(_cone(h, 3, 2), h),
                              "in degree 1"),
    "psi-degree": (lambda h, o: psi(CokerChain(h, 2)), "degree-1 chains"),
}


@pytest.mark.parametrize("case", sorted(CHAIN_REFUSALS))
def test_chain_layer_refusals(case, monkeypatch):
    # every refusal comes before any bar boundary is computed
    def no_boundary(_chain):
        raise AssertionError("bar boundary computed before the refusal")

    monkeypatch.setattr(group_homology, "bar_boundary", no_boundary)
    cat = builtin_catalog()
    call, message = CHAIN_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        call(cat["Z4->Z2"], cat["S3->Z2"])


class TestChainArithmeticChecks:
    def test_scale_rejects_non_integers(self):
        c = GroupChain(FiniteGroup.cyclic(3), 1, {(1,): 2})
        with pytest.raises(InputError, match="integers"):
            c.scale(0.5)
        assert c.scale(0).is_zero()
        assert c.scale(-3).coeffs == {(1,): -6}

    def test_add_rejects_mismatch(self):
        z3 = FiniteGroup.cyclic(3)
        with pytest.raises(InputError, match="mismatch"):
            GroupChain(z3, 1).add(GroupChain(z3, 2))
        with pytest.raises(InputError, match="mismatch"):
            GroupChain(z3, 1).add(GroupChain(FiniteGroup.cyclic(3), 1))

    def test_equality_is_by_value(self):
        z3 = FiniteGroup.cyclic(3)
        c = GroupChain(z3, 1, {(1,): 2})
        assert c == GroupChain(z3, 1, {(1,): 2}) and not c != GroupChain(z3, 1, {(1,): 2})
        assert c != GroupChain(z3, 1, {(1,): 1})
        assert c != GroupChain(z3, 2, {(1, 1): 2})
        assert c != GroupChain(FiniteGroup.cyclic(3), 1, {(1,): 2})
        assert c != {(1,): 2}

    def test_results_drop_cancelled_cells(self):
        hom = builtin_catalog()["Z4->Z2"]
        c = GroupChain(hom.source, 1, {(1,): 1, (3,): -1, (2,): 4})
        assert hom.push(c).coeffs == {(0,): 4}
        assert hom.lift(hom.push(c)).coeffs == {(0,): 4}
        assert c.add(c.scale(-1)).coeffs == {}


class TestResultsOwnTheirMaps:
    """Chain operations build their results unchecked from checked
    operands; no result may hand back an operand's coefficient map."""

    @staticmethod
    def assert_fresh(result, *operands):
        before = [dict(op.coeffs) for op in operands]
        assert all(result.coeffs is not op.coeffs for op in operands)
        result.add_cell((0,) * result.degree, 7)
        assert [op.coeffs for op in operands] == before

    def test_add_sub_scale(self):
        s3 = FiniteGroup.dihedral(3)
        a = GroupChain(s3, 2, {(1, 2): 3, (4, 5): -1})
        b = GroupChain(s3, 2, {(1, 2): -3, (2, 2): 2})
        empty = GroupChain(s3, 2)
        for x, y in ((a, b), (a, empty), (empty, a), (empty, empty)):
            self.assert_fresh(x.add(y), x, y)
            self.assert_fresh(x.sub(y), x, y)
        for z in (0, 1, -1):
            self.assert_fresh(a.scale(z), a)
            self.assert_fresh(empty.scale(z), empty)

    def test_boundary_push_lift(self):
        hom = builtin_catalog()["Q8->Z2xZ2"]
        G = hom.source
        ident = GroupHom(G, G, list(range(G.order)), section=list(range(G.order)))
        c = GroupChain(G, 2, {(2, 4): 1, (3, 3): -2})
        self.assert_fresh(bar_boundary(c), c)
        flat = GroupChain(G, 1, {(5,): 2})
        self.assert_fresh(bar_boundary(flat), flat)
        self.assert_fresh(hom.push(c), c)
        self.assert_fresh(hom.lift(hom.push(c)), c)
        self.assert_fresh(ident.push(c), c)
        self.assert_fresh(ident.lift(c), c)

    def test_coker_representative(self):
        hom = builtin_catalog()["Z4->Z2"]
        x = GroupChain(hom.source, 1, {(1,): 1, (3,): -1})
        rep = coker_representative(ConeChain(hom, GroupChain(hom.target, 2), x), hom)
        self.assert_fresh(rep.chain, x)


def _brute_closure(group, gens):
    closed = {group.identity, *gens}
    while True:
        grown = closed | {group.table[a][b] for a in closed for b in closed}
        if grown == closed:
            return sorted(closed)
        closed = grown


class TestGroupLaws:
    def test_quaternion_against_su2(self):
        """Index 2*letter + sign, letters 1, i, j, k, against the SU(2)
        matrices +-1, +-i, +-j, +-k."""
        one = np.eye(2, dtype=complex)
        i = np.diag([1j, -1j])
        j = np.array([[0, 1], [-1, 0]], dtype=complex)
        k = np.array([[0, 1j], [1j, 0]])
        mats = [s * m for m in (one, i, j, k) for s in (1, -1)]
        q = FiniteGroup.quaternion()
        assert q.labels == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        for x in range(8):
            for y in range(8):
                assert np.array_equal(mats[x] @ mats[y], mats[q.table[x][y]])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dihedral_acts_on_the_polygon(self, n):
        """Index f*n + k sends vertex v of the n-gon to (-1)^f v + k, and
        a*b acts as a, then b."""
        d = FiniteGroup.dihedral(n)
        assert d.order == 2 * n
        perms = [tuple(((-1) ** (x // n) * v + x % n) % n for v in range(n))
                 for x in range(2 * n)]
        for a in range(2 * n):
            for b in range(2 * n):
                assert perms[d.table[a][b]] == tuple(perms[b][v] for v in perms[a])
        if n >= 3:  # the vertex action is faithful
            assert len(set(perms)) == 2 * n

    @pytest.mark.parametrize("g1, g2", [
        (FiniteGroup.cyclic(3), FiniteGroup.dihedral(4)),
        (FiniteGroup.quaternion(), FiniteGroup.cyclic(2)),
    ])
    def test_direct_product_is_componentwise(self, g1, g2):
        p = FiniteGroup.direct_product(g1, g2)
        index = {lab: x for x, lab in enumerate(p.labels)}
        pair = "{}|{}".format
        for a1, a2 in np.ndindex(g1.order, g1.order):
            for b1, b2 in np.ndindex(g2.order, g2.order):
                x = index[pair(g1.labels[a1], g2.labels[b1])]
                y = index[pair(g1.labels[a2], g2.labels[b2])]
                assert p.table[x][y] == index[pair(g1.labels[g1.table[a1][a2]],
                                                    g2.labels[g2.table[b1][b2]])]

    @pytest.mark.parametrize("group", [
        FiniteGroup.dihedral(4), FiniteGroup.quaternion(), FiniteGroup.dihedral(6),
        _product(FiniteGroup.cyclic(3), FiniteGroup.dihedral(4)),
        _product(FiniteGroup.cyclic(2), FiniteGroup.quaternion()),
    ])
    def test_subgroup_closure_matches_brute_force(self, group):
        rng = np.random.default_rng(group.order)
        for _ in range(25):
            gens = [int(g) for g in rng.integers(group.order, size=int(rng.integers(0, 4)))]
            assert group.subgroup_closure(gens) == _brute_closure(group, gens)

    @pytest.mark.parametrize("group", [
        FiniteGroup.cyclic(7), FiniteGroup.dihedral(5), FiniteGroup.quaternion(),
        _product(FiniteGroup.cyclic(3), FiniteGroup.dihedral(4)),
    ])
    def test_power_is_repeated_multiplication(self, group):
        n = group.order
        for g in range(n):
            step = {1: g, -1: group.inv(g)}
            for k in range(-2 * n, 2 * n + 1):
                want = group.identity
                for _ in range(abs(k)):
                    want = group.op(want, step[1 if k > 0 else -1])
                assert group.power(g, k) == want
            for r in (-1, 0, 1, 5):  # g^|G| is the identity
                assert group.power(g, n * 10**12 + r) == group.power(g, r)

    @pytest.mark.parametrize("name", sorted(builtin_catalog()))
    def test_huge_multiples_cost_no_more(self, name):
        """Every class lies in a group of order dividing 2^12 (the catalog's
        kernel quotients are Z2 or trivial), so (10^12 + 1) x has the class
        of x; both paths take one power per cell, not 10^12 products."""
        hom = builtin_catalog()[name]
        rng = np.random.default_rng(3)
        cycles = [random_cycle(rng, hom.target, cycle_basis(hom.target, 2)) for _ in range(5)]
        gen = homology(hom.target, 2).generator
        for x in cycles + ([gen] if gen is not None else []):
            big = x.scale(10**12 + 1)
            assert f_phi_section(hom, big) == f_phi_section(hom, x)
            via = psi(coker_representative(boundary_to_relative(big, hom), hom))
            assert via == psi(coker_representative(boundary_to_relative(x, hom), hom))

    def test_records_of_the_wrong_type_are_input_errors(self):
        z2 = FiniteGroup.cyclic(2)
        for record in ({"order": 2, "table": [0, 1]},
                       {"order": 2, "table": [[0, 1], [1, 0]], "labels": 5},
                       {"order": 2, "table": [[0, 1], [1, 0]], "labels": [["a"], ["b"]]}):
            with pytest.raises(InputError):
                FiniteGroup.from_json(record)
        for record in ({"map": 5}, {"map": [0, 1], "section": 3}):
            with pytest.raises(InputError):
                GroupHom.from_json(record, z2, z2)
        assert GroupHom.from_json({"map": [0, 1], "section": None}, z2, z2).section is None

    def test_psi_inverts_negative_coefficients(self):
        """Z9 -> Z3 has kernel {0, 3, 6} = Z3, so k^-1 != k: the pair
        (1, 4) with coefficient -1 goes to 1 * 4^-1 = 6, not to 3."""
        z9 = FiniteGroup.cyclic(9)
        hom = GroupHom(z9, FiniteGroup.cyclic(3), [g % 3 for g in range(9)])
        assert psi(CokerChain.from_pairs(hom, 1, [((4,), (1,), -1)])) == 6
        assert psi(CokerChain.from_pairs(hom, 1, [((4,), (1,), -2)])) == 3


# Factors for the closed-form reference: name -> (order, builder, H_1, H_2),
# homology as lists of cyclic orders.  (H_1, H_2) is (Z_n, 0) for Z_n; for
# D_n, of order 2n, (Z2, 0) if n is odd and (Z2^2, Z2) if n is even; and
# (Z2^2, 0) for Q8 (Karpilovsky, The Schur Multiplier, 1987).
KUNNETH_FACTORS = {
    **{"Z%d" % n: (n, functools.partial(FiniteGroup.cyclic, n), [n], []) for n in range(2, 17)},
    **{"D%d" % n: (2 * n, functools.partial(FiniteGroup.dihedral, n),
                   [2] * (2 - n % 2), [2] * (1 - n % 2)) for n in range(3, 9)},
    "Q8": (8, FiniteGroup.quaternion, [2, 2], []),
}


def _product_words(names=tuple(KUNNETH_FACTORS), order=1, top=16):
    """Every multiset of factors, as a tuple in KUNNETH_FACTORS order, of
    product order at most top."""
    for i, name in enumerate(names):
        size = order * KUNNETH_FACTORS[name][0]
        if size <= top:
            yield (name,)
            yield from ((name,) + w for w in _product_words(names[i:], size, top))


def _kunneth(word):
    """(H_1, H_2) of the product, by H_1(A x B) = H_1(A) + H_1(B) and
    H_2(A x B) = H_2(A) + H_2(B) + H_1(A) (x) H_1(B), Z_a (x) Z_b = Z_gcd(a,b)
    (Brown, Cohomology of Groups, V.6)."""
    h1, h2 = [], []
    for name in word:
        _, _, f1, f2 = KUNNETH_FACTORS[name]
        h1, h2 = h1 + f1, h2 + f2 + [math.gcd(a, b) for a in h1 for b in f1]
    return h1, h2


def _invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ..., all > 1, of the sum of the Z_n."""
    powers = {}
    for n in orders:
        for p, e in sympy.factorint(n).items():
            powers.setdefault(p, []).append(p ** e)
    k = max(map(len, powers.values()), default=0)
    factors = [1] * k
    for qs in powers.values():
        for i, q in enumerate(sorted(qs)):
            factors[k - len(qs) + i] *= q
    return factors


class TestClosedForms:
    """H_1 and H_2 against a reference computed from group structure, not
    from the table: closed forms of the factors and the Kunneth formula."""

    def test_words_cover_every_product_up_to_16(self):
        words = list(_product_words())
        assert len(words) == len(set(words)) == 40
        assert ("Z2", "Z2", "Z2", "Z2") in words and ("Z2", "Q8") in words
        assert ("Z2", "D4") in words and ("Z3", "D3") not in words

    @pytest.mark.parametrize("word", list(_product_words()) + [
        ("Z5", "Z13"), ("Z3", "Z5", "Z7"), ("Z4", "Z4", "Z8"), ("Z16", "Q8"),
        ("Z8", "D8"), ("Z2",) * 7], ids="x".join)
    def test_h1_h2_match_kunneth(self, word):
        group = _product(*(KUNNETH_FACTORS[name][1]() for name in word))
        h1, h2 = _kunneth(word)
        assert homology(group, 1).torsion == _invariant_factors(h1)
        assert homology(group, 2).torsion == _invariant_factors(h2)


Z2, Z3, Z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4)
# a loop of order 5: identity 0, every element its own inverse, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
BOOLS = [[False, True], [True, False]]

# (call, message) for each refusal of the group and homomorphism constructors,
# their JSON readers, chain cells, homology, cycle and boundary degrees and the
# connecting map; a JSON boolean is not an element index, nor a bool or a float
# a degree, and labels are distinct as the strings they are stored as
GROUP_REFUSALS = {
    "empty-table": (lambda: FiniteGroup([]), "empty"),
    "entry-out-of-range": (lambda: FiniteGroup([[0, 2], [1, 0]]), "entry out of range"),
    "boolean-entries": (lambda: FiniteGroup(BOOLS), "entry out of range"),
    "not-associative": (lambda: FiniteGroup(LOOP5), "not associative"),
    "labels-per-element": (lambda: FiniteGroup([[0, 1], [1, 0]], labels=["a"]), "one per element"),
    "labels-distinct": (lambda: FiniteGroup([[0, 1], [1, 0]], labels=["a", "a"]), "distinct"),
    "labels-distinct-as-strings": (lambda: FiniteGroup([[0, 1], [1, 0]], labels=[1, "1"]),
                                   "distinct"),
    "cyclic-order-0": (lambda: FiniteGroup.cyclic(0), "positive"),
    "dihedral-0": (lambda: FiniteGroup.dihedral(0), "positive"),
    "group-record-list": (lambda: FiniteGroup.from_json([[0, 1], [1, 0]]), "JSON object"),
    "group-record-booleans": (lambda: FiniteGroup.from_json({"order": 2, "table": BOOLS}),
                              "entry out of range"),
    "group-record-boolean-order": (lambda: FiniteGroup.from_json({"order": True, "table": [[0]]}),
                                   "order must be an integer"),
    "group-record-float-order": (lambda: FiniteGroup.from_json(
        {"order": 2.0, "table": [[0, 1], [1, 0]]}), "order must be an integer"),
    "map-out-of-range": (lambda: GroupHom(Z2, Z2, [0, 2]), "image out of range"),
    "map-booleans": (lambda: GroupHom(Z2, Z2, [False, True]), "image out of range"),
    "section-length": (lambda: GroupHom(Z4, Z2, [0, 1, 0, 1], section=[0]), "one lift"),
    "section-out-of-range": (lambda: GroupHom(Z4, Z2, [0, 1, 0, 1], section=[0, 5]),
                             "section entry out of range"),
    "section-booleans": (lambda: GroupHom(Z2, Z2, [0, 1], section=[False, True]),
                         "section entry out of range"),
    "no-section": (lambda: GroupHom(Z2, Z4, [0, 2]).default_section(), "not surjective"),
    "hom-record-list": (lambda: GroupHom.from_json([0, 1], Z2, Z2), "JSON object"),
    "hom-record-keys": (lambda: GroupHom.from_json({"map": [0, 1], "junk": 1}, Z2, Z2),
                        "unknown homomorphism record keys"),
    "hom-record-no-map": (lambda: GroupHom.from_json({"section": [0, 1]}, Z2, Z2),
                          "needs a map"),
    "hom-record-booleans": (lambda: GroupHom.from_json({"map": [False, True]}, Z2, Z2),
                            "image out of range"),
    "cell-booleans": (lambda: GroupChain(Z2, 1, {(True,): True}), "group element index"),
    "homology-fraction-degree": (lambda: homology(Z2, 1.5), "homology degree must be a nonnegative integer"),
    "homology-boolean-degree": (lambda: homology(Z2, True), "homology degree must be a nonnegative integer"),
    "homology-numpy-boolean-degree": (lambda: homology(Z2, np.True_),
                                      "homology degree must be a nonnegative integer"),
    "homology-numpy-negative-degree": (lambda: homology(Z2, np.int64(-1)),
                                       "homology degree must be a nonnegative integer"),
    "homology-numpy-fraction-degree": (lambda: homology(Z2, np.float64(1.0)),
                                       "homology degree must be a nonnegative integer"),
    "boundary-matrix-numpy-negative-degree": (lambda: boundary_matrix(Z3, np.int64(-1)),
                                              "boundary/cycle degree must be a nonnegative integer"),
    "cycle-basis-fraction-degree": (lambda: cycle_basis(Z2, 1.5),
                                    "cycle degree must be a nonnegative integer"),
    "cycle-basis-boolean-degree": (lambda: cycle_basis(Z2, True),
                                   "cycle degree must be a nonnegative integer"),
    "cycle-basis-negative-degree": (lambda: cycle_basis(Z2, -1),
                                    "cycle degree must be a nonnegative integer"),
    "boundary-matrix-boolean-degree": (lambda: boundary_matrix(Z3, True),
                                       "boundary/cycle degree must be a nonnegative integer"),
    "boundary-matrix-negative-degree": (lambda: boundary_matrix(Z3, -1),
                                        "boundary/cycle degree must be a nonnegative integer"),
    "boundary-matrix-fraction-degree": (lambda: boundary_matrix(Z3, 1.5),
                                        "boundary/cycle degree must be a nonnegative integer"),
    "connecting-map-degree": (lambda: boundary_to_relative(GroupChain(Z2, 1),
                                                           builtin_catalog()["Z4->Z2"]),
                              "not a 2-cycle"),
    "connecting-map-group": (lambda: boundary_to_relative(GroupChain(Z4, 2),
                                                          builtin_catalog()["Z4->Z2"]),
                             "not a 2-cycle"),
}


@pytest.mark.parametrize("case", sorted(GROUP_REFUSALS))
def test_group_layer_refusals(case):
    call, message = GROUP_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        call()


Z2_RECORDS = {"Z2": {"order": 2, "table": [[0, 1], [1, 0]]}}

# (file text, message) for each catalog file load_catalog_file refuses; None
# is a file that does not exist
CATALOG_REFUSALS = {
    "missing-file": (None, "cannot read"),
    "invalid-json": ("{nope", "invalid JSON"),
    "not-an-object": ("[]", "catalog must be a JSON object"),
    "no-source": (json.dumps({"groups": Z2_RECORDS, "surjections": {
        "f": {"target": "Z2", "map": [0, 1]}}}), "needs source and target"),
    "unknown-group": (json.dumps({"groups": Z2_RECORDS, "surjections": {
        "f": {"source": "Z3", "target": "Z2", "map": [0, 1]}}}), "unknown group"),
    "boolean-table": (json.dumps({"groups": {"B": {"order": 2, "table": BOOLS}}}),
                      "entry out of range"),
    "boolean-map": (json.dumps({"groups": Z2_RECORDS, "surjections": {
        "f": {"source": "Z2", "target": "Z2", "map": [False, True]}}}), "image out of range"),
    "boolean-order": (json.dumps({"groups": {"E": {"order": True, "table": [[0]]}}}),
                      "order must be an integer"),
    "float-order": (json.dumps({"groups": {"Z2": {"order": 2.0, "table": [[0, 1], [1, 0]]}}}),
                    "order must be an integer"),
    "unknown-catalog-key": (json.dumps({"groups": Z2_RECORDS, "surjection": {
        "f": {"source": "Z2", "target": "Z2", "map": [0, 1]}}}), "unknown catalog keys"),
    "unknown-record-key": (json.dumps({"groups": Z2_RECORDS, "surjections": {
        "f": {"source": "Z2", "target": "Z2", "map": [0, 1], "sectoin": [0, 1]}}}),
        "unknown homomorphism record keys"),
}


def write_catalog(tmp_path, case):
    path = tmp_path / "catalog.json"
    text = CATALOG_REFUSALS[case][0]
    if text is not None:
        path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", sorted(CATALOG_REFUSALS))
def test_catalog_file_refusals(case, tmp_path):
    with pytest.raises(InputError, match=CATALOG_REFUSALS[case][1]):
        load_catalog_file(write_catalog(tmp_path, case))


def test_builtin_catalog_round_trips_through_json(tmp_path):
    groups, surjections = {}, {}
    for name, hom in builtin_catalog().items():
        groups[hom.source.name] = hom.source.to_json()
        groups[hom.target.name] = hom.target.to_json()
        surjections[name] = {"source": hom.source.name, "target": hom.target.name,
                             **hom.to_json()}
    path = tmp_path / "builtin.json"
    path.write_text(json.dumps({"groups": groups, "surjections": surjections}))
    _groups, homs = load_catalog_file(str(path))
    catalog = builtin_catalog()
    assert sorted(homs) == sorted(catalog)
    for name, hom in catalog.items():
        back = homs[name]
        assert (back.mapping, back.section) == (hom.mapping, hom.section)
        for group, read in ((hom.source, back.source), (hom.target, back.target)):
            assert (read.table, read.labels, read.name) == (group.table, group.labels, group.name)
        h, h_back = homology(hom.target, 2), homology(back.target, 2)
        assert (h_back.rank, h_back.torsion, h_back.presentation_divisors) == \
            (h.rank, h.torsion, h.presentation_divisors)
        assert (h.generator is None) == (h_back.generator is None)
        if h.generator is not None:
            assert h_back.generator.coeffs == h.generator.coeffs
