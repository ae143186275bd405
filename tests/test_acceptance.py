"""Acceptance gate: every top-level guarantee of the package, one criterion
per test, each printing a single pass/fail line with the measured margins.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; plain `pytest` shows them for failing criteria only.
"""

import cmath
import math
import time

import numpy as np
import pytest
import scipy.linalg

from fredk2.cyclic_chains import (
    CyclicChain,
    SimplexPath,
    cyclic_b,
    dN,
    gamma_log,
    tau_cocycle,
    tilde_gamma,
)
from fredk2.fourier_loops import FourierLoop, LoopLog, pairing_integral, zero_loop
from fredk2.fredholm import (
    OperatorPath,
    det1p,
    det_exp_pair_verify,
    mult_commutator_det,
    path_log_det,
)
from fredk2.group_homology import (
    GroupChain,
    _all_cells,
    bar_boundary,
    boundary_to_relative,
    builtin_catalog,
    coker_representative,
    cycle_basis,
    f_phi_section,
    homology,
    psi,
)
from fredk2.invariants import (
    SteinbergSymbol,
    det_invariant_closed,
    det_invariant_integral,
    det_invariant_operator,
    mult_character,
    relative_boundary_trace,
    rho,
    w0_representative,
)
from fredk2.toeplitz_calculus import (
    commutator,
    commutator_trace_closed,
    coshift_op,
    exp_op,
    mul,
    op_trace,
    shift_conjugation_trace,
    shift_op,
    toeplitz,
)

CORPUS_SEED = 20260814
CORPUS_SIZE = 50
WINDOW = 256


def _line(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand_log(rng, band=6, mag=0.3, max_terms=4):
    ks = rng.choice(np.arange(-band, band + 1),
                    size=rng.integers(1, max_terms + 1), replace=False)
    coeffs = {}
    for k in ks:
        r = rng.uniform(0.05, mag)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        coeffs[int(k)] = r * cmath.exp(1j * ph)
    return FourierLoop(coeffs)


def _rand_symbol(rng):
    return SteinbergSymbol(
        LoopLog(int(rng.integers(-3, 4)), _rand_log(rng)),
        LoopLog(int(rng.integers(-3, 4)), _rand_log(rng)))


@pytest.fixture(scope="module")
def corpus():
    """The shared 50-symbol corpus with all three route values per symbol."""
    rng = np.random.default_rng(CORPUS_SEED)
    rows = []
    t0 = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        sym = _rand_symbol(rng)
        rows.append({
            "sym": sym,
            "closed": det_invariant_closed(sym),
            "integral": det_invariant_integral(sym),
            "operator": det_invariant_operator(sym, window=WINDOW, strict=True),
        })
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_three_path_agreement(corpus):
    rows, elapsed = corpus
    worst_int = worst_op = 0.0
    for row in rows:
        scale = abs(row["closed"])
        worst_int = max(worst_int, abs(row["integral"] - row["closed"]) / scale)
        worst_op = max(worst_op, abs(row["operator"] - row["closed"]) / scale)
    ok = worst_int <= 1e-10 and worst_op <= 1e-8 and elapsed < 60.0
    _line(1, ok, f"50 symbols, closed/integral rel {worst_int:.2e} "
                 f"(tol 1e-10), closed/operator rel {worst_op:.2e} "
                 f"(tol 1e-8), {elapsed:.1f}s (< 60s)")


def test_operator_route_roundoff_pin(corpus):
    """The operator route's roundoff on the corpus, well inside
    criterion 1's 1e-8: a faster symbol or determinant kernel must not
    give precision back unnoticed."""
    rows, _ = corpus
    worst = max(abs(row["operator"] - row["closed"]) / abs(row["closed"])
                for row in rows)
    assert worst <= 1e-13, f"closed/operator rel {worst:.2e} (pin 1e-13)"


def test_criterion_2_exp_character_equals_operator_det(corpus):
    rows, _ = corpus
    worst = 0.0
    for row in rows:
        val = cmath.exp(mult_character(row["sym"]))
        worst = max(worst, abs(val - row["operator"]) / abs(row["operator"]))
    ok = worst <= 1e-8
    _line(2, ok, f"exp(character) vs operator det rel {worst:.2e} (tol 1e-8)")


def test_criterion_3_fixed_values():
    zz = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
    exact_closed = det_invariant_closed(zz) == -1.0
    exact_integral = det_invariant_integral(zz) == -1.0
    op_dev = abs(det_invariant_operator(zz, window=WINDOW) + 1.0)

    w = 128
    shift_comm = op_trace(commutator(shift_op(w), coshift_op(w)))
    exact_shift = shift_comm == -1.0

    rng = np.random.default_rng(CORPUS_SEED + 1)
    s, st = shift_op(w), coshift_op(w)
    worst_closed = worst_window = 0.0
    for _ in range(20):
        b = _rand_log(rng)
        want = -b[0]
        worst_closed = max(worst_closed, abs(shift_conjugation_trace(b) - want))
        tb = toeplitz(b, w)
        conj = mul(mul(s, tb), st).sub(tb)
        worst_window = max(worst_window, abs(op_trace(conj) - want))
    ok = (exact_closed and exact_integral and op_dev <= 1e-8
          and exact_shift and worst_closed == 0.0 and worst_window <= 1e-10)
    _line(3, ok, f"det(z,z) exact -1 closed/integral, operator dev {op_dev:.1e} "
                 f"(tol 1e-8); Tr[S,S*] = {shift_comm}; conjugation trace "
                 f"closed dev {worst_closed:.1e} (exact), window dev "
                 f"{worst_window:.1e} (tol 1e-10)")


def test_criterion_4_helton_howe():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    w = 128
    worst = 0.0
    for _ in range(20):
        a, b = _rand_log(rng), _rand_log(rng)
        u, v = exp_op(toeplitz(a, w)), exp_op(toeplitz(b, w))
        got = mult_commutator_det(u, v, u_inv=u.inv(), v_inv=v.inv())
        want = cmath.exp(pairing_integral(a, b))
        worst = max(worst, abs(got - want) / abs(want))

    # the same multiplicative commutator on any finite section has
    # determinant exactly 1, so a value away from 1 certifies the
    # symbol+correction calculus is not a finite-section computation
    a = FourierLoop({2: 0.25})
    b = FourierLoop({-2: 0.25})
    u_op, v_op = exp_op(toeplitz(a, w)), exp_op(toeplitz(b, w))
    op_val = mult_commutator_det(u_op, v_op, u_inv=u_op.inv(), v_inv=v_op.inv())
    n = 64
    u = scipy.linalg.expm(toeplitz(a, n).dense_section(n))
    v = scipy.linalg.expm(toeplitz(b, n).dense_section(n))
    finite = complex(np.linalg.det(u @ v @ np.linalg.inv(u) @ np.linalg.inv(v)))
    ok = (worst <= 1e-8 and abs(finite - 1.0) < 1e-8
          and abs(op_val - 1.0) > 0.1)
    _line(4, ok, f"20 pairs rel dev {worst:.2e} (tol 1e-8); finite-section "
                 f"commutator det {finite:.12f} vs operator value "
                 f"{op_val:.6f} (away from 1)")


def test_criterion_5_exponential_determinants():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    for _ in range(100):
        x = 0.1 * (rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
        y = 0.1 * (rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
        det_exp_pair_verify(x, y)

    worst = 0.0
    for trial in range(20):
        x = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        y = 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        if trial % 2:
            path = OperatorPath.product(OperatorPath.exponential(x),
                                        OperatorPath.exponential(y))
        else:
            path = OperatorPath(
                lambda t, x=x, y=y: scipy.linalg.expm(t * x) @ scipy.linalg.expm(t * t * y),
                lambda t, x=x, y=y: (x @ scipy.linalg.expm(t * x) @ scipy.linalg.expm(t * t * y)
                                     + scipy.linalg.expm(t * x) @ (2 * t * y) @ scipy.linalg.expm(t * t * y)))
        got = cmath.exp(path_log_det(path))
        want = complex(np.linalg.det(path(1.0)))
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-9
    _line(5, ok, f"100 exp-pair identities at 1e-10; 20 path determinants "
                 f"rel dev {worst:.2e} (tol 1e-9)")


def test_criterion_6_chain_level_identities():
    rng = np.random.default_rng(CORPUS_SEED + 4)

    def rand_mat(m, scale=0.5):
        return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))

    worst_bg = 0.0
    for _ in range(10):
        x_mat, y_mat = rand_mat(4), rand_mat(4)
        sig = SimplexPath(
            2,
            lambda t1, t2, X=x_mat, Y=y_mat: scipy.linalg.expm(t1 * X) @ scipy.linalg.expm(t2 * Y),
            lambda i, t1, t2, X=x_mat, Y=y_mat:
                X @ scipy.linalg.expm(t1 * X) @ scipy.linalg.expm(t2 * Y) if i == 1
                else scipy.linalg.expm(t1 * X) @ Y @ scipy.linalg.expm(t2 * Y))
        lhs = cyclic_b(gamma_log(sig)).materialize()
        rhs = gamma_log(dN(sig)).materialize()
        scale = max(1.0, float(np.linalg.norm(lhs)))
        worst_bg = max(worst_bg, float(np.linalg.norm(lhs + rhs)) / scale)

    worst_tau = 0.0
    for _ in range(10):
        terms = []
        for _ in range(rng.integers(1, 4)):
            f, g = _rand_log(rng, band=3), _rand_log(rng, band=3)
            co = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            terms.append((co, (rho(f, 64), rho(g, 64))))
        chain = CyclicChain(1, terms)
        worst_tau = max(worst_tau, abs(tau_cocycle(1, chain)
                                       - relative_boundary_trace(chain)))

    worst_tg = 0.0
    for _ in range(10):
        x_mat, y_mat = rand_mat(3), rand_mat(3)

        def curved(X, Y):
            return SimplexPath(
                1,
                lambda t: scipy.linalg.expm(t * X) @ scipy.linalg.expm(t * t * Y),
                lambda _i, t: (X @ scipy.linalg.expm(t * X) @ scipy.linalg.expm(t * t * Y)
                               + scipy.linalg.expm(t * X) @ (2 * t * Y) @ scipy.linalg.expm(t * t * Y)))

        s1 = curved(x_mat, y_mat)
        s2 = curved(y_mat, x_mat)
        val = tilde_gamma(s1, s2, tol=1e-9)
        target = complex(np.linalg.det(np.linalg.inv(s1.at(1.0)) @ s2.at(1.0)))
        worst_tg = max(worst_tg, abs(cmath.exp(val) - target) / abs(target))

    ok = worst_bg <= 1e-7 and worst_tau <= 1e-9 and worst_tg <= 1e-9
    _line(6, ok, f"b(gamma) vs -gamma(dN) rel {worst_bg:.2e} (tol 1e-7); "
                 f"tau_1 vs boundary trace dev {worst_tau:.2e} (tol 1e-9); "
                 f"relative log vs endpoint dets rel {worst_tg:.2e} "
                 f"(tol 1e-9)")


def test_criterion_7_group_homology_two_paths():
    t0 = time.perf_counter()
    rng = np.random.default_rng(CORPUS_SEED + 5)
    catalog = builtin_catalog()
    assert len(catalog) == 5

    def random_cycle(hom):
        target = hom.target
        cyc = GroupChain(target, 2)
        for chain in cycle_basis(target, 2):
            cyc = cyc.add(chain.scale(int(rng.integers(-2, 3))))
        extra = GroupChain(target, 3)
        cells = _all_cells(target, 3)
        for _ in range(3):
            extra.add_cell(cells[int(rng.integers(len(cells)))],
                           int(rng.integers(-2, 3)))
        return cyc.add(bar_boundary(extra))

    failures = 0
    total = 0
    for name in sorted(catalog):
        hom = catalog[name]
        for _ in range(100):
            cyc = random_cycle(hom)
            direct = f_phi_section(hom, cyc)
            via = psi(coker_representative(boundary_to_relative(cyc, hom), hom))
            total += 1
            if direct != via:
                failures += 1

        chain = GroupChain(hom.target, 3)
        cells = _all_cells(hom.target, 3)
        for _ in range(4):
            chain.add_cell(cells[int(rng.integers(len(cells)))],
                           int(rng.integers(-3, 4)))
        assert bar_boundary(bar_boundary(chain)).is_zero()

    alt_sections = {"Z4->Z2": [0, 3], "Q8->Z2xZ2": [0, 5, 3, 7]}
    section_mismatches = 0
    for name, section in alt_sections.items():
        hom = catalog[name]
        for _ in range(20):
            cyc = random_cycle(hom)
            if f_phi_section(hom, cyc) != f_phi_section(hom, cyc, section=section):
                section_mismatches += 1

    klein = catalog["Q8->Z2xZ2"].target
    z2 = catalog["Z4->Z2"].target
    h2_klein = homology(klein, 2)
    h2_z2 = homology(z2, 2)
    elapsed = time.perf_counter() - t0
    ok = (failures == 0 and total == 500 and section_mismatches == 0
          and h2_klein.rank == 0 and list(h2_klein.torsion) == [2]
          and h2_z2.rank == 0 and list(h2_z2.torsion) == []
          and elapsed < 120.0)
    _line(7, ok, f"{total} cycles over 5 surjections, {failures} failures "
                 f"(exact); section independence exact; H2(Z/2 x Z/2) = Z/2, "
                 f"H2(Z/2) = 0; {elapsed:.1f}s (< 120s)")


def test_criterion_8_structural_invariants(corpus):
    rows, _ = corpus
    rng = np.random.default_rng(CORPUS_SEED + 6)

    # exact symbol multiplicativity across product, exponential, inverse
    w = 64
    symbol_exact = True
    for _ in range(25):
        f, g = _rand_log(rng, band=4), _rand_log(rng, band=4)
        x = exp_op(toeplitz(f, w))
        y = toeplitz(g, w)
        if not mul(x, y).symbol.sub(f.exp().mul(g)).is_zero():
            symbol_exact = False
        if not x.symbol.sub(f.exp()).is_zero():
            symbol_exact = False
        one_plus = toeplitz(FourierLoop({0: 1.0}).add(g.scalar_mul(0.2)), w)
        if not one_plus.inv().symbol.sub(one_plus.symbol.inv()).is_zero():
            symbol_exact = False

    worst_conj = worst_mult = 0.0
    for _ in range(5):
        c1, c2, h = (_rand_log(rng, band=3) for _ in range(3))
        w2 = 128
        a_op = w0_representative(c1, w2)
        b_op = w0_representative(c2, w2)
        da, db = det1p(a_op), det1p(b_op)
        g_op = exp_op(toeplitz(h, w2))
        conj = det1p(mul(mul(g_op, a_op), g_op.inv()))
        worst_conj = max(worst_conj, abs(conj - da) / abs(da))
        both = det1p(mul(a_op, b_op))
        worst_mult = max(worst_mult, abs(both - da * db) / abs(da * db))

    worst_margin = 0.0
    doubling_ok = True
    for row in rows:
        sym = row["sym"]
        c = sym.v.log_part.scalar_mul(sym.u.winding).sub(
            sym.u.log_part.scalar_mul(sym.v.winding))
        rep1 = w0_representative(c, WINDOW)
        rep2 = w0_representative(c, 2 * WINDOW)
        v1 = det1p(rep1, strict=False)
        v2 = det1p(rep2, strict=False)
        delta = abs(v1 - v2)
        bound = rep1.tail_bound + rep2.tail_bound + 1e-12 * max(1.0, abs(v1))
        if delta > bound:
            doubling_ok = False
        worst_margin = max(worst_margin, delta / bound)

    ok = (symbol_exact and worst_conj <= 1e-9 and worst_mult <= 1e-9
          and doubling_ok)
    _line(8, ok, f"symbol map exact; det1p conjugation rel {worst_conj:.2e} "
                 f"and multiplicativity rel {worst_mult:.2e} (tol 1e-9); "
                 f"doubling delta vs tail bound worst ratio {worst_margin:.2e}")
