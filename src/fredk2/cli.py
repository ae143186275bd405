"""Command-line front end: loop ingestion, invariant computation with method
selection, convergence sweeps, homology verification runs, machine-readable
reports."""

import json
import math
import sys
import time

import click
import numpy as np

from ._errors import FredK2Error, InputError, InvariantViolation, read_json
from .fourier_loops import FourierLoop, loop_from_json
from .toeplitz_calculus import DEFAULT_WINDOW, _require_window
from .invariants import (
    RouteParts,
    SteinbergSymbol,
    det_invariant_closed,
    det_invariant_integral,
    det_invariant_operator,
    mult_character,
    operator_route_at,
    route_windows,
)
from . import group_homology as gh

REPORT_SCHEMA = "fredk2-report/1"
METHODS = ("closed", "integral", "operator")


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _flatten(prefix, x, rows):
    if isinstance(x, dict):
        for k in sorted(x):
            _flatten(f"{prefix}.{k}" if prefix else str(k), x[k], rows)
    elif isinstance(x, list):
        rows.append((prefix, " ".join(str(v) for v in x)))
    else:
        rows.append((prefix, str(x)))


def emit(report: dict, fmt: str):
    report = _jsonable(report)
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    rows = []
    if fmt == "csv" and "rows" in report:
        header = report.get("row_header")
        if header:
            click.echo(",".join(header))
        for row in report["rows"]:
            click.echo(",".join(str(v) for v in row))
        return
    _flatten("", report, rows)
    if fmt == "csv":
        click.echo("key,value")
        for key, val in rows:
            click.echo(f"{key},{val}")
    else:
        width = max((len(k) for k, _ in rows), default=0)
        for key, val in rows:
            click.echo(f"{key.ljust(width)}  {val}")


class _Commands(click.Group):
    """A FredK2Error from any command prints ``error: …`` and exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FredK2Error as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


@click.group(cls=_Commands)
def main():
    """Determinant invariants of loop Steinberg symbols and the supporting
    homological machinery."""


def _tolerance(_ctx, param, value):
    """A tolerance option: finite and >= 0 (click's FloatRange lets NaN through)."""
    if not (math.isfinite(value) and value >= 0):
        raise click.BadParameter("must be finite and >= 0", param=param)
    return value


def _read_symbol(*paths) -> SteinbergSymbol:
    """The symbol {alpha, beta} of the loop files alpha and beta."""
    return SteinbergSymbol.from_loops(*(loop_from_json(read_json(p)) for p in paths))


def _report_options(fn):
    fn = click.option("--format", "fmt", default="json", show_default=True,
                      type=click.Choice(["json", "csv", "text"]))(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Seed echoed into the report (randomized commands).")(fn)
    return fn


@main.command()
@click.argument("alpha_file", type=click.Path())
@click.argument("beta_file", type=click.Path())
@click.option("--method", default="all", show_default=True,
              type=click.Choice(list(METHODS) + ["all"]))
@click.option("--tol-pair", default=1e-10, show_default=True, callback=_tolerance,
              help="Closed vs integral agreement tolerance (relative).")
@click.option("--tol-operator", default=1e-8, show_default=True, callback=_tolerance,
              help="Operator route agreement tolerance (relative).")
@click.option("--dump-operator", default=None, type=click.Path(),
              help="Write the operator route's cross-part representative "
                   "w0_representative(c - c0), at its chosen window, to "
                   "this JSON file.")
@click.option("--window", default=DEFAULT_WINDOW, show_default=True,
              help="Cap on the operator route's windows, which are chosen "
                   "from the bands of its lifts.")
@click.option("--strict/--fast", "strict", default=True,
              help="Strict mode refuses a window below the one the operator "
                   "route needs and bounds each determinant's change on twice "
                   "its window from the window's own LU.")
@_report_options
def symbol(alpha_file, beta_file, method, tol_pair, tol_operator,
           dump_operator, window, strict, fmt, seed):
    """Determinant invariant and character of the symbol {alpha, beta}."""
    sym = _read_symbol(alpha_file, beta_file)

    wanted = METHODS if method == "all" else (method,)
    values, timings = {}, {}
    tails = {}
    doubling = {}
    windows = {}
    for name in wanted:
        t0 = time.perf_counter()
        if name == "closed":
            values[name] = det_invariant_closed(sym)
        elif name == "integral":
            values[name] = det_invariant_integral(sym)
        else:
            parts = RouteParts(sym)
            needed = max(w for w in route_windows(parts, math.inf) if w)
            if strict and needed > window:
                raise InputError(f"window too small for band: the operator "
                                 f"route needs {needed}, --window is {window}")
            chosen = route_windows(parts, window)
            values[name], rep = operator_route_at(parts, chosen, strict)
        timings[name] = time.perf_counter() - t0
        if name == "operator":
            # the re-run on twice the chosen windows checks the value;
            # it is not part of its cost
            tails[name] = rep.tail_bound
            windows = {"cross": chosen[0], "helton_howe": chosen[1]}
            doubled = tuple(None if w is None else 2 * w for w in chosen)
            redo = operator_route_at(parts, doubled, strict=False)[0]
            doubling[name] = abs(redo - values[name])
            if dump_operator:
                with open(dump_operator, "w", encoding="utf-8") as fh:
                    json.dump(rep.to_json(), fh)
    character = mult_character(sym)

    discrepancies = {}
    for i, x in enumerate(wanted):
        for y in wanted[i + 1:]:
            scale = max(abs(values[x]), abs(values[y]), 1e-300)
            discrepancies[f"{x}_vs_{y}"] = abs(values[x] - values[y]) / scale

    # a NaN discrepancy is a disagreement
    ok = all(delta <= (tol_operator if "operator" in key else tol_pair)
             for key, delta in discrepancies.items())
    report = {"schema": REPORT_SCHEMA, "command": "symbol",
              "config": {"method": method, "window": window,
                         "strict": strict, "format": fmt, "seed": seed},
              "values": values,
              "character": character,
              "discrepancies": discrepancies,
              "tail_bounds": tails,
              "windows": windows,
              "window_doubling": doubling,
              "timings": timings,
              "within_tolerance": ok}
    emit(report, fmt)
    if not ok:
        sys.exit(InvariantViolation("method values disagree beyond tolerance").exit_code)


@main.command()
@click.argument("alpha_file", type=click.Path())
@click.argument("beta_file", type=click.Path())
@click.option("--windows", default="32,64,128,256", show_default=True,
              help="Comma-separated increasing window sizes.")
@click.option("--tol", default=1e-8, show_default=True, callback=_tolerance,
              help="Final-window agreement tolerance vs the closed form.")
@_report_options
def converge(alpha_file, beta_file, windows, tol, fmt, seed):
    """Operator-route convergence sweep against the closed form (CSV rows
    window, real, imag, delta)."""
    try:
        sizes = [int(tok) for tok in windows.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError("windows must be a comma-separated integer list") from exc
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("windows must be strictly increasing")
    sym = _read_symbol(alpha_file, beta_file)
    _require_window(sizes[0], sym.u.log_part, sym.v.log_part)

    reference = det_invariant_closed(sym)
    parts = RouteParts(sym)
    rows = []
    timings = {}
    for size in sizes:
        # every sweep window is taken as given, with strict=False
        t0 = time.perf_counter()
        val = operator_route_at(parts, (size, size), strict=False)[0]
        timings[str(size)] = time.perf_counter() - t0
        rows.append([size, val.real, val.imag, abs(val - reference)])
    final_delta = rows[-1][3]
    report = {"schema": REPORT_SCHEMA, "command": "converge",
              "config": {"format": fmt, "seed": seed},
              "closed_value": reference,
              "row_header": ["window", "real", "imag", "delta"],
              "rows": rows,
              "final_delta": final_delta,
              "timings": timings,
              "within_tolerance": final_delta <= tol * max(1.0, abs(reference))}
    emit(report, fmt)
    if not report["within_tolerance"]:
        sys.exit(InvariantViolation("operator route did not converge").exit_code)


def _sample_cycles(hom, samples, rng):
    """Random 2-cycles over the target: kernel-basis combinations plus a
    boundary of a random 3-chain, mirroring the exactness argument."""
    target = hom.target
    n = target.order
    basis = gh.cycle_basis(target, 2)
    cycles = []
    for _ in range(samples):
        cyc = gh.GroupChain(target, 2)
        for chain in basis:
            cyc = cyc.add(chain.scale(int(rng.integers(-2, 3))))
        extra = gh.GroupChain(target, 3)
        for _ in range(3):
            i = int(rng.integers(n ** 3))  # the i-th 3-cell in lexicographic order
            extra.add_cell((i // n ** 2, i // n % n, i % n), int(rng.integers(-2, 3)))
        cycles.append(cyc.add(gh.bar_boundary(extra)))
    return cycles


@main.command()
@click.argument("catalog_file", type=click.Path())
@click.option("--samples", default=100, show_default=True, type=click.IntRange(min=0),
              help="Random 2-cycles sampled per surjection.")
@_report_options
def homology(catalog_file, samples, fmt, seed):
    """Degree-2 homology invariants and the two-path boundary comparison for
    every surjection in a catalog file."""
    _groups, homs = gh.load_catalog_file(catalog_file)
    rng = np.random.default_rng(seed)
    per = {}
    t0 = time.perf_counter()
    for name in sorted(homs):
        hom = homs[name]
        h2 = gh.homology(hom.target, 2)
        trivial_class = gh._kernel_quotient(hom).identity
        agreements = 0
        nontrivial = 0
        for cyc in _sample_cycles(hom, samples, rng):
            direct = gh.f_phi_section(hom, cyc)
            cone = gh.boundary_to_relative(cyc, hom)
            via_psi = gh.psi(gh.coker_representative(cone, hom))
            if direct == via_psi:
                agreements += 1
            if direct != trivial_class:
                nontrivial += 1
        per[name] = {"h2_rank": h2.rank, "h2_torsion": list(h2.torsion),
                     "samples": samples, "agreements": agreements,
                     "nontrivial_classes": nontrivial}
    report = {"schema": REPORT_SCHEMA, "command": "homology",
              "config": {"format": fmt, "seed": seed},
              "surjections": per,
              "timings": {"total": time.perf_counter() - t0}}
    emit(report, fmt)
    bad = [n for n, row in per.items() if row["agreements"] != row["samples"]]
    if bad:
        sys.exit(InvariantViolation("two-path disagreement").exit_code)


@main.command()
@_report_options
def selftest(fmt, seed):
    """Fast built-in checks across all modules."""
    from .fourier_loops import LoopLog, log_split, zero_loop
    from .toeplitz_calculus import (ToeplitzOp, commutator, coshift_op, identity_op,
                                    op_trace, shift_op, zero_op)
    from .cyclic_chains import CyclicChain, SimplexPath, tau_cocycle, tilde_gamma
    from .invariants import relative_boundary_trace, rho, rho_z, rho_zinv

    w = 64
    checks = {}
    zz = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
    checks["det_z_z_closed"] = det_invariant_closed(zz) == -1.0
    checks["det_z_z_integral"] = det_invariant_integral(zz) == -1.0
    checks["det_z_z_operator"] = abs(det_invariant_operator(zz, window=w) + 1) < 1e-8
    checks["character_z_z"] = mult_character(zz) == complex(0.0, math.pi)
    ee = SteinbergSymbol(LoopLog(1, FourierLoop({1: 0.3})),
                         LoopLog(1, FourierLoop({-1: 0.2})))
    checks["integral_matches_closed"] = abs(
        det_invariant_integral(ee) - det_invariant_closed(ee)) < 1e-12
    a = FourierLoop({1: 0.3, -1: 0.1})
    ll = log_split(a.exp().shift(-2))
    checks["log_split_round_trip"] = ll.winding == -2 and ll.log_part.sub(a).l1() < 1e-12

    prod = rho_z(w).mul(rho_zinv(w))
    ident = all(prod.block(i, j).symbol.is_zero() if i != j
                else not prod.block(i, j).corner.size
                for i in (1, 2) for j in (1, 2))
    checks["rho_z_inverse_pair"] = ident
    checks["shift_commutator_trace"] = op_trace(
        commutator(shift_op(w), coshift_op(w))) == -1.0

    f = FourierLoop({1: 0.3})
    g = FourierLoop({-1: 0.2})
    chain = CyclicChain(1, [(1.0, (rho(f, w), rho(g, w)))])
    checks["tau1_boundary_bridge"] = abs(
        tau_cocycle(1, chain) - relative_boundary_trace(chain)) < 1e-9
    # I + t·N against I, N rank one with eigenvalue 0.4: −log det(I + N)
    rank_one = ToeplitzOp(zero_loop(), np.diag([0.4] + [0.0] * (w - 1)), w)
    one = identity_op(w)
    line = SimplexPath(1, lambda t: one + t * rank_one, lambda _i, t: rank_one)
    const = SimplexPath(1, lambda t: one, lambda _i, t: zero_op(w))
    checks["tilde_gamma_toeplitz_rank_one"] = abs(
        tilde_gamma(line, const) + math.log1p(0.4)) < 1e-9

    hom = gh.builtin_catalog()["Z4->Z2"]
    gen = gh.homology(hom.target, 2)
    checks["h2_z2_trivial"] = gen.rank == 0 and not gen.torsion
    klein = gh.builtin_catalog()["Q8->Z2xZ2"]
    h2 = gh.homology(klein.target, 2)
    cyc = h2.generator
    direct = gh.f_phi_section(klein, cyc)
    via = gh.psi(gh.coker_representative(gh.boundary_to_relative(cyc, klein), klein))
    checks["klein_generator_two_paths"] = (direct == via)

    report = {"schema": REPORT_SCHEMA, "command": "selftest",
              "config": {"window": w, "seed": seed, "format": fmt},
              "checks": checks,
              "passed": all(checks.values())}
    emit(report, fmt)
    if not report["passed"]:
        sys.exit(InvariantViolation("selftest failure").exit_code)


if __name__ == "__main__":
    main()
