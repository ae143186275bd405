"""Command-line front end: loop ingestion, invariant computation with method
selection, convergence sweeps, homology verification runs, machine-readable
reports."""

import json
import math
import sys
import time

import click
import numpy as np

from ._errors import FredK2Error, InputError, InvariantViolation
from .fourier_loops import FourierLoop, loop_from_json, max_band
from .toeplitz_calculus import DEFAULT_WINDOW, _require_window
from .invariants import (
    SteinbergSymbol,
    det_invariant_closed,
    det_invariant_integral,
    det_invariant_operator,
    mult_character,
    _operator_route,
)
from . import group_homology as gh

REPORT_SCHEMA = "fredk2-report/1"
METHODS = ("closed", "integral", "operator")


class RunConfig:
    """Validated bundle of run parameters, echoed into every report."""

    def __init__(self, method="all", window=DEFAULT_WINDOW, strict=True,
                 quadrature_order=None, fmt="json", seed=None):
        if method not in METHODS + ("all",):
            raise InputError("unknown method")
        if window < 4:
            raise InputError("window too small for band")
        self.method = method
        self.window = int(window)
        self.strict = bool(strict)
        self.quadrature_order = quadrature_order
        self.fmt = fmt
        self.seed = seed

    def check_band(self, band: int):
        if band > max_band():
            raise InputError("band exceeds FREDK2_MAX_BAND")
        if self.strict and self.window < 4 * band + 16:
            raise InputError("window too small for band")

    def echo(self) -> dict:
        return {"method": self.method, "window": self.window,
                "strict": self.strict, "quadrature_order": self.quadrature_order,
                "format": self.fmt, "seed": self.seed}


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
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


def _load_loop(path: str) -> FourierLoop:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return loop_from_json(data)


def _fail(exc: FredK2Error):
    click.echo(f"error: {exc}", err=True)
    sys.exit(exc.exit_code)


@click.group()
def main():
    """Determinant invariants of loop Steinberg symbols and the supporting
    homological machinery."""


def _config_options(fn):
    fn = click.option("--window", default=DEFAULT_WINDOW, show_default=True,
                      help="Operator truncation window.")(fn)
    fn = click.option("--strict/--fast", "strict", default=True,
                      help="Strict mode doubles the window for verification.")(fn)
    fn = click.option("--quadrature-order", default=None, type=int,
                      help="Grid size for the integral method cross-check.")(fn)
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
@click.option("--tol-pair", default=1e-10, show_default=True,
              help="Closed vs integral agreement tolerance (relative).")
@click.option("--tol-operator", default=1e-8, show_default=True,
              help="Operator route agreement tolerance (relative).")
@click.option("--dump-operator", default=None, type=click.Path(),
              help="Write the operator route's cross-part representative "
                   "w0_representative(c - c0) to this JSON file.")
@_config_options
def symbol(alpha_file, beta_file, method, tol_pair, tol_operator,
           dump_operator, window, strict, quadrature_order, fmt, seed):
    """Determinant invariant and character of the symbol {alpha, beta}."""
    try:
        cfg = RunConfig(method, window, strict, quadrature_order, fmt, seed)
        alpha = _load_loop(alpha_file)
        beta = _load_loop(beta_file)
        cfg.check_band(max(alpha.band, beta.band))
        sym = SteinbergSymbol.from_loops(alpha, beta)
        cfg.check_band(max(sym.u.log_part.band, sym.v.log_part.band))

        wanted = METHODS if method == "all" else (method,)
        values, timings = {}, {}
        tails = {}
        doubling = {}
        for name in wanted:
            t0 = time.perf_counter()
            if name == "closed":
                values[name] = det_invariant_closed(sym)
            elif name == "integral":
                values[name] = det_invariant_integral(sym, grid=quadrature_order)
            else:
                values[name], rep = _operator_route(sym, cfg.window, cfg.strict)
            timings[name] = time.perf_counter() - t0
            if name == "operator":
                # the 2w re-run checks the value; it is not part of its cost
                tails[name] = rep.tail_bound
                redo = det_invariant_operator(sym, window=2 * cfg.window,
                                              strict=False)
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

        ok = True
        for key, delta in discrepancies.items():
            tol = tol_operator if "operator" in key else tol_pair
            if delta > tol:
                ok = False
        report = {"schema": REPORT_SCHEMA, "command": "symbol",
                  "config": cfg.echo(),
                  "values": values,
                  "character": character,
                  "discrepancies": discrepancies,
                  "tail_bounds": tails,
                  "window_doubling": doubling,
                  "timings": timings,
                  "within_tolerance": ok}
        emit(report, fmt)
        if not ok:
            sys.exit(InvariantViolation("method values disagree beyond tolerance").exit_code)
    except FredK2Error as exc:
        _fail(exc)


@main.command()
@click.argument("alpha_file", type=click.Path())
@click.argument("beta_file", type=click.Path())
@click.option("--windows", default="32,64,128,256", show_default=True,
              help="Comma-separated increasing window sizes.")
@click.option("--tol", default=1e-8, show_default=True,
              help="Final-window agreement tolerance vs the closed form.")
@_config_options
def converge(alpha_file, beta_file, windows, tol, window, strict,
             quadrature_order, fmt, seed):
    """Operator-route convergence sweep against the closed form (CSV rows
    window, real, imag, delta)."""
    try:
        # the sweep runs every window of --windows with strict=False, so
        # only the band cap and the first sweep window are checked
        cfg = RunConfig("operator", window, False, quadrature_order, fmt, seed)
        try:
            sizes = [int(tok) for tok in windows.split(",") if tok.strip()]
        except ValueError as exc:
            raise InputError("windows must be a comma-separated integer list") from exc
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InputError("windows must be strictly increasing")
        alpha = _load_loop(alpha_file)
        beta = _load_loop(beta_file)
        sym = SteinbergSymbol.from_loops(alpha, beta)
        band = max(sym.u.log_part.band, sym.v.log_part.band)
        cfg.check_band(band)
        _require_window(sizes[0], band)

        reference = det_invariant_closed(sym)
        rows = []
        timings = {}
        for size in sizes:
            t0 = time.perf_counter()
            val = det_invariant_operator(sym, window=size, strict=False)
            timings[str(size)] = time.perf_counter() - t0
            rows.append([size, val.real, val.imag, abs(val - reference)])
        final_delta = rows[-1][3]
        report = {"schema": REPORT_SCHEMA, "command": "converge",
                  "config": cfg.echo(),
                  "closed_value": reference,
                  "row_header": ["window", "real", "imag", "delta"],
                  "rows": rows,
                  "final_delta": final_delta,
                  "timings": timings,
                  "within_tolerance": final_delta <= tol * max(1.0, abs(reference))}
        emit(report, fmt)
        if not report["within_tolerance"]:
            sys.exit(InvariantViolation("operator route did not converge").exit_code)
    except FredK2Error as exc:
        _fail(exc)


def _sample_cycles(hom, samples, rng):
    """Random 2-cycles over the target: kernel-basis combinations plus a
    boundary of a random 3-chain, mirroring the exactness argument."""
    target = hom.target
    basis = gh.cycle_basis(target, 2)
    cells = gh._all_cells(target, 3)
    cycles = []
    for _ in range(samples):
        cyc = gh.GroupChain(target, 2)
        for chain in basis:
            cyc = cyc.add(chain.scale(int(rng.integers(-2, 3))))
        extra = gh.GroupChain(target, 3)
        for _ in range(3):
            cell = cells[int(rng.integers(len(cells)))]
            extra.add_cell(cell, int(rng.integers(-2, 3)))
        cycles.append(cyc.add(gh.bar_boundary(extra)))
    return cycles


@main.command()
@click.argument("catalog_file", type=click.Path())
@click.option("--samples", default=100, show_default=True,
              help="Random 2-cycles sampled per surjection.")
@_config_options
def homology(catalog_file, samples, window, strict, quadrature_order, fmt, seed):
    """Degree-2 homology invariants and the two-path boundary comparison for
    every surjection in a catalog file."""
    try:
        cfg = RunConfig("all", window, strict, quadrature_order, fmt, seed)
        try:
            _groups, homs = gh.load_catalog_file(catalog_file)
        except OSError as exc:
            raise InputError(f"cannot read {catalog_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {catalog_file}: {exc}") from exc
        rng = np.random.default_rng(seed)
        per = {}
        t0 = time.perf_counter()
        for name in sorted(homs):
            hom = homs[name]
            h2 = gh.homology(hom.target, 2)
            trivial_class = gh.KernelQuotient(hom).identity
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
                  "config": cfg.echo(),
                  "surjections": per,
                  "timings": {"total": time.perf_counter() - t0}}
        emit(report, fmt)
        bad = [n for n, row in per.items() if row["agreements"] != row["samples"]]
        if bad:
            sys.exit(InvariantViolation("two-path disagreement").exit_code)
    except FredK2Error as exc:
        _fail(exc)


@main.command()
@_config_options
def selftest(window, strict, quadrature_order, fmt, seed):
    """Fast built-in checks across all modules."""
    try:
        from .fourier_loops import LoopLog, zero_loop
        from .toeplitz_calculus import commutator, coshift_op, op_trace, shift_op
        from .cyclic_chains import CyclicChain, tau_cocycle
        from .invariants import relative_boundary_trace, rho, rho_z, rho_zinv

        w = 64
        checks = {}
        zz = SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
        checks["det_z_z_closed"] = det_invariant_closed(zz) == -1.0
        checks["det_z_z_integral"] = det_invariant_integral(zz) == -1.0
        checks["det_z_z_operator"] = abs(det_invariant_operator(zz, window=w) + 1) < 1e-8
        checks["character_z_z"] = mult_character(zz) == complex(0.0, math.pi)

        prod = rho_z(w).mul(rho_zinv(w))
        ident = all(prod.block(i, j).symbol.is_zero() if i != j
                    else not np.any(prod.block(i, j).correction)
                    for i in (1, 2) for j in (1, 2))
        checks["rho_z_inverse_pair"] = ident
        checks["shift_commutator_trace"] = op_trace(
            commutator(shift_op(w), coshift_op(w))) == -1.0

        f = FourierLoop({1: 0.3})
        g = FourierLoop({-1: 0.2})
        chain = CyclicChain(1, [(1.0, (rho(f, w), rho(g, w)))])
        checks["tau1_boundary_bridge"] = abs(
            tau_cocycle(1, chain) - relative_boundary_trace(chain)) < 1e-9

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
    except FredK2Error as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
