import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fredk2 import cli, group_homology
from fredk2._errors import InputError, NumericalError, read_json
from fredk2.cli import main
from fredk2.fourier_loops import FourierLoop, loop_to_json
from fredk2.group_homology import FiniteGroup
from fredk2.invariants import (
    RouteParts,
    SteinbergSymbol,
    operator_route_at,
    route_windows,
)

from test_group_homology import CATALOG_REFUSALS, write_catalog
from test_invariants import corpus_symbols


@pytest.fixture
def runner():
    return CliRunner()


def write_loop(path, loop):
    path.write_text(json.dumps(loop_to_json(loop)))
    return str(path)


def z_file(tmp_path, name="z.json"):
    return write_loop(tmp_path / name, FourierLoop({1: 1.0}))


def exp_pair_files(tmp_path):
    alpha = FourierLoop({1: 0.3}).exp().shift(1)
    beta = FourierLoop({-1: 0.2}).exp().shift(1)
    return (write_loop(tmp_path / "alpha.json", alpha),
            write_loop(tmp_path / "beta.json", beta))


def overflow_files(tmp_path):
    return (write_loop(tmp_path / "big.json", FourierLoop({0: 1e300})),
            write_loop(tmp_path / "z3.json", FourierLoop({3: 1.0})))


class TestSymbolCommand:
    def test_z_z_all_methods(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--window", "64",
                                   "--seed", "3"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["schema"] == "fredk2-report/1"
        assert report["config"]["seed"] == 3
        for method in ("closed", "integral", "operator"):
            re_part, im_part = report["values"][method]
            assert abs(re_part + 1.0) < 1e-8 and abs(im_part) < 1e-8
        assert abs(report["character"][1] - math.pi) < 1e-12
        assert report["within_tolerance"] is True
        assert set(report["timings"]) == {"closed", "integral", "operator"}

    def test_constant_loop_gives_one(self, runner, tmp_path):
        one = write_loop(tmp_path / "one.json", FourierLoop({0: 1.0}))
        res = runner.invoke(main, ["symbol", one, one, "--window", "32"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        for method in ("closed", "integral", "operator"):
            assert abs(report["values"][method][0] - 1.0) < 1e-10
            assert abs(report["values"][method][1]) < 1e-10

    def test_exp_pair_value(self, runner, tmp_path):
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["symbol", af, bf, "--window", "64"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        want = -math.exp(-0.06)
        for method in ("closed", "integral", "operator"):
            assert abs(report["values"][method][0] - want) < 1e-8
        assert report["discrepancies"]["closed_vs_operator"] < 1e-8

    def test_pure_power_loop(self, runner, tmp_path):
        # {z², z} = {z, z}² = 1
        z2 = write_loop(tmp_path / "z2.json", FourierLoop({2: 1.0}))
        res = runner.invoke(main, ["symbol", z2, z_file(tmp_path), "--window", "64"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        for method in ("closed", "integral", "operator"):
            re_part, im_part = report["values"][method]
            assert abs(re_part - 1.0) < 1e-8 and abs(im_part) < 1e-8
        assert report["within_tolerance"] is True

    def test_single_method_no_discrepancies(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--method", "closed"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["discrepancies"] == {}
        assert list(report["values"]) == ["closed"]

    def test_malformed_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["symbol", str(bad), str(bad)])
        assert res.exit_code == 2
        assert "invalid JSON" in res.output

    def test_missing_loop_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["symbol", str(tmp_path / "absent.json"), z_file(tmp_path)])
        assert res.exit_code == 2
        assert "cannot read" in res.output

    def test_non_finite_coefficient_exits_2(self, runner, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"coeffs": [[0, 1.0, 0], [1, NaN, 0]]}')
        res = runner.invoke(main, ["symbol", str(bad), z_file(tmp_path)])
        assert res.exit_code == 2
        assert "non-finite coefficient" in res.output

    def test_unknown_loop_fields_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"coefs": []}))
        res = runner.invoke(main, ["symbol", str(bad), str(bad)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("data, message", [
        ([[1, 1.0, 0.0]], "loop JSON must be an object"),
        ({}, "loop JSON missing 'coeffs'"),
        ({"coeffs": {"1": [1.0, 0.0]}}, "coeffs must be a list"),
        ({"coeffs": [[1, 0.5, 0], [1, 0.25, 0]]}, "repeated coeffs index 1"),
    ])
    def test_malformed_loop_exits_2(self, runner, tmp_path, data, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        res = runner.invoke(main, ["symbol", str(bad), z_file(tmp_path)])
        assert res.exit_code == 2
        assert message in res.output

    def test_vanishing_loop_exits_3(self, runner, tmp_path):
        vanishing = write_loop(tmp_path / "v.json", FourierLoop({0: 1.0, 1: 1.0}))
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", vanishing, zf, "--window", "32"])
        assert res.exit_code == 3
        assert "loop not invertible" in res.output

    @pytest.mark.parametrize("method", ["closed", "integral", "operator", "all"])
    def test_overflowing_exponent_exits_3(self, runner, tmp_path, method):
        # a₀ = ln 1e300 and m = 3: e^{m·a₀} is past the largest float
        big, z3 = overflow_files(tmp_path)
        res = runner.invoke(main, ["symbol", big, z3, "--method", method])
        assert res.exit_code == 3
        assert "exponential overflows" in res.output

    def test_strict_window_band_rule(self, runner, tmp_path):
        wide = write_loop(tmp_path / "w.json",
                          FourierLoop({6: 0.1, 0: 1.0}).exp())
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", wide, zf, "--window", "32"])
        assert res.exit_code == 2
        assert "window too small for band" in res.output
        res = runner.invoke(main, ["symbol", wide, zf, "--window", "32", "--fast"])
        assert res.exit_code in (0, 2)

    def test_strict_rule_names_the_needed_window(self, runner, tmp_path):
        wide_loop = FourierLoop({6: 0.1, 0: 1.0}).exp()
        wide = write_loop(tmp_path / "w.json", wide_loop)
        zf = z_file(tmp_path)
        parts = RouteParts(SteinbergSymbol.from_loops(wide_loop, FourierLoop({1: 1.0})))
        needed = max(w for w in route_windows(parts, math.inf) if w)
        res = runner.invoke(main, ["symbol", wide, zf, "--window", str(needed - 1)])
        assert res.exit_code == 2
        assert f"needs {needed}" in res.output
        res = runner.invoke(main, ["symbol", wide, zf, "--window", str(needed)])
        assert res.exit_code == 0
        assert json.loads(res.output)["windows"]["cross"] == needed

    def test_corpus_symbol_at_the_default_window(self, runner, tmp_path):
        # the loops have bands 64 and 42: the former rule, window >=
        # 4*band + 16 on the input loops, refused them at window 256
        sym = corpus_symbols(20260814, count=1)[0]
        af = write_loop(tmp_path / "a.json", sym.u.reconstruct())
        bf = write_loop(tmp_path / "b.json", sym.v.reconstruct())
        res = runner.invoke(main, ["symbol", af, bf])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert all(w < 256 for w in report["windows"].values())
        assert report["discrepancies"]["closed_vs_operator"] < 1e-12

    def test_doubling_rebuilds_at_twice_the_chosen_windows(self, runner, tmp_path,
                                                          monkeypatch):
        calls = []

        def recorded(parts, windows, strict):
            calls.append(windows)
            return operator_route_at(parts, windows, strict)

        monkeypatch.setattr(cli, "operator_route_at", recorded)
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["symbol", af, bf, "--method", "operator"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        chosen = (report["windows"]["cross"], report["windows"]["helton_howe"])
        assert calls == [chosen, (2 * chosen[0], 2 * chosen[1])]

    def test_doubling_sees_a_window_below_the_need(self, runner, tmp_path):
        sym = corpus_symbols(20260814, count=1)[0]
        af = write_loop(tmp_path / "a.json", sym.u.reconstruct())
        bf = write_loop(tmp_path / "b.json", sym.v.reconstruct())
        res = runner.invoke(main, ["symbol", af, bf, "--method", "operator",
                                   "--window", "64", "--fast"])
        report = json.loads(res.output)
        assert report["windows"] == {"cross": 64, "helton_howe": 64}
        assert report["window_doubling"]["operator"] > 0

    def test_takes_no_quadrature_order(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--quadrature-order", "32"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["symbol", zf, zf, "--window", "32", "--seed", "3"])
        assert json.loads(res.output)["config"] == {
            "method": "all", "window": 32, "strict": True,
            "format": "json", "seed": 3}

    def test_band_cap_env(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf],
                            env={"FREDK2_MAX_BAND": "0"})
        assert res.exit_code == 2
        assert "FREDK2_MAX_BAND" in res.output

    def test_dump_operator(self, runner, tmp_path):
        zf = z_file(tmp_path)
        out = tmp_path / "op.json"
        res = runner.invoke(main, ["symbol", zf, zf, "--window", "32",
                                   "--dump-operator", str(out)])
        assert res.exit_code == 0
        data = json.loads(out.read_text())
        assert data["window"] == json.loads(res.output)["windows"]["cross"]
        assert "symbol" in data and "correction" in data

    def test_csv_and_text_formats(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--window", "32",
                                   "--format", "csv"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "key,value"
        res = runner.invoke(main, ["symbol", zf, zf, "--window", "32",
                                   "--format", "text"])
        assert res.exit_code == 0
        assert "values.closed" in res.output


class TestConvergeCommand:
    def test_spec_pair_sweep(self, runner, tmp_path):
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["converge", af, bf,
                                   "--windows", "32,64,128,256"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["within_tolerance"] is True
        assert report["final_delta"] < 1e-8
        assert [row[0] for row in report["rows"]] == [32, 64, 128, 256]
        want = -math.exp(-0.06)
        assert abs(report["closed_value"][0] - want) < 1e-12

    def test_csv_rows(self, runner, tmp_path):
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["converge", af, bf, "--windows", "32,64",
                                   "--format", "csv"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "window,real,imag,delta"
        assert len(lines) == 3

    def test_constant_loops_zero_delta(self, runner, tmp_path):
        one = write_loop(tmp_path / "one.json", FourierLoop({0: 1.0}))
        res = runner.invoke(main, ["converge", one, one, "--windows", "16,32"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert all(row[3] == 0.0 for row in report["rows"])

    def test_near_vanishing_loop_exits_3(self, runner, tmp_path):
        vanishing = write_loop(tmp_path / "v.json",
                               FourierLoop({0: 1.0, 1: 1.0}))
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["converge", vanishing, zf])
        assert res.exit_code == 3
        assert "loop not invertible" in res.output

    def test_overflowing_exponent_exits_3(self, runner, tmp_path):
        res = runner.invoke(main, ["converge", *overflow_files(tmp_path)])
        assert res.exit_code == 3
        assert "exponential overflows" in res.output

    def test_windows_must_increase(self, runner, tmp_path):
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["converge", zf, zf, "--windows", "64,32"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["converge", zf, zf, "--windows", "a,b"])
        assert res.exit_code == 2

    def test_first_window_must_dominate_band(self, runner, tmp_path):
        wide = write_loop(tmp_path / "w.json", FourierLoop({6: 0.1}).exp())
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["converge", wide, zf, "--windows", "13,64"])
        assert res.exit_code == 2
        assert "window must dominate band" in res.output
        res = runner.invoke(main, ["converge", wide, zf, "--windows", "14,64"])
        assert res.exit_code in (0, 4)

    def test_final_delta_is_the_last_row(self, runner, tmp_path):
        # window 14 truncates the Helton–Howe lifts of the band-6 logs, so
        # the two rows' deltas differ
        wide = write_loop(tmp_path / "w.json", FourierLoop({6: 0.1}).exp())
        co = write_loop(tmp_path / "c.json", FourierLoop({-6: 0.2}).exp())
        res = runner.invoke(main, ["converge", wide, co, "--windows", "14,64"])
        report = json.loads(res.output)
        assert report["rows"][0][3] != report["rows"][-1][3]
        assert report["final_delta"] == report["rows"][-1][3]

    def test_tolerance_is_absolute_below_unit_modulus(self, runner, tmp_path):
        # |closed| = exp(-0.06) < 1, so the final delta d is held to --tol itself
        args = ["converge", *exp_pair_files(tmp_path), "--windows", "32,64"]
        report = json.loads(runner.invoke(main, args).output)
        d = report["final_delta"]
        assert abs(complex(*report["closed_value"])) < 1 and d > 0
        assert runner.invoke(main, args + ["--tol", repr(d / 1.25)]).exit_code == 4
        assert runner.invoke(main, args + ["--tol", repr(d)]).exit_code == 0

    def test_takes_no_operator_options(self, runner, tmp_path):
        # the sweep's windows are --windows, each run with strict=False
        af, bf = exp_pair_files(tmp_path)
        args = ["converge", af, bf, "--windows", "32,64"]
        for opt in (["--window", "16"], ["--fast"], ["--quadrature-order", "32"]):
            res = runner.invoke(main, args + opt)
            assert res.exit_code == 2
        res = runner.invoke(main, args + ["--seed", "3"])
        assert res.exit_code == 0
        assert json.loads(res.output)["config"] == {"format": "json", "seed": 3}

    def test_sweeps_the_given_windows(self, runner, tmp_path, monkeypatch):
        calls = []

        def recorded(parts, windows, strict):
            calls.append((windows, strict))
            return operator_route_at(parts, windows, strict)

        monkeypatch.setattr(cli, "operator_route_at", recorded)
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["converge", af, bf, "--windows", "16,32,64"])
        assert res.exit_code == 0
        assert calls == [((16, 16), False), ((32, 32), False), ((64, 64), False)]

    def test_unconverged_flags_exit_4(self, runner, tmp_path):
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["converge", af, bf, "--windows", "32,64",
                                   "--tol", "0"])
        assert res.exit_code == 4
        report = json.loads(res.output)
        assert report["within_tolerance"] is False


def catalog_file(tmp_path, with_q8=False):
    z4 = FiniteGroup.cyclic(4)
    z2 = FiniteGroup.cyclic(2)
    groups = {"Z4": z4.to_json(), "Z2": z2.to_json()}
    surjections = {"Z4->Z2": {"source": "Z4", "target": "Z2",
                              "map": [0, 1, 0, 1], "section": [0, 1]}}
    if with_q8:
        q8 = FiniteGroup.quaternion()
        klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                           FiniteGroup.cyclic(2))
        groups["Q8"] = q8.to_json()
        groups["V4"] = klein.to_json()
        surjections["Q8->V4"] = {"source": "Q8", "target": "V4",
                                 "map": [0, 0, 2, 2, 1, 1, 3, 3],
                                 "section": [0, 4, 2, 6]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"groups": groups, "surjections": surjections}))
    return str(path)


Z2_GROUPS = {"Z2": {"order": 2, "table": [[0, 1], [1, 0]]}}


class TestHomologyCommand:
    def test_cyclic_catalog(self, runner, tmp_path):
        cat = catalog_file(tmp_path)
        res = runner.invoke(main, ["homology", cat, "--samples", "20",
                                   "--seed", "7"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        row = report["surjections"]["Z4->Z2"]
        assert row["agreements"] == row["samples"] == 20
        assert row["h2_rank"] == 0 and row["h2_torsion"] == []

    def test_quaternion_catalog_sees_nontrivial_classes(self, runner, tmp_path):
        cat = catalog_file(tmp_path, with_q8=True)
        res = runner.invoke(main, ["homology", cat, "--samples", "25",
                                   "--seed", "11"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        row = report["surjections"]["Q8->V4"]
        assert row["agreements"] == 25
        assert row["h2_torsion"] == [2]
        assert row["nontrivial_classes"] > 0

    def test_empty_catalog(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"groups": {}, "surjections": {}}))
        res = runner.invoke(main, ["homology", str(path)])
        assert res.exit_code == 0
        assert json.loads(res.output)["surjections"] == {}

    def test_invalid_group_table_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"groups": {"G": {"table": [[0, 0], [0, 0]]}},
             "surjections": {}}))
        res = runner.invoke(main, ["homology", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("catalog", [
        {"groups": [], "surjections": {}},
        {"groups": {}, "surjections": []},
        {"groups": {"G": {"order": 2, "table": [0, 1]}}},
        {"groups": Z2_GROUPS, "surjections": {"f": {"source": "Z2", "target": "Z2", "map": 5}}},
        {"groups": Z2_GROUPS, "surjections": {"f": {"source": ["A"], "target": "Z2",
                                                    "map": [0, 1]}}},
        {"groups": Z2_GROUPS, "surjections": {"f": {"source": "Z2", "target": "Z2",
                                                    "map": [0, 1], "section": 3}}},
    ], ids=["groups-list", "surjections-list", "flat-table", "map-int",
            "source-list", "section-int"])
    def test_malformed_catalog_exits_2(self, runner, tmp_path, catalog):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(catalog))
        res = runner.invoke(main, ["homology", str(path)])
        assert res.exit_code == 2
        assert "error:" in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case", sorted(CATALOG_REFUSALS))
    def test_refused_catalog_file_exits_2(self, runner, tmp_path, case):
        res = runner.invoke(main, ["homology", write_catalog(tmp_path, case)])
        assert res.exit_code == 2
        assert CATALOG_REFUSALS[case][1] in res.output
        assert "Traceback" not in res.output

    def test_two_path_disagreement_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(group_homology, "psi", lambda chain: None)
        res = runner.invoke(main, ["homology", catalog_file(tmp_path), "--samples", "3"])
        assert res.exit_code == 4
        assert json.loads(res.output)["surjections"]["Z4->Z2"]["agreements"] == 0

    def test_determinism(self, runner, tmp_path):
        cat = catalog_file(tmp_path)
        out = [runner.invoke(main, ["homology", cat, "--samples", "10",
                                    "--seed", "5"]).output for _ in range(2)]
        r0, r1 = (json.loads(o) for o in out)
        del r0["timings"], r1["timings"]
        assert r0 == r1

    def test_takes_no_operator_options(self, runner, tmp_path):
        cat = catalog_file(tmp_path)
        for opt in (["--window", "64"], ["--fast"], ["--quadrature-order", "32"]):
            res = runner.invoke(main, ["homology", cat, "--samples", "5"] + opt)
            assert res.exit_code == 2
        res = runner.invoke(main, ["homology", cat, "--samples", "5", "--seed", "3"])
        assert json.loads(res.output)["config"] == {"format": "json", "seed": 3}


    def test_sampled_cells_decode_the_draw_that_indexed_all_cells(self):
        def reference(hom, samples, rng):  # the sampler that listed all |G|^3 cells
            basis = group_homology.cycle_basis(hom.target, 2)
            cells = group_homology._all_cells(hom.target, 3)
            cycles = []
            for _ in range(samples):
                cyc = group_homology.GroupChain(hom.target, 2)
                for chain in basis:
                    cyc = cyc.add(chain.scale(int(rng.integers(-2, 3))))
                extra = group_homology.GroupChain(hom.target, 3)
                for _ in range(3):
                    cell = cells[int(rng.integers(len(cells)))]
                    extra.add_cell(cell, int(rng.integers(-2, 3)))
                cycles.append(cyc.add(group_homology.bar_boundary(extra)))
            return cycles

        for name, hom in group_homology.builtin_catalog().items():
            got = cli._sample_cycles(hom, 10, np.random.default_rng(7))
            assert got == reference(hom, 10, np.random.default_rng(7)), name


# file bytes for each file the JSON reader refuses; None is a missing file
UNREADABLE = {"missing": None, "invalid-json": b"{nope", "not-utf-8": b'{"coeffs": "\xe9"}',
              "int-past-digit-limit": b"[" + b"1" * 5000 + b"]"}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_read_refusal_passes_unedited(runner, tmp_path, case):
    path = tmp_path / "input.json"
    if UNREADABLE[case] is not None:
        path.write_bytes(UNREADABLE[case])
    with pytest.raises(InputError) as read:
        read_json(str(path))
    with pytest.raises(InputError) as catalog:
        group_homology.load_catalog_file(str(path))
    assert str(catalog.value) == str(read.value)
    for args in (["symbol", str(path), str(path)], ["homology", str(path)]):
        res = runner.invoke(main, args)
        assert (res.exit_code, res.output) == (2, f"error: {read.value}\n")


class TestNumericOptions:
    @pytest.mark.parametrize("command, option, value", [
        ("homology", "--samples", "-1"),
        ("symbol", "--tol-pair", "-1"),
        ("symbol", "--tol-pair", "nan"),
        ("symbol", "--tol-pair", "inf"),
        ("symbol", "--tol-operator", "-1e-8"),
        ("symbol", "--tol-operator", "nan"),
        ("converge", "--tol", "-1"),
        ("converge", "--tol", "nan"),
        ("converge", "--tol", "inf"),
    ])
    def test_bad_value_exits_2(self, runner, tmp_path, command, option, value):
        files = [catalog_file(tmp_path)] if command == "homology" else [z_file(tmp_path)] * 2
        res = runner.invoke(main, [command, *files, option, value])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert option in res.output
        assert "Traceback" not in res.output

    def test_zero_is_accepted(self, runner, tmp_path):
        res = runner.invoke(main, ["homology", catalog_file(tmp_path), "--samples", "0"])
        assert res.exit_code == 0
        assert json.loads(res.output)["surjections"]["Z4->Z2"]["samples"] == 0
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--method", "closed",
                                   "--tol-pair", "0", "--tol-operator", "0"])
        assert res.exit_code == 0

    def test_nan_discrepancy_is_a_disagreement(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "det_invariant_integral", lambda sym: complex("nan"))
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", zf, zf, "--method", "all", "--window", "64"])
        assert res.exit_code == 4
        assert json.loads(res.output)["within_tolerance"] is False


class TestSelftest:
    def test_selftest_passes(self, runner):
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["passed"] is True
        assert all(report["checks"].values())

    def test_selftest_checks_log_split(self, runner):
        report = json.loads(runner.invoke(main, ["selftest"]).output)
        assert report["checks"]["log_split_round_trip"] is True

    def test_selftest_checks_toeplitz_relative_log(self, runner):
        report = json.loads(runner.invoke(main, ["selftest"]).output)
        assert report["checks"]["tilde_gamma_toeplitz_rank_one"] is True

    def test_selftest_takes_no_window(self, runner):
        res = runner.invoke(main, ["selftest", "--window", "128"])
        assert res.exit_code == 2

    def test_failed_check_exits_4(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "det_invariant_closed", lambda sym: 0j)
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 4
        report = json.loads(res.output)
        assert report["passed"] is False
        assert report["checks"]["det_z_z_closed"] is False

    def test_error_exits_with_its_code(self, runner, monkeypatch):
        def refuse(sym):
            raise NumericalError("grid too coarse")

        monkeypatch.setattr(cli, "det_invariant_closed", refuse)
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 3
        assert "error: grid too coarse" in res.output
