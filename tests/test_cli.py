import json
import math

import pytest
from click.testing import CliRunner

from fredk2.cli import main
from fredk2.fourier_loops import FourierLoop, loop_to_json
from fredk2.group_homology import FiniteGroup


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

    def test_unknown_loop_fields_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"coefs": []}))
        res = runner.invoke(main, ["symbol", str(bad), str(bad)])
        assert res.exit_code == 2

    def test_vanishing_loop_exits_3(self, runner, tmp_path):
        vanishing = write_loop(tmp_path / "v.json", FourierLoop({0: 1.0, 1: 1.0}))
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", vanishing, zf, "--window", "32"])
        assert res.exit_code == 3
        assert "loop not invertible" in res.output

    def test_strict_window_band_rule(self, runner, tmp_path):
        wide = write_loop(tmp_path / "w.json",
                          FourierLoop({6: 0.1, 0: 1.0}).exp())
        zf = z_file(tmp_path)
        res = runner.invoke(main, ["symbol", wide, zf, "--window", "32"])
        assert res.exit_code == 2
        assert "window too small for band" in res.output
        res = runner.invoke(main, ["symbol", wide, zf, "--window", "32", "--fast"])
        assert res.exit_code in (0, 2)

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
        assert data["window"] == 32
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

    def test_window_option_is_not_checked(self, runner, tmp_path):
        # --window is not used by the sweep, whose windows pass the band
        af, bf = exp_pair_files(tmp_path)
        res = runner.invoke(main, ["converge", af, bf, "--windows", "32,64",
                                   "--window", "16"])
        assert res.exit_code == 0
        assert json.loads(res.output)["config"]["strict"] is False

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

    def test_determinism(self, runner, tmp_path):
        cat = catalog_file(tmp_path)
        out = [runner.invoke(main, ["homology", cat, "--samples", "10",
                                    "--seed", "5"]).output for _ in range(2)]
        r0, r1 = (json.loads(o) for o in out)
        del r0["timings"], r1["timings"]
        assert r0 == r1


class TestSelftest:
    def test_selftest_passes(self, runner):
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["passed"] is True
        assert all(report["checks"].values())
