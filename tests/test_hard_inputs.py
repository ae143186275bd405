"""Hard inputs through the CLI: every case either succeeds within the
``symbol`` command's tolerances or exits with a documented code (2 input,
3 numerical, 4 invariant), never 1 and never with a NaN in its report.

Each family lists the cases that were refused when the corpus was
committed.  A case that starts to succeed passes; a new refusal fails."""

import json

import pytest
from click.testing import CliRunner

from fredk2.cli import main
from fredk2.fourier_loops import FourierLoop, loop_to_json
from fredk2.group_homology import MAX_BAR_CELLS, FiniteGroup

TOL_PAIR = 1e-10       # --tol-pair default: closed vs integral
TOL_OPERATOR = 1e-8    # --tol-operator default: operator vs the others


def _steinberg(u):
    return u, FourierLoop({0: 1.0}).sub(u)


# family: ({case: (alpha, beta)}, {refused case: what it exits with})
FAMILIES = {
    # max|v|/min|v| = e^{4s}: the log's grid fit stops resolving it
    "exp_range": (
        {f"s={s}": (FourierLoop({1: 1.0}), FourierLoop({1: s, -1: s}).exp())
         for s in (0.5, 1, 1.5, 2, 3, 4, 6, 8)},
        {"s=2": "3 band overflow", "s=3": "3 grid too coarse",
         "s=4": "3 grid too coarse", "s=6": "3 grid too coarse",
         "s=8": "3 grid too coarse"}),
    # 1 + c·z nearly vanishes at z = −1
    "near_vanishing": (
        {f"c={c}": (FourierLoop({0: 1.0, 1: c}), FourierLoop({0: 2.0, -1: 0.5}))
         for c in (0.9, 0.99, 0.999)},
        {"c=0.9": "2 window too small for band (needs 600)",
         "c=0.99": "3 band overflow", "c=0.999": "3 grid too coarse"}),
    # the cross log n·b − m·a grows with the winding
    "large_winding": (
        {f"n={n}": (FourierLoop({n: 1.0, n + 1: 0.2}),
                    FourierLoop({-n: 1.0, 1 - n: 0.3}))
         for n in (5, 10, 12, 15, 20)},
        {"n=15": "4 not determinant class", "n=20": "4 not determinant class"}),
    # {u, 1 − u} = 1
    "steinberg": (
        {f"u={u}": _steinberg(FourierLoop({0: u0, 1: u1}))
         for u, (u0, u1) in {"0.3+0.2z": (0.3, 0.2), "0.5+2z": (0.5, 2.0),
                             "-1+0.4z": (-1.0, 0.4)}.items()},
        {}),
}

CASES = [(fam, case) for fam, (cases, _refused) in FAMILIES.items() for case in cases]

_outcomes = {}


def _no_nan(text):
    """json.loads that fails on NaN (and ±Infinity) anywhere in the report."""
    def refuse(token):
        raise AssertionError(f"report holds {token}")
    return json.loads(text, parse_constant=refuse)


def _run(family, case, tmp_path_factory):
    if (family, case) not in _outcomes:
        alpha, beta = FAMILIES[family][0][case]
        d = tmp_path_factory.mktemp("hard")
        files = []
        for name, loop in (("alpha", alpha), ("beta", beta)):
            path = d / f"{name}.json"
            path.write_text(json.dumps(loop_to_json(loop)))
            files.append(str(path))
        _outcomes[family, case] = CliRunner().invoke(main, ["symbol", *files])
    return _outcomes[family, case]


@pytest.mark.parametrize("family,case", CASES, ids=[f"{f}/{c}" for f, c in CASES])
def test_case_succeeds_or_exits_documented(family, case, tmp_path_factory):
    res = _run(family, case, tmp_path_factory)
    assert res.exit_code in (0, 2, 3, 4), (res.exit_code, res.output, res.exception)
    report = _no_nan(res.stdout) if res.stdout.strip() else None
    if res.exit_code:
        # a refusal names its cause, or reports the disagreement it saw
        assert res.stderr.startswith("error: ") or report["within_tolerance"] is False
        return
    assert report["within_tolerance"] is True
    closed = complex(*report["values"]["closed"])
    for route, tol in (("integral", TOL_PAIR), ("operator", TOL_OPERATOR)):
        value = complex(*report["values"][route])
        assert abs(value - closed) <= tol * max(abs(value), abs(closed)), route


@pytest.mark.parametrize("family", list(FAMILIES))
def test_no_new_refusal(family, tmp_path_factory):
    cases, known = FAMILIES[family]
    refused = {case for case in cases
               if _run(family, case, tmp_path_factory).exit_code != 0}
    assert refused <= set(known), sorted(refused - set(known))


def test_homology_past_the_bar_cell_cap_exits_2(tmp_path):
    z130, z65 = FiniteGroup.cyclic(130), FiniteGroup.cyclic(65)
    assert z65.order ** 2 > MAX_BAR_CELLS  # the cycle basis needs the bar 2-cells
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({
        "groups": {"Z130": z130.to_json(), "Z65": z65.to_json()},
        "surjections": {"Z130->Z65": {"source": "Z130", "target": "Z65",
                                      "map": [g % 65 for g in range(130)],
                                      "section": list(range(65))}}}))
    res = CliRunner().invoke(main, ["homology", str(path), "--samples", "2"])
    assert res.exit_code == 2, res.output
    assert "group too large for degree" in res.stderr
