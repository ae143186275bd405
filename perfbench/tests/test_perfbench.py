"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The smoke runs take about two minutes: every workload at minimal length,
untraced and traced.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tracer as tr  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args, timeout=300):
    cmd = [sys.executable] + SPEC["command"][1:] + list(args)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _snapshot():
    """Every attribute the tracer may patch, by owner and name."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "fredk2" or name.startswith("fredk2.")]
    owners += [sys.modules[m] for m in tr.KERNELS]
    snap = {}
    for owner in owners:
        for name, obj in list(vars(owner).items()):
            snap[(owner, name)] = obj
            if isinstance(obj, type):
                for attr, val in list(vars(obj).items()):
                    snap[(obj, attr)] = val
    return snap


def test_uninstall_restores_every_function_identity():
    import fredk2  # noqa: F401
    from fredk2 import fredholm, invariants
    from fredk2.fourier_loops import LoopLog, zero_loop

    before = _snapshot()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert invariants.det1p is fredholm.det1p
        assert invariants.det1p is not before[(fredholm, "det1p")]
        assert "fredk2.invariants.det1p" in tr.find_wrappers()
        sym = invariants.SteinbergSymbol(LoopLog(1, zero_loop()), LoopLog(1, zero_loop()))
        tracer.recording = True
        value = invariants.det_invariant_operator(sym, window=16)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert abs(value + 1.0) < 1e-8
    assert tr.find_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []

    totals = tracer.totals()
    assert totals["invariants.det_invariant_operator"][0] == 1
    assert totals["fredholm.det1p"][0] >= 1
    # self times partition the root spans' wall time
    roots = sum(end - start for _i, start, end, parent, _op in tracer.spans if parent < 0)
    assert sum(s for _c, s, _incl in totals.values()) == pytest.approx(roots, rel=1e-9)


def test_reference_units_cancel_a_host_speed_change():
    """Ops of 100 reference units each while the host runs at 1 ms per
    reference sample, then at 1.5 ms: seconds move, reference units
    do not.  A 1-ms sample inside every op is taken out of its time."""
    ops, refs, t = [], [], 0.0
    for i in range(40):
        ref_s = 0.001 if i < 20 else 0.0015
        refs.append((t, t, ref_s))
        t0 = t + 0.01
        refs.append((t0 + 0.05, t0 + 0.051, ref_s))
        t1 = t0 + 100 * ref_s + 0.001
        ops.append((0, t0, t1, t1, True))
        t = t1
    refs.append((t, t, 0.0015))
    run = {"ops": ops, "refs": refs, "wall_s": t, "attempted": 40, "labels": ["op"]}
    got = worker.summarize(run, mixed=False)
    assert got["op_ref.p50"] == pytest.approx(100.0)
    assert got["op_ref.tail"] == pytest.approx(100.0)
    assert got["ops_per_kref"] == pytest.approx(10.0, rel=0.01)
    assert got["op_s.p50"] == pytest.approx(0.125)
    assert got["by_slot"]["op"]["ok"] == 40


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
