"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python -m pytest perfbench/tests -q

Every workload runs at tiny size, untraced and traced, in fresh
processes exactly as the benchmark runs them.
"""

import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import compare, runner, spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", params=spec.FULL_SET)
def reduced(request):
    workload = request.param
    modes = ["plain", "traced"]
    modes += ["obs"] if workload in runner.OBS_TRACED else []
    modes += ["count"] if workload != spec.REAL_TIME_WORKLOAD else []
    repeats = [runner.spawn(workload, 7, "tiny", mode) for mode in modes]
    return workload, repeats, runner.reduce_repeats(workload, repeats)


def test_declared_names_and_units_are_well_formed():
    declared = list(spec.END_TO_END.values()) + list(
        spec.per_layer_of(spec.REAL_TIME_WORKLOAD).values()
    )
    assert len(declared) == len(spec.END_TO_END) + len(spec.PER_LAYER) + len(spec.LIVE_PER_LAYER)
    names = [m["name"] for m in declared] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert "setup_s" in spec.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec.END_TO_END.values())


def test_workload_is_correct_and_emits_exactly_the_declared_metrics(reduced):
    workload, _, result = reduced
    assert result["correct"], result["violations"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    uncounted = set(runner.COUNTED) if workload == spec.REAL_TIME_WORKLOAD else set()
    assert set(result["end_to_end"]) == set(spec.END_TO_END) - uncounted
    # host.calibration_s is measured once per run by the parent process.
    assert set(result["per_layer"]) | {"host.calibration_s"} == set(spec.per_layer_of(workload))
    for row in result["end_to_end"].values():
        assert row["median"] > 0


def test_traced_ledger_sums(reduced):
    # Layers and unattributed are both read off spans; the whole they
    # are shares of is the repeat's own clock around the timed region.
    workload, repeats, _ = reduced
    tolerance = 0.05 if workload == spec.REAL_TIME_WORKLOAD else 0.02  # trace.Recorder.ledger
    traced = [r for r in repeats if r["mode"] == "traced"]
    assert traced
    for run in traced:
        assert run["ledger_sum_error"] <= tolerance
        shares = [v for k, v in run["layers"].items() if k.endswith(".self_cpu_share")]
        assert abs(sum(shares) - 1.0) <= tolerance


def test_load_generator_stays_within_the_cores(reduced):
    # One repeat process at a time (runner.spawn blocks); counted in
    # each: the generator's own threads and, on the one workload with
    # connections, the most it had in flight.
    workload, repeats, _ = reduced
    for run in repeats:
        assert 1 <= run["generator_threads"] <= os.cpu_count()
        if workload == spec.REAL_TIME_WORKLOAD:
            assert 1 <= run["extra"]["inflight_peak"] <= os.cpu_count()


def test_compare_judges_by_direction():
    def row(*values):
        return {"median": sorted(values)[len(values) // 2], "values": list(values)}

    # Simulation-derived: any worsening is a regression, an improvement is not.
    assert compare.judge("lower", 0.1, True, row(10.0), row(10.0))[0] == "ok"
    assert compare.judge("lower", 0.1, True, row(10.0), row(10.001))[0] == "worse"
    assert compare.judge("lower", 0.1, True, row(10.0), row(9.0))[0] == "moved"
    assert compare.judge("higher", None, True, row(1.0), row(0.5))[0] == "moved"
    # Host time: the bound, unless the spread is wider than it.
    steady_a, steady_b = row(100.0, 101.0, 102.0), row(120.0, 121.0, 122.0)
    assert compare.judge("lower", 0.1, False, steady_a, steady_b)[0] == "worse"
    assert compare.judge("lower", 0.1, False, steady_b, steady_a)[0] == "ok"
    assert compare.judge("higher", 0.1, False, steady_b, steady_a)[0] == "worse"
    noisy = row(80.0, 100.0, 130.0)
    assert compare.judge("lower", 0.1, False, noisy, row(104.0, 105.0, 106.0))[0] == "unresolved"
    assert compare.judge("lower", 0.1, False, noisy, row(60.0, 61.0, 62.0))[0] == "ok"


def test_fleet_drain_at_the_e16_gate_size_reproduces_the_pinned_totals():
    gate = json.loads((ROOT / "BENCH_E16.json").read_text())["gate"]
    run = runner.spawn("fleet_drain", 7, "e16_gate")
    assert run["correct"], run["violations"]
    assert run["attempted"] == gate["ops_submitted"]
    assert run["extra"]["bytes_sent"] == gate["bytes_sent"] == 1_489_350
    assert run["extra"]["messages_sent"] == gate["messages_sent"] == 3_000
    assert run["extra"]["done_at_s"] == gate["done_at_s"] == 390.0


def test_run_py_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
