"""CLI runner tests (python -m repro.bench), a reader of the registry."""

import copy
import csv
import dataclasses
import inspect
import json

import pytest

from benchmarks.conftest import compare
from repro.bench import experiments, registry
from repro.bench.__main__ import main
from repro.bench.registry import EXPERIMENTS, Experiment, Gate


def test_list_prints_all_ids(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
    assert all(exp.wire in ("default", "prototype", "both") for exp in EXPERIMENTS.values())


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["e999"])


def test_single_experiment_renders_table(capsys):
    assert main(["e3"]) == 0
    out = capsys.readouterr().out
    assert "local cached invocation" in out
    assert "cslip-14.4k" in out


def test_csv_export(tmp_path, capsys):
    assert main(["e3", "--csv", str(tmp_path)]) == 0
    path = tmp_path / "e3.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("link,")
    assert len(lines) == 5  # header + four links


def test_every_id_exports_rows(tmp_path, capsys):
    # The ids that printed a table but had no raw-row producer before
    # the registry (their drivers returned dicts, not rows).
    ids = ["e5b", "e6", "e8", "e8b", "e9", "e12"]
    assert main(ids + ["--csv", str(tmp_path)]) == 0
    for name in ids:
        with open(tmp_path / f"{name}.csv", newline="") as f:
            assert len(list(csv.DictReader(f))) >= 1


def test_every_raw_producer_is_a_known_experiment():
    # Each driver is declared by exactly one registry entry, and the
    # registry names nothing else.
    drivers = sorted(name for name in vars(experiments) if name.startswith("run_"))
    assert sorted(exp.driver.__name__ for exp in EXPERIMENTS.values()) == drivers


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_a_driver_takes_exactly_its_gates_scale(exp_id):
    # Links, counts, seeds and sizes are the experiment's own literals:
    # the one thing a driver is told is the size its gate runs at.
    exp = EXPERIMENTS[exp_id]
    assert list(inspect.signature(exp.driver).parameters) == list(exp.gate.scale)


def test_a_table_on_its_side_prints_one_column_per_row():
    columns = (("alpha", "a"), ("beta", lambda r: r["b"] * 2))
    exp = Experiment("t", list, "T", columns, Gate(), pivot="mode")
    lines = exp.render([{"mode": "x", "a": 1, "b": 2}, {"mode": "y", "a": 3, "b": 4}]).splitlines()
    assert lines[2].split() == ["metric", "x", "y"]
    assert [line.split() for line in lines[4:]] == [["alpha", "1", "3"], ["beta", "4", "8"]]


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A two-row experiment whose baseline lives under tmp_path."""
    monkeypatch.setattr(registry, "BASELINE_DIR", tmp_path)
    rows = [{"link": "a", "bytes": 100, "cpu": 1.0}, {"link": "b", "bytes": 200, "cpu": 2.0}]
    gate = Gate(key=("link",), pinned=("bytes",), limits={"bytes": 250})
    exp = Experiment("toy", lambda: [dict(row) for row in rows], "Toy", (("link", "link"),), gate)
    exp.update(exp.driver())
    return exp


def test_update_then_compare_round_trips_through_the_shared_file(toy, tmp_path):
    doc = json.loads((tmp_path / registry.SHARED_BASELINE).read_text())
    assert list(doc) == ["toy"] and len(doc["toy"]) == 2
    assert compare(toy, toy.driver()) == []


def test_compare_reports_drift_limits_and_missing_rows(toy, capsys):
    rows = toy.driver()
    rows[0]["bytes"] = 101
    rows[1]["bytes"] = 300
    failures = compare(toy, rows[:2] + [{"link": "c", "bytes": 1, "cpu": 1.0}])
    assert any("a: bytes: 101 != baseline 100" in f for f in failures)
    assert any("b: bytes 300 crosses the limit of 250" in f for f in failures)
    assert any("c: no baseline row" in f for f in failures)
    assert compare(toy, rows[:1])[-1] == "b: baseline row no longer produced"


def test_a_field_the_baseline_does_not_commit_is_not_compared(toy):
    rows = toy.driver()
    rows[0]["cpu"] = 5.0  # a table column, outside ``pinned``
    assert compare(toy, rows) == []


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return f"{value}~"


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_committed_field_is_compared(exp_id):
    """Whatever a baseline commits, its gate checks: perturbing any one
    field of any committed row fails ``compare``."""
    exp = EXPERIMENTS[exp_id]
    committed = exp.baseline_rows()
    assert compare(exp, copy.deepcopy(committed)) == []
    unchecked = []
    for index, row in enumerate(committed):
        for name, value in row.items():
            rows = copy.deepcopy(committed)
            rows[index][name] = _perturbed(value)
            if not compare(exp, rows):
                unchecked.append(f"row {index}: {name}")
    assert unchecked == []


def test_update_runs_at_the_gate_scale_and_rewrites_only_its_section(
    toy, monkeypatch, tmp_path, capsys
):
    scaled = dataclasses.replace(
        toy, id="scaled", driver=lambda n=9: [{"link": "a", "bytes": n, "cpu": 1.0}],
        gate=dataclasses.replace(toy.gate, scale={"n": 2}),
    )
    monkeypatch.setitem(EXPERIMENTS, "scaled", scaled)
    assert main(["--update", "scaled"]) == 0
    doc = json.loads((tmp_path / registry.SHARED_BASELINE).read_text())
    assert doc["scaled"] == {"link": "a", "bytes": 2}  # a lone row is stored bare, pinned only
    assert len(doc["toy"]) == 2
    assert compare(scaled, scaled.driver(n=2)) == []
