"""CLI tests: exit codes and modes of ``python -m repro.lint``."""

import pytest

from repro.lint.cli import DEFAULT_RDO_MODULES, collect_module_rdos, main


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_dirty_tree_exits_one(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(
        "import random\nx = random.random()\nfor k in set(a) | set(b):\n    pass\n"
    )
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "EFF101" in out
    assert "UNSEEDED_RNG" in out and "UNORDERED_ITER" in out
    assert "bad.py:1:0" in out  # file:line:col in the report


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "RDO201" in out and "EFF101" in out
    assert "DET" not in out and "SUP001" not in out


def test_rdos_default_modules_verify_clean(capsys):
    assert main(["--rdos"]) == 0


def test_rdos_discovers_all_app_pairs():
    labels = [
        label
        for module in DEFAULT_RDO_MODULES
        for label, _, _ in collect_module_rdos(module)
    ]
    # Every example app publishes at least one (code, interface) pair.
    assert len(labels) >= 5
    assert any("mail" in label for label in labels)
    assert any("calendar" in label for label in labels)
    assert any("webproxy" in label for label in labels)


def test_no_arguments_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def test_warnings_as_errors(tmp_path, monkeypatch):
    # A clean file stays clean even under --warnings-as-errors.
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main([str(tmp_path), "--warnings-as-errors"]) == 0
