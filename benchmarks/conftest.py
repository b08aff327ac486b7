"""Benchmark harness configuration and the runner's helpers.

``test_experiments.py`` regenerates every table/figure of the paper's
evaluation from :mod:`repro.bench.registry`: it runs each driver in
virtual time, prints the paper-style table (run pytest with ``-s`` to
see them inline; they are also echoed at session end, except under the
doubly-quiet tier-1 run), asserts the expected shape and compares the
rows with the committed baseline (:func:`compare`).
``test_micro_primitives.py`` times the hot primitives under
pytest-benchmark.
"""

from __future__ import annotations

from repro.bench.registry import Experiment

TOLERANCE = 0.10  # a tolerance-gated field more than 10% above its baseline fails

_REPORTS: list[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--host-time", action="store_true",
        help="also compare the gates' host-time fields (calibration-normalized CPU); "
             "`make speed` does, tier-1 never: they flap on a loaded machine",
    )


def record_report(text: str) -> None:
    """Collect a rendered table for the end-of-session dump."""
    _REPORTS.append(text)
    print("\n" + text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS or config.getoption("verbose") < -1:
        return
    terminalreporter.write_sep("=", "reproduced tables & figures")
    for report in _REPORTS:
        terminalreporter.write_line("")
        for line in report.splitlines():
            terminalreporter.write_line(line)


def compare(exp: Experiment, rows: list[dict], host_time: bool = False) -> list[str]:
    """Hold ``rows`` against ``exp``'s committed baseline as its gate says.

    Prints one line per tolerance-gated figure; returns the failures.
    """
    gate = exp.gate
    baseline = {tuple(r[k] for k in gate.key): r for r in exp.baseline_rows()}
    tolerance = gate.tolerance + (gate.host_time if host_time else ())
    failures = []
    for row in rows:
        key = tuple(row[k] for k in gate.key)
        label = "/".join(map(str, key))
        prefix = f"{label}: " if label else ""
        base = baseline.pop(key, None)
        if base is None:
            failures.append(f"{prefix}no baseline row (run --update)")
            continue
        for name, wanted in gate.require.items():
            if row[name] != wanted:
                failures.append(f"{prefix}{name} is {row[name]!r}, must be {wanted!r}")
        for name, limit in gate.limits.items():
            if row[name] > limit:
                failures.append(f"{prefix}{name} {row[name]:g} crosses the limit of {limit:g}")
        exact = gate.exact if gate.exact is not None else [n for n in base if n not in gate.key]
        for name in exact:
            if row[name] != base[name]:
                failures.append(
                    f"{prefix}{name}: {row[name]!r} != baseline {base[name]!r} "
                    "(simulation fields are deterministic — this is a "
                    "semantic change, commit a new baseline deliberately)"
                )
        for name in tolerance:
            allowed = base[name] * (1.0 + TOLERANCE)
            status = "ok"
            if row[name] > allowed:
                status = "REGRESSION"
                failures.append(
                    f"{prefix}{name} {row[name]:g} exceeds baseline {base[name]:g} "
                    f"by more than {TOLERANCE:.0%} (allowed {allowed:g})"
                )
            print(f"{label:32s} {name:18s} {row[name]:>12g} (baseline {base[name]:>12g})  {status}")
    for key in sorted(baseline):
        failures.append(f"{'/'.join(map(str, key))}: baseline row no longer produced")
    return failures
