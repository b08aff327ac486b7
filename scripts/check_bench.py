#!/usr/bin/env python
"""Benchmark regression gates: one script, one table per experiment.

Re-runs an experiment's driver (virtual time, seeded workload, so any
drift in a simulation-derived field is a real behaviour change) and
compares each row against its committed ``BENCH_<EXP>.json`` baseline:

* ``e14`` — bytes-on-wire per ``(link, config)`` must not creep back up;
* ``e15`` — the telemetry tax, at a reduced scale (the full benchmark's
  thousand clients would be CI-hostile; the per-client byte economics
  are scale-invariant): attributed overhead must stay near its baseline
  and under the absolute 5% acceptance bar, aggregation must stay exact
  and no sequence gap may stay open after the drain;
* ``e16`` — the CPU hot path, at a reduced scale: every simulation-
  derived field must match *exactly*, and calibration-normalized CPU
  may not regress.  Normalizing by the in-process calibration loop
  makes the committed numbers transfer across machines — a host that
  runs the calibration 2x slower is allowed 2x the raw CPU.

Usage:
    PYTHONPATH=src python scripts/check_bench.py {e14,e15,e16} [--update]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

TOLERANCE = 0.10  # a gated field more than 10% above its baseline fails

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


@dataclass(frozen=True)
class Gate:
    """What one experiment's gate runs, pins and compares."""

    #: The driver in ``repro.bench.experiments`` and the scale it runs at.
    driver: str
    scale: dict = field(default_factory=dict)
    #: Fields naming a row (the row's key in the baseline).
    key: tuple[str, ...] = ()
    #: Fields ``--update`` pins beside the key (None: the whole row).
    #: The baseline pins what the gate compares, nothing more.
    pinned: Optional[tuple[str, ...]] = None
    #: Must equal the baseline: pure functions of the scenario.
    exact: tuple[str, ...] = ()
    #: May not exceed the baseline by more than TOLERANCE.
    tolerance: tuple[str, ...] = ()
    #: Must hold whatever the baseline says: field -> required value.
    require: dict = field(default_factory=dict)
    #: Absolute ceilings, enforced always: field -> limit.
    limits: dict = field(default_factory=dict)
    #: Printed beside the baseline, never gated.
    info: tuple[str, ...] = ()
    #: Key of the gate row (the driver's first) in a baseline file that
    #: also holds other records, which ``--update`` preserves; None: the
    #: file is the list of rows.
    section: Optional[str] = None


GATES = {
    "e14": Gate(
        driver="run_e14_wire",
        key=("link", "config"),
        pinned=("bytes_wire", "drain_s", "ops_compacted", "violations"),
        tolerance=("bytes_wire",),
        require={"violations": 0},
    ),
    "e15": Gate(
        driver="run_e15_fleet",
        # Small enough for CI, large enough to cover every link class
        # (120 = 30 clients per class) and the fold/dup/reorder paths.
        scale={"n_clients": 120},
        key=("config",),
        pinned=(
            "clients", "telemetry_bytes", "foreground_bytes", "overhead_pct",
            "reports_sent", "duplicates", "open_gaps", "exact",
        ),
        tolerance=("overhead_pct",),
        require={"exact": True, "open_gaps": 0},
        limits={"overhead_pct": 5.0},  # the E15 acceptance bar
    ),
    "e16": Gate(
        driver="run_e16_speed",
        # Covers all four link classes (125 clients each), the group-commit
        # window, and a kernel compaction, in a few CI seconds.
        scale={"n_clients": 500},
        exact=(
            "clients", "ops_submitted", "ops_acked", "done_at_s", "log_appends",
            "log_flushes", "group_commits", "fsyncs_saved", "bytes_sent",
            "messages_sent", "codec_wire_bytes", "cyclic_garbage_objects",
        ),
        tolerance=(
            "drain_cpu_x_cal", "encode_cpu_x_cal", "decode_cpu_x_cal", "size_cpu_x_cal",
        ),
        info=("ops_per_s",),
        section="gate",
    ),
}


def update(gate: Gate, rows: list[dict], path: str) -> None:
    """Rewrite the baseline from the current run, in the file's shape."""
    if gate.pinned is not None:
        rows = [{name: row[name] for name in gate.key + gate.pinned} for row in rows]
    doc: object = rows
    if gate.section is not None:
        doc = {}
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
        doc[gate.section] = rows[0]
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def compare(gate: Gate, rows: list[dict], baseline_rows: list[dict]) -> list[str]:
    """Print one line per gated figure; return the failures."""
    baseline = {tuple(r[k] for k in gate.key): r for r in baseline_rows}
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
        for name in gate.exact:
            if row[name] != base[name]:
                failures.append(
                    f"{prefix}{name}: {row[name]!r} != baseline {base[name]!r} "
                    "(simulation fields are deterministic — this is a "
                    "semantic change, commit a new baseline deliberately)"
                )
        for name in gate.tolerance:
            allowed = base[name] * (1.0 + TOLERANCE)
            status = "ok"
            if row[name] > allowed:
                status = "REGRESSION"
                failures.append(
                    f"{prefix}{name} {row[name]:g} exceeds baseline {base[name]:g} "
                    f"by more than {TOLERANCE:.0%} (allowed {allowed:g})"
                )
            limit = gate.limits.get(name)
            if limit is not None and row[name] > limit:
                status = "REGRESSION"
                failures.append(f"{prefix}{name} {row[name]:g} crosses the limit of {limit:g}")
            print(f"{label:32s} {name:18s} {row[name]:>12g} (baseline {base[name]:>12g})  {status}")
        for name in gate.info:
            print(f"{label:32s} {name:18s} {row[name]:>12g} (baseline {base[name]:>12g})  info-only")
    for key in sorted(baseline):
        failures.append(f"{'/'.join(map(str, key))}: baseline row no longer produced")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", choices=sorted(GATES))
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline from the current run"
    )
    args = parser.parse_args()
    gate = GATES[args.experiment]
    name = args.experiment.upper()
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")

    from repro.bench import experiments

    rows = getattr(experiments, gate.driver)(**gate.scale)
    if gate.section is not None:
        rows = rows[:1]
    if args.update:
        update(gate, rows, path)
        print(f"wrote {len(rows)} baseline row(s) to {path}")
        return 0
    if not os.path.exists(path):
        print(f"missing baseline {path}; run with --update first", file=sys.stderr)
        return 2
    with open(path) as f:
        doc = json.load(f)
    failures = compare(gate, rows, [doc[gate.section]] if gate.section else doc)
    if failures:
        print(f"\n{name} regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\n{name} regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
