"""Command-line experiment runner, a reader of :mod:`repro.bench.registry`.

Regenerate any (or all) of the paper's tables without pytest::

    python -m repro.bench              # everything, at full scale
    python -m repro.bench e1 e3 e7     # a selection
    python -m repro.bench --list
    python -m repro.bench --csv out/ e5   # the rows behind the table

Re-pin a committed baseline (``BENCH_*.json``), deliberately::

    python -m repro.bench --update e14    # runs at the gate's scale

Observability (see docs/OBSERVABILITY.md)::

    python -m repro.bench --trace-out /tmp/e2.jsonl e2   # span dump + summary
    python -m repro.bench --metrics e1                   # metrics snapshot
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from repro.bench.registry import EXPERIMENTS
from repro.obs import Observatory, set_capture
from repro.obs.export import summary_table, write_jsonl


def write_csv(directory: str, name: str, rows: list[dict]) -> str:
    """Dump one experiment's rows as ``<name>.csv``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.csv")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids with their wire and title")
    parser.add_argument("--csv", metavar="DIR",
                        help="also write raw rows as CSV files under DIR")
    parser.add_argument("--update", action="store_true",
                        help="run at gate scale and rewrite the committed baselines")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record QRPC spans and write them as JSONL to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print a metrics-registry snapshot after the run")
    args = parser.parse_args(argv)

    if args.list:
        for exp in EXPERIMENTS.values():
            print(f"{exp.id:4s} {exp.wire:10s} {exp.title}")
        return 0

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.update:
        for name in selected:
            exp = EXPERIMENTS[name]
            rows = exp.driver(**exp.gate.scale)
            print(f"{name}: wrote {len(rows)} baseline row(s) to {exp.update(rows)}")
        return 0

    # Experiment drivers build their testbeds internally, so the CLI
    # cannot hand them an Observatory directly; instead install a
    # process-wide capture that build_testbed adopts.
    obs = None
    if args.trace_out or args.metrics:
        if args.trace_out:
            try:  # fail before the (possibly long) run, not after
                open(args.trace_out, "w").close()
            except OSError as exc:
                parser.error(f"cannot write --trace-out {args.trace_out}: {exc}")
        obs = Observatory(tracing=bool(args.trace_out))
        set_capture(obs)
    try:
        for name in selected:
            exp = EXPERIMENTS[name]
            rows = exp.driver()
            print(exp.render(rows))
            if args.csv:
                print(f"wrote {write_csv(args.csv, name, rows)}")
            print()
    finally:
        set_capture(None)
    if obs is not None and args.trace_out:
        write_jsonl(obs.spans, args.trace_out)
        print(f"wrote {len(obs.spans)} spans to {args.trace_out}")
        print()
        print(summary_table(obs.spans))
    if obs is not None and args.metrics:
        print()
        print(obs.registry.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
