"""Command-line experiment runner.

Regenerate any (or all) of the paper's tables without pytest::

    python -m repro.bench              # everything
    python -m repro.bench e1 e3 e7     # a selection
    python -m repro.bench --list

Observability (see docs/OBSERVABILITY.md)::

    python -m repro.bench --trace-out /tmp/e2.jsonl e2   # span dump + summary
    python -m repro.bench --metrics e1                   # metrics snapshot
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments as E
from repro.bench.tables import format_seconds as fs
from repro.bench.tables import format_table
from repro.obs import Observatory, set_capture
from repro.obs.export import summary_table, write_jsonl


def _e1() -> str:
    rows = E.run_e1_qrpc_latency()
    return format_table(
        "E1 - null QRPC vs blocking RPC per link",
        ["link", "RPC", "QRPC", "overhead", "%"],
        [
            [r["link"], fs(r["rpc_s"]), fs(r["qrpc_s"]), fs(r["overhead_s"]),
             f"{r['overhead_pct']:.0f}%"]
            for r in rows
        ],
    )


def _e2() -> str:
    rows = E.run_e2_log_overhead()
    return format_table(
        "E2 - log-flush overhead",
        ["link", "with flush", "without", "flush share"],
        [
            [r["link"], fs(r["qrpc_with_flush_s"]), fs(r["qrpc_without_flush_s"]),
             f"{r['flush_fraction_pct']:.1f}%"]
            for r in rows
        ],
    )


def _e2b() -> str:
    rows = E.run_e2b_group_commit()
    return format_table(
        "E2b - group-commit windows (10-QRPC burst, ethernet)",
        ["window", "burst completion", "flushes"],
        [
            ["per-request" if r["window_s"] == 0 else fs(r["window_s"]),
             fs(r["burst_completion_s"]), r["flushes"]]
            for r in rows
        ],
    )


def _e3() -> str:
    rows = E.run_e3_local_vs_rpc()
    return format_table(
        "E3 - local cached invocation vs RPC",
        ["link", "local", "RPC", "speedup"],
        [[r["link"], fs(r["local_invoke_s"]), fs(r["rpc_s"]), f"{r['speedup']:.1f}x"]
         for r in rows],
    )


def _e4() -> str:
    rows = E.run_e4_migration()
    return format_table(
        "E4 - N QRPCs vs one shipped RDO",
        ["link", "N", "N QRPCs", "shipped", "speedup"],
        [[r["link"], r["n_ops"], fs(r["per_op_qrpc_s"]), fs(r["shipped_rdo_s"]),
          f"{r['speedup']:.1f}x"] for r in rows],
    )


def _e5() -> str:
    rows = E.run_e5_mail()
    out = format_table(
        "E5 - mail folder read (12 messages)",
        ["link", "Rover cold", "Rover prefetched", "blocking", "warm speedup"],
        [[r["link"], fs(r["rover_cold_s"]), fs(r["rover_prefetched_s"]),
          fs(r["blocking_s"]), f"{r['warm_speedup_vs_blocking']:.0f}x"] for r in rows],
    )
    disc = E.run_e5_disconnected_mail()
    out += "\n\n" + format_table(
        "E5b - disconnected mail session",
        ["metric", "value"],
        [[k, v] for k, v in disc.items()],
    )
    return out


def _e6() -> str:
    results = {
        label: E.run_e6_calendar(resolver=label)
        for label in ("calendar", "calendar-strict", "keep-server")
    }
    fields = [
        "ops_applied", "server_events", "exports_committed", "exports_resolved",
        "exports_conflicted", "manual_conflicts_reported", "auto_reslotted",
        "replicas_clean",
    ]
    return format_table(
        "E6 - calendar resolver ablation",
        ["metric"] + list(results),
        [[f] + [results[label][f] for label in results] for f in fields],
    )


def _e7() -> str:
    rows = E.run_e7_clickahead()
    out = format_table(
        "E7 - click-ahead browsing (6 pages, 30s think)",
        ["link", "block sess", "block wait", "CA sess", "CA wait", "PF sess", "PF wait"],
        [[r["link"], fs(r["blocking_session_s"]), fs(r["blocking_user_wait_s"]),
          fs(r["clickahead_session_s"]), fs(r["clickahead_user_wait_s"]),
          fs(r["prefetch_session_s"]), fs(r["prefetch_user_wait_s"])] for r in rows],
    )
    sweep = E.run_e7_threshold_sweep()
    out += "\n\n" + format_table(
        "E7b - prefetch threshold sweep",
        ["threshold", "user wait", "prefetches", "bytes on wire"],
        [[fs(r["threshold_s"]), fs(r["user_wait_s"]), r["prefetches"],
          r["bytes_on_wire"]] for r in sweep],
    )
    return out


def _e8() -> str:
    priority = E.run_e8_priority()
    fifo = E.run_e8_priority(fifo_only=True)
    relay = E.run_e8_relay_fallback()
    out = format_table(
        "E8 - urgent QRPC behind a bulk queue",
        ["metric", "priority", "FIFO"],
        [
            ["urgent completion", fs(priority["urgent_done_s"]), fs(fifo["urgent_done_s"])],
            ["last bulk completion", fs(priority["last_bulk_done_s"]), fs(fifo["last_bulk_done_s"])],
        ],
    )
    out += "\n\n" + format_table(
        "E8b - SMTP relay fallback (direct link down 10 min)",
        ["configuration", "completion"],
        [["direct only", fs(relay["direct_only_latency_s"])],
         ["with relay", fs(relay["with_relay_latency_s"])]],
    )
    return out


def _e9() -> str:
    result = E.run_e9_disconnected()
    return format_table(
        "E9 - disconnected operation, all three applications",
        ["metric", "value"],
        [[k, v] for k, v in result.items()],
    )


def _e10() -> str:
    rows = E.run_e10_compression()
    return format_table(
        "E10 - mail prefetch: prototype (raw frames) vs. default (link-aware zlib)",
        ["link", "raw bytes", "zlib bytes", "raw time", "zlib time", "saved"],
        [[r["link"], r["raw_bytes"], r["compressed_bytes"], fs(r["raw_time_s"]),
          fs(r["compressed_time_s"]), f"{r['time_saved_pct']:.0f}%"] for r in rows],
    )


def _e11() -> str:
    rows = E.run_e11_batching()
    return format_table(
        "E11 - reconnect drain of 12 queued imports: prototype vs. default",
        ["link", "config", "drain time", "exchanges", "coalesced frames", "wire bytes"],
        [[r["link"], r["config"], fs(r["drain_time_s"]), r["exchanges"],
          r["batches"], r["bytes_wire"]] for r in rows],
    )


def _e12() -> str:
    results = E.run_e12_locking()
    optimistic, locked = results["optimistic"], results["locked"]
    fields = ["edits_attempted", "edits_completed", "manual_conflicts",
              "server_version", "lock_denials"]
    rows = [[f, optimistic[f], locked[f]] for f in fields]
    rows.append(["elapsed", fs(optimistic["elapsed_s"]), fs(locked["elapsed_s"])])
    return format_table(
        "E12 - optimistic vs check-out locks (same-field contention)",
        ["metric", "optimistic", "locks"],
        rows,
    )


def _e13() -> str:
    rows = E.run_e13_chaos()
    return format_table(
        "E13 - availability under seeded chaos (mail workload)",
        ["config", "sends", "acked", "mean ack", "p95 ack", "retx",
         "faults", "corrupt det", "violations"],
        [[r["config"], r["sends"], r["acked"], fs(r["mean_ack_s"]),
          fs(r["p95_ack_s"]), r["retransmissions"], r["faults_injected"],
          r["corrupt_detected"], r["violations"]] for r in rows],
    )


def _e14() -> str:
    rows = E.run_e14_wire()
    return format_table(
        "E14 - bytes-on-wire: log compaction + delta shipping",
        ["link", "config", "queued", "bytes", "drain", "compacted",
         "delta saved", "marshal hits", "violations"],
        [[r["link"], r["config"], r["queued_at_reconnect"], r["bytes_wire"],
          fs(r["drain_s"]), r["ops_compacted"], r["delta_bytes_saved"],
          r["marshal_cache_hits"], r["violations"]] for r in rows],
    )


def _e15() -> str:
    rows = E.run_e15_fleet()
    return format_table(
        "E15 - fleet telemetry: shipping overhead + aggregation exactness",
        ["config", "clients", "wire bytes", "telemetry", "overhead",
         "sent", "acked", "dups", "gaps", "exact"],
        [[r["config"], r["clients"], r["wire_bytes"], r["telemetry_bytes"],
          f"{r['overhead_pct']:.2f}%", r["reports_sent"], r["reports_acked"],
          r["duplicates"], r["open_gaps"], r["exact"]] for r in rows],
    )


def _e16() -> str:
    rows = E.run_e16_speed()
    return format_table(
        "E16 - CPU hot path: drain throughput + codec cost",
        ["clients", "acked", "ops/s", "wall", "cpu x cal", "flushes",
         "grp commits", "fsyncs saved", "compactions", "cyclic garbage"],
        [[r["clients"], r["ops_acked"], r["ops_per_s"],
          fs(r["drain_wall_s"]), f"{r['drain_cpu_x_cal']:.0f}x",
          r["log_flushes"], r["group_commits"], r["fsyncs_saved"],
          r["kernel_compactions"], r["cyclic_garbage_objects"]] for r in rows],
    )


def _f1() -> str:
    rows = E.run_f1_size_sweep()
    return format_table(
        "F1 - import latency vs object size",
        ["link", "size", "import", "analytic transfer"],
        [[r["link"], f"{r['size_bytes'] // 1024}KB", fs(r["import_s"]),
          fs(r["analytic_tx_s"])] for r in rows],
    )


def _f2() -> str:
    rows = E.run_f2_availability()
    return format_table(
        "F2 - availability vs link duty cycle",
        ["duty cycle", "Rover", "conventional"],
        [[f"{r['duty_cycle_pct']:.0f}%", f"{r['rover_availability_pct']:.0f}%",
          f"{r['blocking_availability_pct']:.0f}%"] for r in rows],
    )


def _f3() -> str:
    rows = E.run_f3_shared_cell()
    return format_table(
        "F3 - shared wireless cell contention",
        ["clients", "shared cell", "dedicated", "slowdown"],
        [[r["clients"], fs(r["shared_cell_s"]), fs(r["dedicated_links_s"]),
          f"{r['slowdown']:.1f}x"] for r in rows],
    )


EXPERIMENTS = {
    "e1": _e1,
    "e2": _e2,
    "e2b": _e2b,
    "e3": _e3,
    "e4": _e4,
    "e5": _e5,
    "e6": _e6,
    "e7": _e7,
    "e8": _e8,
    "e9": _e9,
    "e10": _e10,
    "e11": _e11,
    "e12": _e12,
    "e13": _e13,
    "e14": _e14,
    "e15": _e15,
    "e16": _e16,
    "f1": _f1,
    "f2": _f2,
    "f3": _f3,
}


#: Raw-data producers for --csv (experiment id -> rows-of-dicts factory).
RAW = {
    "e1": lambda: E.run_e1_qrpc_latency(),
    "e2": lambda: E.run_e2_log_overhead(),
    "e2b": lambda: E.run_e2b_group_commit(),
    "e3": lambda: E.run_e3_local_vs_rpc(),
    "e4": lambda: E.run_e4_migration(),
    "e5": lambda: E.run_e5_mail(),
    "e7": lambda: E.run_e7_clickahead(),
    "e10": lambda: E.run_e10_compression(),
    "e11": lambda: E.run_e11_batching(),
    "e13": lambda: E.run_e13_chaos(),
    "e14": lambda: E.run_e14_wire(),
    "e15": lambda: E.run_e15_fleet(),
    "e16": lambda: E.run_e16_speed(),
    "f1": lambda: E.run_f1_size_sweep(),
    "f2": lambda: E.run_f2_availability(),
    "f3": lambda: E.run_f3_shared_cell(),
}


def write_csv(directory: str, names: list[str]) -> list[str]:
    """Dump raw experiment rows as CSV files; returns the paths written."""
    import csv
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name in names:
        factory = RAW.get(name)
        if factory is None:
            continue
        rows = factory()
        if not rows:
            continue
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--csv", metavar="DIR",
                        help="also write raw rows as CSV files under DIR")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record QRPC spans and write them as JSONL to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print a metrics-registry snapshot after the run")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

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
            print(EXPERIMENTS[name]())
            print()
    finally:
        set_capture(None)
    if args.csv:
        for path in write_csv(args.csv, selected):
            print(f"wrote {path}")
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
