"""One declaration per experiment.

Each :class:`Experiment` below names its driver in
:mod:`repro.bench.experiments`, the table its rows print as, the wire it
is measured on, and the :class:`Gate` that pins its rows to a committed
baseline.  Everything else reads this table: ``python -m repro.bench``
renders, exports and re-pins from it, and
``benchmarks/test_experiments.py`` (tier-1) runs every driver once,
applies the shape function it keeps under the same id, and compares the
rows with the baseline as the gate says.

Adding an experiment is a driver that returns row dicts, one entry
here, one shape function in ``benchmarks/test_experiments.py``, and
``python -m repro.bench --update <id>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.bench import experiments as E
from repro.bench.tables import format_seconds, format_table

#: Where the committed baselines live: the checkout root.
BASELINE_DIR = Path(__file__).resolve().parents[3]

#: The baseline of every experiment whose gate names no file of its own:
#: experiment id -> rows.
SHARED_BASELINE = "BENCH_EXPERIMENTS.json"

#: A table cell: the name of a row field, or a formatter of the row.
Cell = Union[str, Callable[[dict], object]]
#: A column: ``(header, cell)``, or bare the field that is both.
Column = Union[str, tuple[str, Cell]]


def secs(name: str) -> Cell:
    return lambda row: format_seconds(row[name])


def num(name: str, spec: str, suffix: str = "") -> Cell:
    return lambda row: f"{row[name]:{spec}}{suffix}"


@dataclass(frozen=True)
class Gate:
    """What an experiment's gate runs, pins and compares.

    Virtual time and seeded workloads make every simulation-derived
    field repeat exactly, so any drift in one is a behaviour change.
    """

    #: Fields naming a row (the row's key in the baseline).
    key: tuple[str, ...] = ()
    #: Driver arguments of the gate run, where full scale is CI-hostile.
    scale: dict = field(default_factory=dict)
    #: Fields ``--update`` pins beside the key (None: the whole row).
    pinned: Optional[tuple[str, ...]] = None
    #: Must equal the baseline (None: every pinned field).
    exact: Optional[tuple[str, ...]] = None
    #: May not exceed the baseline by more than 10%.
    tolerance: tuple[str, ...] = ()
    #: The same, for measurements of the host (calibration-normalized
    #: CPU): compared under ``--host-time`` only, never in tier-1.
    host_time: tuple[str, ...] = ()
    #: Must hold whatever the baseline says: field -> required value.
    require: dict = field(default_factory=dict)
    #: Absolute ceilings, enforced always: field -> limit.
    limits: dict = field(default_factory=dict)
    #: Baseline file (None: :data:`SHARED_BASELINE`, under the
    #: experiment's id) and the key of the rows in a file that also
    #: holds other records (None: the file is the list of rows).
    baseline: Optional[str] = None
    section: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    id: str
    driver: Callable[..., list[dict]]
    #: The table the rows print as.
    title: str
    columns: tuple[Column, ...]
    gate: Gate
    #: The wire the driver builds (``Transport.adapt_to_link``):
    #: "default", "prototype" (the paper's: raw frames, one QRPC per
    #: exchange) or "both" (the experiment compares them).
    wire: str = "default"
    #: Set: the table lies on its side — one printed line per column
    #: above, one printed column per row, headed by the row's value of
    #: this field ("value" when the row has none).
    pivot: Optional[str] = None

    def render(self, rows: list[dict]) -> str:
        columns = [(c, c) if isinstance(c, str) else c for c in self.columns]
        headers = [header for header, _ in columns]
        cells = [
            [row[cell] if isinstance(cell, str) else cell(row) for _, cell in columns]
            for row in rows
        ]
        if self.pivot is None:
            return format_table(self.title, headers, cells)
        return format_table(
            self.title,
            ["metric"] + [str(row.get(self.pivot, "value")) for row in rows],
            [[header, *line] for header, line in zip(headers, zip(*cells))],
        )

    def _baseline(self) -> tuple[Path, Optional[str]]:
        if self.gate.baseline is None:
            return BASELINE_DIR / SHARED_BASELINE, self.id
        return BASELINE_DIR / self.gate.baseline, self.gate.section

    def baseline_rows(self) -> list[dict]:
        """The committed rows; a lone row is stored bare."""
        path, section = self._baseline()
        doc = json.loads(path.read_text())
        if section is not None:
            doc = doc.get(section, [])
        return doc if isinstance(doc, list) else [doc]

    def update(self, rows: list[dict]) -> Path:
        """Rewrite the baseline from ``rows``, in the file's shape."""
        gate = self.gate
        if gate.pinned is not None:
            rows = [{name: row[name] for name in gate.key + gate.pinned} for row in rows]
        path, section = self._baseline()
        doc: object = rows
        if section is not None:
            doc = json.loads(path.read_text()) if path.exists() else {}
            doc[section] = rows[0] if len(rows) == 1 else rows
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path


EXPERIMENTS: dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "e1", E.run_e1_qrpc_latency, "E1 - null QRPC vs blocking RPC per link",
            ("link", ("blocking RPC", secs("rpc_s")), ("QRPC", secs("qrpc_s")),
             ("QRPC overhead", secs("overhead_s")), ("overhead", num("overhead_pct", ".0f", "%"))),
            Gate(key=("link",)),
        ),
        Experiment(
            "e2", E.run_e2_log_overhead, "E2 - log-flush overhead ablation (flush on vs off)",
            ("link", ("QRPC w/ flush", secs("qrpc_with_flush_s")),
             ("QRPC w/o flush", secs("qrpc_without_flush_s")),
             ("flush share", num("flush_fraction_pct", ".1f", "%"))),
            Gate(key=("link",)),
        ),
        Experiment(
            "e2b", E.run_e2b_group_commit, "E2b - 10-QRPC burst on ethernet: group-commit windows",
            (("window",
              lambda r: "per-request" if r["window_s"] == 0 else format_seconds(r["window_s"])),
             ("burst completion", secs("burst_completion_s")), ("log flushes", "flushes"),
             ("flush seconds", secs("flush_seconds"))),
            Gate(key=("window_s",)),
        ),
        Experiment(
            "e3", E.run_e3_local_vs_rpc, "E3 - local cached invocation vs RPC per link",
            ("link", ("local invoke", secs("local_invoke_s")), ("RPC", secs("rpc_s")),
             ("local speedup", num("speedup", ".1f", "x"))),
            Gate(key=("link",)),
        ),
        Experiment(
            "e4", E.run_e4_migration, "E4 - N per-operation QRPCs vs one shipped RDO",
            ("link", ("N", "n_ops"), ("N QRPCs", secs("per_op_qrpc_s")),
             ("shipped RDO", secs("shipped_rdo_s")), ("ship speedup", num("speedup", ".1f", "x"))),
            Gate(key=("link", "n_ops")),
        ),
        Experiment(
            "e5", E.run_e5_mail, "E5 - read a 12-message folder (scan + read + mark read)",
            ("link", ("Rover cold", secs("rover_cold_s")),
             ("Rover prefetched", secs("rover_prefetched_s")), ("blocking", secs("blocking_s")),
             ("warm speedup", num("warm_speedup_vs_blocking", ".0f", "x"))),
            Gate(key=("link",)),
            wire="prototype",
        ),
        Experiment(
            "e5b", E.run_e5_disconnected_mail,
            "E5b - disconnected mail session (prefetched, then link down)",
            ("rover_reads_while_disconnected",
             ("rover_disconnected_read_time", secs("rover_disconnected_read_time_s")),
             "blocking_reader_failed", "flag_updates_committed_after_reconnect", "n_messages"),
            Gate(),
            wire="prototype",
            pivot="value",
        ),
        Experiment(
            "e6", E.run_e6_calendar, "E6 - two disconnected replicas, 30 ops (resolver ablation)",
            ("ops_applied", "server_events", "exports_committed", "exports_resolved",
             "exports_conflicted", "manual_conflicts_reported", "auto_reslotted",
             "replicas_clean"),
            Gate(key=("resolver",)),
            pivot="resolver",
        ),
        Experiment(
            "e7", E.run_e7_clickahead,
            "E7 - browse 6 pages, 30s think time (per-user-session totals)",
            ("link", ("blocking session", secs("blocking_session_s")),
             ("blocking wait", secs("blocking_user_wait_s")),
             ("click-ahead session", secs("clickahead_session_s")),
             ("click-ahead wait", secs("clickahead_user_wait_s")),
             ("prefetch session", secs("prefetch_session_s")),
             ("prefetch wait", secs("prefetch_user_wait_s"))),
            Gate(key=("link",)),
            wire="prototype",
        ),
        Experiment(
            "e7b", E.run_e7_threshold_sweep,
            "E7b - prefetch threshold sweep (cslip-14.4, 30s think time)",
            (("threshold", secs("threshold_s")), ("user wait", secs("user_wait_s")),
             "prefetches", ("bytes on wire", "bytes_on_wire")),
            Gate(key=("threshold_s",)),
            wire="prototype",
        ),
        Experiment(
            "e8", E.run_e8_priority, "E8 - urgent QRPC behind a 12-object bulk queue (cslip-14.4)",
            (("urgent completion", secs("urgent_done_s")),
             ("first bulk completion", secs("first_bulk_done_s")),
             ("last bulk completion", secs("last_bulk_done_s")), ("all delivered", "all_done")),
            Gate(key=("mode",)),
            wire="prototype",
            pivot="mode",
        ),
        Experiment(
            "e8b", E.run_e8_relay_fallback,
            "E8b - direct link down 10 min: QRPC completion after issue",
            (("direct link only", secs("direct_only_latency_s")),
             ("with SMTP relay route", secs("with_relay_latency_s"))),
            Gate(),
            pivot="value",
        ),
        Experiment(
            "e9", E.run_e9_disconnected,
            "E9 - disconnect/work/reconnect cycle, all three applications",
            ("offline_reads_served", "offline_page_from_cache", "qrpcs_queued_while_down",
             "pending_after_reconnect", "calendar_event_committed",
             "tentative_after_reconnect", "disconnected_at_s"),
            Gate(),
            pivot="value",
        ),
        Experiment(
            "e10", E.run_e10_compression,
            "E10 - mail prefetch: prototype (raw) vs. default (link-aware zlib)",
            ("link", ("raw bytes", "raw_bytes"), ("zlib bytes", "compressed_bytes"),
             ("raw time", secs("raw_time_s")), ("zlib time", secs("compressed_time_s")),
             ("time saved", num("time_saved_pct", ".0f", "%"))),
            Gate(key=("link",)),
            wire="both",
        ),
        Experiment(
            "e11", E.run_e11_batching,
            "E11 - drain 12 queued imports on reconnect: prototype vs. default",
            ("link", "config", ("drain time", secs("drain_time_s")),
             ("wire exchanges", "exchanges"), ("coalesced frames", "batches"),
             ("wire bytes", "bytes_wire")),
            Gate(key=("link", "config")),
            wire="both",
        ),
        Experiment(
            "e12", E.run_e12_locking,
            "E12 - 4 clients x 2 edits of one field (optimistic vs check-out locks)",
            ("edits_attempted", "edits_completed", "manual_conflicts", "server_version",
             "lock_denials", ("elapsed", secs("elapsed_s"))),
            Gate(key=("mode",)),
            pivot="mode",
        ),
        Experiment(
            "e13", E.run_e13_chaos, "E13 - availability under seeded chaos (mail workload)",
            ("config", "sends", "acked",
             ("mean ack", secs("mean_ack_s")), ("p95 ack", secs("p95_ack_s")),
             ("retx", "retransmissions"), ("faults", "faults_injected"),
             ("corrupt det", "corrupt_detected"), "violations"),
            # The driver follows CHAOS_SEED (the CI seed matrix); the
            # baseline holds seed 0, so other seeds are shape-only.
            Gate(key=("config", "seed"), require={"violations": 0}),
        ),
        Experiment(
            "e14", E.run_e14_wire, "E14 - bytes-on-wire: log compaction + delta shipping",
            ("link", "config", ("queued", "queued_at_reconnect"),
             ("bytes", "bytes_wire"), ("drain", secs("drain_s")), ("compacted", "ops_compacted"),
             ("delta saved", "delta_bytes_saved"), ("marshal hits", "marshal_cache_hits"),
             "violations"),
            # Bytes-on-wire per (link, config) must not creep back up.
            Gate(
                key=("link", "config"),
                pinned=("bytes_wire", "drain_s", "ops_compacted", "violations"),
                tolerance=("bytes_wire",),
                require={"violations": 0},
                baseline="BENCH_E14.json",
            ),
            wire="both",
        ),
        Experiment(
            "e15", E.run_e15_fleet,
            "E15 - fleet telemetry: shipping overhead + aggregation exactness",
            ("config", "clients", ("wire bytes", "wire_bytes"),
             ("telemetry", "telemetry_bytes"), ("overhead", num("overhead_pct", ".2f", "%")),
             ("sent", "reports_sent"), ("acked", "reports_acked"), ("dups", "duplicates"),
             ("gaps", "open_gaps"), "exact"),
            # The telemetry tax, at a reduced scale (the per-client byte
            # economics are scale-invariant): small enough for CI, large
            # enough to cover every link class (30 clients each) and the
            # fold/dup/reorder paths.
            Gate(
                key=("config",),
                scale={"n_clients": 120},
                pinned=("clients", "telemetry_bytes", "foreground_bytes", "overhead_pct",
                        "reports_sent", "duplicates", "open_gaps", "exact"),
                tolerance=("overhead_pct",),
                require={"exact": True, "open_gaps": 0},
                limits={"overhead_pct": 5.0},  # the E15 acceptance bar
                baseline="BENCH_E15.json",
            ),
        ),
        Experiment(
            "e16", E.run_e16_speed, "E16 - CPU hot path: drain throughput + codec cost",
            ("clients", ("acked", "ops_acked"), ("ops/s", "ops_per_s"),
             ("wall", secs("drain_wall_s")), ("cpu x cal", num("drain_cpu_x_cal", ".0f", "x")),
             ("flushes", "log_flushes"), ("grp commits", "group_commits"),
             ("fsyncs saved", "fsyncs_saved"), ("compactions", "kernel_compactions"),
             ("cyclic garbage", "cyclic_garbage_objects")),
            # Covers all four link classes (125 clients each), the
            # group-commit window and a kernel compaction in a few CI
            # seconds.  CPU is normalized by the in-process calibration
            # loop, so the committed numbers transfer across machines.
            Gate(
                scale={"n_clients": 500},
                exact=("clients", "ops_submitted", "ops_acked", "done_at_s", "log_appends",
                       "log_flushes", "group_commits", "fsyncs_saved", "bytes_sent",
                       "messages_sent", "codec_wire_bytes", "cyclic_garbage_objects"),
                host_time=("drain_cpu_x_cal", "encode_cpu_x_cal", "decode_cpu_x_cal",
                           "size_cpu_x_cal"),
                baseline="BENCH_E16.json",
                section="gate",
            ),
        ),
        Experiment(
            "f1", E.run_f1_size_sweep, "F1 - import latency vs object size",
            ("link", ("size", lambda r: f"{r['size_bytes'] // 1024}KB"),
             ("import", secs("import_s")), ("analytic transfer", secs("analytic_tx_s"))),
            Gate(key=("link", "size_bytes")),
            wire="prototype",
        ),
        Experiment(
            "f2", E.run_f2_availability,
            "F2 - mail-read availability vs link duty cycle (cslip-14.4)",
            (("link duty cycle", num("duty_cycle_pct", ".0f", "%")),
             ("Rover availability", num("rover_availability_pct", ".0f", "%")),
             ("conventional client", num("blocking_availability_pct", ".0f", "%"))),
            Gate(key=("duty_cycle_pct",)),
        ),
        Experiment(
            "f3", E.run_f3_shared_cell, "F3 - N clients hoarding at once (wavelan-2Mb cell)",
            ("clients", ("shared cell", secs("shared_cell_s")),
             ("dedicated links", secs("dedicated_links_s")),
             ("slowdown", num("slowdown", ".1f", "x"))),
            Gate(key=("clients",)),
            wire="prototype",
        ),
    )
}
