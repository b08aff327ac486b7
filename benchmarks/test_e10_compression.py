"""E10 — wire compression, the other optimization the paper omits.

"Our prototype implementation favors simplicity over performance: it
does not perform any compression on the log..."  The transport now
compresses a frame whenever its bytes cost more than the chosen link's
propagation delay; this ablation prefetches a mail folder as the
prototype (raw frames) and as the default.  Shape asserted: on the 14.4/2.4 dial-up links compression
cuts both bytes and completion time by well over half; on the 2 Mb/s
WaveLAN the win shrinks (latency and flush costs dominate).
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e10_compression
from repro.bench.tables import format_seconds, format_table


def test_e10_compression(benchmark):
    rows = benchmark.pedantic(run_e10_compression, rounds=1, iterations=1)
    record_report(
        format_table(
            "E10 - mail prefetch: prototype (raw) vs. default (link-aware zlib)",
            ["link", "raw bytes", "zlib bytes", "raw time", "zlib time", "time saved"],
            [
                [
                    r["link"],
                    r["raw_bytes"],
                    r["compressed_bytes"],
                    format_seconds(r["raw_time_s"]),
                    format_seconds(r["compressed_time_s"]),
                    f"{r['time_saved_pct']:.0f}%",
                ]
                for r in rows
            ],
        )
    )
    by_link = {r["link"]: r for r in rows}
    for r in rows:
        assert r["compressed_bytes"] < r["raw_bytes"]
        assert r["compressed_time_s"] <= r["raw_time_s"]
    # Big wins on dial-up...
    assert by_link["cslip-14.4k"]["time_saved_pct"] > 50
    assert by_link["cslip-2.4k"]["time_saved_pct"] > 50
    # ...modest on the fast wireless LAN.
    assert by_link["wavelan-2Mb"]["time_saved_pct"] < 30
