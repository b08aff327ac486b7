"""E11 — draining the queued log on reconnection: prototype vs. default.

The paper motivates channel-use optimization for intermittent links;
its prototype drains one QRPC per exchange, uncompressed.  By default
the scheduler now lets queued requests share a frame wherever one
request alone costs more line time than the link's propagation delay,
and the transport compresses such frames.  Shape asserted: on both
dial-up links the default drains sooner with fewer bytes; on the 2.4k
modem (where an 80 B import request passes the mark) the twelve
requests leave as one exchange, on the 14.4k one (where it does not)
they still leave one each and only compression helps.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e11_batching
from repro.bench.tables import format_seconds, format_table


def test_e11_batching(benchmark):
    rows = benchmark.pedantic(run_e11_batching, rounds=1, iterations=1)
    record_report(
        format_table(
            "E11 - drain 12 queued imports on reconnect",
            ["link", "config", "drain time", "wire exchanges", "coalesced frames", "wire bytes"],
            [
                [
                    r["link"],
                    r["config"],
                    format_seconds(r["drain_time_s"]),
                    r["exchanges"],
                    r["batches"],
                    r["bytes_wire"],
                ]
                for r in rows
            ],
        )
    )
    by = {(r["link"], r["config"]): r for r in rows}
    for link in ("cslip-14.4k", "cslip-2.4k"):
        prototype, default = by[link, "prototype"], by[link, "default"]
        assert prototype["batches"] == 0 and prototype["exchanges"] == 12
        assert default["drain_time_s"] < prototype["drain_time_s"]
        assert default["bytes_wire"] < prototype["bytes_wire"]
    # Bytes are what the 2.4k modem waits for even at 80 B a request:
    # the whole backlog is one exchange.
    assert by["cslip-2.4k", "default"]["exchanges"] == 1
    # On the 14.4k modem such a request is under the mark and rides alone.
    assert by["cslip-14.4k", "default"]["batches"] == 0
