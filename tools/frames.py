"""``make frames``: every frame of E14's mail drain on CSLIP-14.4, one row each.

Runs E14's default-wire cell on CSLIP-14.4 (a folder triaged while
disconnected, replies queued, the folder re-imported, then drained on
reconnection with compaction, delta shipping and coalesced, deflated
frames) and prints one row per frame the drain put on the link, both
ways, in the order they were sent: the virtual send and arrival times,
the direction, the service (a coalesced frame's member services in
brackets; a reply is named after the request it answers), the members,
the payload's raw bytes (marshalled and sealed), the bytes the same
frame would take deflated with no preset dictionary (``plain_B``: a
frame that left raw is its raw bytes) and its bytes on the wire (after
the deflate against ``DEFLATE_DICTIONARY``).  Then a total per service
and one over all, and E14's own row for the cell.  It shows the traffic
a frame budget or dictionary change moves; it reports and gates
nothing::

    PYTHONPATH=src python tools/frames.py
"""

import zlib

from repro.bench.experiments import _e14_one
from repro.net.link import CSLIP_14_4
from repro.net.message import marshal
from repro.net.simnet import Link
from repro.net.transport import BATCH_SERVICE, DEFLATE_LEVEL, FRAMING_BYTES, Transport

#: E14 reconnects at t = 1000 s; frames sent before ``WARM_UP_S`` are
#: the connected warm-up, which E14's byte count leaves out too.
WARM_UP_S = 290.0


def _record() -> list[tuple]:
    """Wrap the frame path: each payload a transport hands a link is
    recorded as (sent, arrives, source, destination, value, wire)."""
    frames: list[tuple] = []
    arrivals: list[float] = []
    link_send, transport_send = Link.send, Transport.send

    def on_link(self, *args, **kwargs):
        arrivals.append(link_send(self, *args, **kwargs))
        return arrivals[-1]

    def on_transport(self, dst, port, value, *args, **kwargs):
        sent = self.sim.now
        wire = transport_send(self, dst, port, value, *args, **kwargs)
        frames.append((sent, arrivals[-1], self.host.name, dst.name, value, wire))
        return wire

    Link.send, Transport.send = on_link, on_transport
    return frames


def _describe(value, services: dict) -> tuple[str, int]:
    """The service column and the member count of one payload."""
    if not isinstance(value, dict) or value.get("kind") not in ("request", "reply"):
        return "-", 1
    if value["kind"] == "reply":
        service = services.get(value["id"], "?")
        members = len(value["body"]["replies"]) if service.startswith(BATCH_SERVICE) else 1
        return f"reply:{service}", members
    service, body = value["service"], value["body"]
    if service != BATCH_SERVICE:
        services[value["id"]] = service
        return service, 1
    inner = sorted({member["service"] for member in body["requests"]})
    services[value["id"]] = f"{service}[{','.join(inner)}]"
    return services[value["id"]], len(body["requests"])


def _plain(raw: bytes, wire: int) -> int:
    """The bytes a frame would take deflated with no dictionary: the
    same rule as the transport's, a deflate kept only if it is smaller;
    a frame that left raw (``wire`` is its raw size) stays raw."""
    if wire == FRAMING_BYTES + len(raw):
        return wire
    return FRAMING_BYTES + min(len(raw), len(zlib.compress(raw, DEFLATE_LEVEL)))


def main() -> None:
    frames = _record()
    row = _e14_one(CSLIP_14_4, compaction=True, delta_shipping=True, coalesce=True)
    services: dict = {}
    columns = ("frames", "members", "raw_B", "plain_B", "wire_B")
    header = ("sent_s", "arrives_s", "from", "to", "service", *columns[1:])
    line = "{:>10} {:>10} {:>8} {:>8}  {:<40} {:>7} {:>7} {:>7} {:>7}"
    print(line.format(*header))
    per_service: dict = {}
    for sent, arrives, src, dst, value, wire in frames:
        service, members = _describe(value, services)
        if sent < WARM_UP_S:
            continue
        raw = marshal(value)
        amounts = (1, members, FRAMING_BYTES + len(raw), _plain(raw, wire), wire)
        print(line.format(f"{sent:.3f}", f"{arrives:.3f}", src, dst, service, *amounts[1:]))
        totals = per_service.setdefault(service, [0] * len(amounts))
        for index, amount in enumerate(amounts):
            totals[index] += amount
    total_line = "{:<40}" + " {:>7}" * len(columns)
    print()
    print(total_line.format("service", *columns))
    for service, totals in sorted(per_service.items()):
        print(total_line.format(service, *totals))
    overall = [sum(column) for column in zip(*per_service.values())] or [0] * len(columns)
    print(total_line.format("total", *overall))
    print(f"E14 {row['link']} {row['config']}: queued {row['queued_at_reconnect']}, "
          f"bytes_wire {row['bytes_wire']} (link headers included), drain {row['drain_s']} s")


if __name__ == "__main__":
    main()
