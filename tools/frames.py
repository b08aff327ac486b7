"""``make frames``: every frame of E14's mail drain on CSLIP-14.4, one row each.

Runs E14's default-wire cell on CSLIP-14.4 (a folder triaged while
disconnected, replies queued, the folder re-imported, then drained on
reconnection with compaction, delta shipping and coalesced, deflated
frames) and prints one row per frame the drain put on the link, both
ways, in the order they were sent: the virtual send and arrival times,
the direction, the service (a coalesced frame's member services in
brackets; a reply is named after the request it answers), the members,
the payload's raw bytes (marshalled and sealed) and its bytes on the
wire (after the deflate).  Then a total, and E14's own row for the
cell.  It shows the traffic a frame budget change moves; it reports
and gates nothing::

    PYTHONPATH=src python tools/frames.py
"""

from repro.bench.experiments import _e14_one
from repro.net.link import CSLIP_14_4
from repro.net.message import marshalled_size
from repro.net.simnet import Link
from repro.net.transport import BATCH_SERVICE, FRAMING_BYTES, Transport

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


def main() -> None:
    frames = _record()
    row = _e14_one(CSLIP_14_4, compaction=True, delta_shipping=True, coalesce=True)
    services: dict = {}
    header = ("sent_s", "arrives_s", "from", "to", "service", "members", "raw_B", "wire_B")
    print("{:>10} {:>10} {:>8} {:>8}  {:<40} {:>7} {:>7} {:>7}".format(*header))
    totals = [0, 0, 0, 0]
    for sent, arrives, src, dst, value, wire in frames:
        service, members = _describe(value, services)
        if sent < WARM_UP_S:
            continue
        raw = FRAMING_BYTES + marshalled_size(value)
        print(f"{sent:>10.3f} {arrives:>10.3f} {src:>8} {dst:>8}  {service:<40} "
              f"{members:>7} {raw:>7} {wire:>7}")
        for index, amount in enumerate((1, members, raw, wire)):
            totals[index] += amount
    print(f"{totals[0]} frames, {totals[1]} members, {totals[2]} B raw, {totals[3]} B on the wire")
    print(f"E14 {row['link']} {row['config']}: queued {row['queued_at_reconnect']}, "
          f"bytes_wire {row['bytes_wire']} (link headers included), drain {row['drain_s']} s")


if __name__ == "__main__":
    main()
