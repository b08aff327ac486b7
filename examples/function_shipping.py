#!/usr/bin/env python3
"""Function shipping: moving the computation instead of the data.

The paper's RDO-migration story (finding 4): over a 14.4 modem, a task
that needs N server-side lookups costs N round trips as QRPCs — or one
queued exchange as a shipped RDO.  This example runs a parts-inventory
audit both ways and then ships the paper's canonical example, a mail
filter that scans message bodies without importing a single one —
and, last, two runaway agents: one the verifier refuses before it
ships, one that would loop a billion times, which the server's step
budget stops.

Run:  python examples/function_shipping.py
"""

from repro import RDO, URN, build_testbed
from repro.apps.mail import MailServerApp, RoverMailReader
from repro.core.promise import PromiseError
from repro.core.rdo import RDOVerificationError
from repro.net import CSLIP_14_4
from repro.workloads import generate_mail_corpus


def main() -> None:
    bed = build_testbed(link_spec=CSLIP_14_4)

    # --- a parts inventory spread over 12 objects ------------------------
    for index in range(12):
        bed.server.put_object(
            RDO(
                URN("server", f"inventory/part{index:02d}"),
                "part",
                {"name": f"part{index:02d}", "stock": index * 3, "unit_cost": 5 + index},
            )
        )

    # The chatty way: one remote invocation per part.
    start = bed.sim.now
    total = 0
    for index in range(12):
        promise = bed.access.ship(
            "server",
            "def main(urn):\n    return lookup(urn)['stock']\n",
            args=[f"urn:rover:server/inventory/part{index:02d}"],
        )
        total += promise.wait(bed.sim)
    per_op_time = bed.sim.now - start
    print(f"12 per-part exchanges: stock total {total}, took {per_op_time:.2f}s")

    # The Rover way: ship the whole audit as one RDO.
    audit = '''
def main(prefix, reorder_below):
    total_stock = 0
    reorder = []
    value = 0
    for key in objects(prefix):
        part = lookup(key)
        total_stock = total_stock + part["stock"]
        value = value + part["stock"] * part["unit_cost"]
        if part["stock"] < reorder_below:
            reorder.append(part["name"])
    return {"total_stock": total_stock, "value": value, "reorder": reorder}
'''
    start = bed.sim.now
    report = bed.access.ship(
        "server", audit, args=["urn:rover:server/inventory/", 9]
    ).wait(bed.sim)
    ship_time = bed.sim.now - start
    print(f"1 shipped RDO:         stock total {report['total_stock']}, "
          f"took {ship_time:.2f}s ({per_op_time / ship_time:.1f}x faster)")
    print(f"    inventory value ${report['value']}, reorder: {report['reorder']}")

    # --- the canonical example: a server-side mail filter ------------------
    corpus = generate_mail_corpus(seed=31, n_folders=1, messages_per_folder=10)
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)
    folder_bytes = sum(m.size_bytes for m in corpus.folders["inbox"])
    start = bed.sim.now
    matches = reader.filter_folder_on_server("inbox", "budget").wait(bed.sim)
    filter_time = bed.sim.now - start
    print(f"\nserver-side mail filter over {folder_bytes} bytes of bodies: "
          f"{len(matches)} match(es) in {filter_time:.2f}s")
    print(f"    (importing the folder first would have moved every byte "
          f"over the 14.4 modem: ~{folder_bytes * 8 / 14_400:.0f}s)")
    assert len(bed.access.cache) == 0  # no bodies imported

    # --- runaway agents: shipped code cannot spin forever on the server ---
    # A loop the verifier can see never ends is refused at the author's
    # desk, before it is logged or sent ...
    spin = '''
def main():
    while True:
        pass
'''
    try:
        bed.access.ship("server", spin)
    except RDOVerificationError as exc:
        finding = exc.diagnostics[0]
        print(f"\nunbounded agent refused at the desk: {finding.rule} {finding.message}")

    # ... and one over a finite range passes the verifier: the server's
    # step budget (one step per loop iteration) is what stops it.
    runaway = '''
def main():
    total = 0
    for i in range(10 ** 9):
        total = total + i
    return total
'''
    try:
        bed.access.ship("server", runaway).wait(bed.sim)
    except PromiseError as exc:
        print(f"\nrunaway agent refused by the server: {exc}")


if __name__ == "__main__":
    main()
