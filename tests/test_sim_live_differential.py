"""Sim-vs-live differential: one scripted op trace, two substrates.

The access manager, the network scheduler and the server are the same
classes under the simulator and over real sockets; only the clock and
the carrier differ.  So the same script must leave the same objects at
the server and the same counts at each client's scheduler.  Every step
settles before the next one starts, which makes the order of arrival at
the server — the only thing wall-clock time could change — part of the
script.
"""

import threading

from repro.live import LiveClient, LiveServer
from repro.net.link import ETHERNET_10M
from repro.testbed import build_multi_client_testbed
from tests.conftest import make_note

TIMEOUT = 15.0

SHIPPED = (
    "def main():\n"
    "    total = 0\n"
    "    for key in objects('urn:rover:server/notes/'):\n"
    "        total = total + len(lookup(key)['text'])\n"
    "    return total\n"
)


def run_script(server, accesses, settle) -> dict:
    """Drive the trace; return everything the two runs must agree on."""
    alice, bob = accesses
    n1, n2 = "urn:rover:server/notes/n1", "urn:rover:server/notes/n2"
    server.put_object(make_note(path="notes/n1", text="hello"))
    server.put_object(make_note(path="notes/n2", text="world"))

    for access, urn in ((alice, n1), (alice, n2), (bob, n1)):
        access.import_(urn)
    settle()
    alice.invoke(n1, "set_text", "from alice")  # mutates: exports on its own
    settle()
    bob.invoke(n1, "set_text", "from bob")  # bob's base is stale: a conflict
    settle()
    remote = alice.invoke_remote(n2, "set_text", ["set at the server"])
    settle()
    shipped = alice.ship("server", SHIPPED)
    settle()
    return {
        "remote": remote.result(),
        "shipped": shipped.result(),
        "bob_still_tentative": bob.cache.peek(n1).tentative,
        "exports": (
            server.exports_committed, server.exports_resolved, server.exports_conflicted
        ),
        "objects": {
            urn: (server.store.version(urn), server.get_object(urn).data)
            for urn in sorted(server.store.keys())
        },
    }


def test_one_trace_leaves_the_same_state_under_sim_and_live():
    bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
    sim_accesses = [stack.access for stack in bed.clients]
    sim_outcome = run_script(
        bed.server,
        sim_accesses,
        lambda: bed.sim.run_until(
            lambda: all(a.pending_count() == 0 for a in sim_accesses), timeout=600.0
        ),
    )
    sim_counts = [(s.scheduler.delivered, s.scheduler.failed) for s in bed.clients]

    server = LiveServer("server")
    clients = [
        LiveClient(name, servers={"server": server.address})
        for name in ("client0", "client1")
    ]
    try:
        live_accesses = [client.access for client in clients]

        def settle():
            assert server.clock.run_until(
                lambda: all(a.pending_count() == 0 for a in live_accesses),
                timeout=TIMEOUT,
            )
            # A reply leaves the log before it reaches the cache and the
            # promise: let the loop turn that took the last one finish.
            for client in clients:
                turn_over = threading.Event()
                client.clock.post(turn_over.set)
                assert turn_over.wait(TIMEOUT)

        live_outcome = run_script(server.server, live_accesses, settle)
        live_counts = [(c.scheduler.delivered, c.scheduler.failed) for c in clients]
    finally:
        for client in clients:
            client.close()
        server.close()
    for node in [server, *clients]:
        assert node.clock.errors == [], node.clock.errors

    assert live_outcome == sim_outcome
    assert live_counts == sim_counts
    # The script did what it says, on both: one clean commit, one conflict.
    assert sim_outcome["exports"] == (1, 0, 1)
    assert sim_outcome["objects"]["urn:rover:server/notes/n1"][1] == {"text": "from alice"}
    assert sim_outcome["objects"]["urn:rover:server/notes/n2"] == (
        2, {"text": "set at the server"}
    )
    assert sim_counts == [(5, 0), (2, 0)]
