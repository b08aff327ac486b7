"""Testbed builder tests."""

import pytest

from repro.chaos import ChaosController, ChaosError, ClientCrash, FaultPlan
from repro.ha import build_ha_testbed
from repro.net.link import CSLIP_2_4, CSLIP_14_4, ETHERNET_10M, WAVELAN_2M, AlwaysDown, IntervalTrace
from repro.storage.stable_log import FlushModel, GroupCommitPolicy
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note


def test_basic_testbed_wiring():
    bed = build_testbed()
    assert bed.authority == "server"
    assert bed.link.is_up
    assert bed.access.servers == {"server": bed.server_host}
    assert bed.client_host.name == "client"


def test_custom_flush_model_applied():
    bed = build_testbed(flush_model=FlushModel.free())
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    assert bed.access.flush_seconds_total == 0.0


def test_relay_wiring():
    bed = build_testbed(policy=AlwaysDown(), with_relay=True)
    assert bed.relay is not None
    assert bed.client_mailbox is not None
    note = make_note()
    bed.server.put_object(note)
    rdo = bed.access.import_(note.urn).wait(bed.sim, timeout=600)
    assert rdo.data == {"text": "hello"}
    assert bed.relay.accepted >= 1


def test_fifo_only_flag_propagates():
    bed = build_testbed(fifo_only=True)
    assert bed.scheduler.fifo_only


def test_multi_client_independent_stacks():
    bed = build_multi_client_testbed(3)
    assert len(bed.clients) == 3
    names = {client.host.name for client in bed.clients}
    assert names == {"client0", "client1", "client2"}
    note = make_note()
    bed.server.put_object(note)
    promises = [client.access.import_(note.urn) for client in bed.clients]
    bed.sim.run()
    assert all(p.ready for p in promises)
    # Caches are private per client.
    for client in bed.clients:
        assert len(client.access.cache) == 1


def test_multi_client_per_client_policies():
    bed = build_multi_client_testbed(
        2, policies=[None, AlwaysDown()]
    )
    assert bed.clients[0].link.is_up
    assert not bed.clients[1].link.is_up


def test_every_transport_of_a_bed_gets_its_wire_setting():
    ha = build_ha_testbed(n_backups=2, n_clients=2, adapt_to_link=False)
    relayed = build_testbed(with_relay=True, adapt_to_link=False)
    transports = [transport for _server, transport in ha.members]
    transports += [stack.transport for stack in ha.clients]
    transports += [relayed.server_transport, relayed.client_transport, relayed.relay.transport]
    assert [t.adapt_to_link for t in transports] == [False] * 8


@pytest.mark.parametrize("n_clients", [1, 2])
def test_a_crash_of_a_client_the_bed_lacks_is_a_chaos_error(n_clients):
    bed = build_testbed() if n_clients == 1 else build_multi_client_testbed(n_clients)
    plan = FaultPlan(client_crashes=(ClientCrash(at=1.0, client=5),))
    with pytest.raises(ChaosError, match="no client 5"):
        ChaosController(bed.sim).schedule(plan, bed)


def test_one_client_names_read_client_zero_and_member_zero():
    bed = build_ha_testbed(n_backups=1, n_clients=2)
    assert bed.access is bed.clients[0].access
    assert bed.link is bed.clients[0].link and bed.link.name == "client0--server:ethernet-10Mb"
    assert bed.server_transport is bed.members[0][1]
    assert list(bed.network.hosts) == ["server", "server-b1", "client0", "client1"]
    replayed = bed.clients[0].crash_and_recover()
    assert replayed == [] and bed.access is bed.clients[0].access


# ---------------------------------------------------------------------------
# One declaration of the options: what a builder accepts and refuses
# ---------------------------------------------------------------------------

_BUILDERS = {
    "build_testbed": build_testbed,
    "build_multi_client_testbed": lambda **options: build_multi_client_testbed(2, **options),
    "build_ha_testbed": build_ha_testbed,
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize("option", ["obs", "no_such_option", "registry"])
def test_each_builder_rejects_an_option_no_one_declares(builder, option):
    with pytest.raises(TypeError, match=option):
        _BUILDERS[builder](**{option: None})


def _names(bed):
    return list(bed.network.hosts), [link.name for link in bed.network.links]


def test_perfbench_keywords_build_the_hosts_and_links_they_always_built():
    """The keywords the benchmark's workloads pass, at a small size: the
    host and link names, in creation order, as before the builders
    shared one declaration (the order fixes every seeded draw)."""
    slow = build_testbed(
        link_spec=CSLIP_14_4, policy=IntervalTrace([(0.0, 5.0), (9.0, 1e12)]),
        compaction=True, delta_shipping=True, seed=8, trace=False,
    )
    assert _names(slow) == (["server", "client"], ["client--server:cslip-14.4k"])
    fleet = build_multi_client_testbed(
        3, link_specs=[ETHERNET_10M, WAVELAN_2M, CSLIP_14_4, CSLIP_2_4],
        policies=[None, IntervalTrace([(5.0, 1e12)]), None], seed=7,
        per_client_obs=True, group_commit=GroupCommitPolicy(), trace=False,
    )
    assert _names(fleet) == (
        ["server", "client0", "client1", "client2"],
        ["client0--server:ethernet-10Mb", "client1--server:wavelan-2Mb",
         "client2--server:cslip-14.4k"],
    )
    ha = build_ha_testbed(n_backups=2, n_clients=2, seed=7, trace=False)
    assert _names(ha) == (
        ["server", "server-b1", "server-b2", "client0", "client1"],
        ["server--server-b1:ethernet-10Mb", "server--server-b2:ethernet-10Mb",
         "server-b1--server-b2:ethernet-10Mb",
         "client0--server:ethernet-10Mb", "client0--server-b1:ethernet-10Mb",
         "client0--server-b2:ethernet-10Mb",
         "client1--server:ethernet-10Mb", "client1--server-b1:ethernet-10Mb",
         "client1--server-b2:ethernet-10Mb"],
    )
    assert [stack.scheduler.rpc_timeout for stack in ha.clients] == [5.0, 5.0]
    assert [stack.scheduler.max_attempts for stack in ha.clients] == [3, 3]


# ---------------------------------------------------------------------------
# An option that cannot apply is refused before anything is built
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair", [(1, 0), (0, 5), (2, 2), (-1, 1)])
def test_a_mesh_policy_for_no_member_pair_is_refused(pair):
    with pytest.raises(ValueError, match="mesh_policies"):
        build_ha_testbed(mesh_policies={pair: AlwaysDown()})


def test_a_mesh_policy_on_a_single_server_is_refused():
    with pytest.raises(ValueError, match="mesh_policies"):
        build_testbed(mesh_policies={(0, 1): AlwaysDown()})


@pytest.mark.parametrize("n_policies", [1, 3])
def test_policies_must_name_one_per_client(n_policies):
    with pytest.raises(ValueError, match="policies"):
        build_multi_client_testbed(2, policies=[None] * (n_policies - 1) + [AlwaysDown()])
