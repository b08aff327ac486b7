"""Delta object shipping: the structural diff and both wire directions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rdo import RDO
from repro.core.naming import URN
from repro.net.link import ETHERNET_10M
from repro.net.message import marshal, marshalled_size
from repro.perf.delta import (
    DeltaError,
    apply_delta,
    delta_size,
    diff_value,
    worth_shipping,
)
from repro.testbed import build_testbed
from tests.conftest import make_note

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


# -- the diff/apply pair -----------------------------------------------------


@settings(max_examples=200)
@given(_values, _values)
def test_diff_apply_roundtrip_property(base, new):
    """apply(base, diff(base, new)) is byte-identical to new on the wire."""
    delta = diff_value(base, new)
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_identical_values_diff_to_same_marker():
    value = {"a": [1, 2], "b": {"c": "x"}}
    assert diff_value(value, value) == {"=": 1}


def test_dict_key_order_is_part_of_the_value():
    """Marshal is insertion-order-sensitive, so a reorder is a real change."""
    base = {"a": 1, "b": 2}
    new = {"b": 2, "a": 1}
    assert marshal(base) != marshal(new)
    delta = diff_value(base, new)
    assert delta != {"=": 1}
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_bool_is_not_int_on_the_wire():
    """True == 1 in Python but not in the marshal encoding; the delta
    must ship the replacement rather than claiming equality."""
    base = {"x": True}
    new = {"x": 1}
    delta = diff_value(base, new)
    assert delta != {"=": 1}
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_list_append_ships_only_the_suffix():
    base = {"index": [{"id": i} for i in range(50)]}
    new = {"index": base["index"] + [{"id": 50}]}
    delta = diff_value(base, new)
    assert delta_size(delta) < marshalled_size(new) / 10
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_dict_edit_ships_only_changed_keys():
    base = {"name": "inbox", "big": "x" * 500, "flags": {"read": False}}
    new = {"name": "inbox", "big": "x" * 500, "flags": {"read": True}}
    delta = diff_value(base, new)
    assert delta_size(delta) < 100  # the 500-byte field never appears
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_dict_deletion_is_implied_by_key_order():
    base = {"a": 1, "b": 2, "c": 3}
    new = {"a": 1, "c": 3}
    delta = diff_value(base, new)
    assert marshal(apply_delta(base, delta)) == marshal(new)


def test_worth_shipping_compares_against_full_value():
    base = {"big": "x" * 500, "n": 1}
    small_change = dict(base, n=2)
    assert worth_shipping(diff_value(base, small_change), small_change)
    # A full rewrite's delta is as big as the value: not worth it.
    rewrite = {"big": "y" * 500, "n": 2}
    assert not worth_shipping(diff_value(base, rewrite), rewrite, margin=64)


def test_apply_delta_rejects_malformed_and_mismatched():
    with pytest.raises(DeltaError):
        apply_delta({"a": 1}, {"??": 1})
    with pytest.raises(DeltaError):
        apply_delta({"a": 1}, [1, 2])
    # A dict edit referencing a key the base does not hold.
    with pytest.raises(DeltaError):
        apply_delta({"a": 1}, {"d": [["a", "ghost"], {}]})
    # A list-append delta against a non-list base.
    with pytest.raises(DeltaError):
        apply_delta({"a": 1}, {"l": [1]})


# -- the import direction (server answers warm re-imports with a delta) ------


#: Incompressible, so that what these tests measure is the delta and
#: not the transport's compression of a frame this size (a run of one
#: letter deflates to nothing, delta or no delta).
_PAD = random.Random(400).randbytes(400)


def _delta_bed():
    """A bed whose note carries a large constant field next to the
    small mutable one, so a structural delta has something to skip."""
    bed = build_testbed(link_spec=ETHERNET_10M, delta_shipping=True)
    note = make_note(text="v1")
    note.data = {"pad": _PAD, "text": "v1"}
    bed.server.put_object(note)
    return bed, note


def _counter_total(bed, name: str) -> int:
    metric = bed.obs.registry.get(name)
    if metric is None:
        return 0
    return int(sum(child.value for __, child in metric.children()))


def test_warm_reimport_ships_a_delta():
    bed, note = _delta_bed()
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    cold_bytes = bed.link.bytes_carried

    # The object changes server-side; the client refreshes.
    current = bed.server.get_object(str(note.urn))
    changed = dict(current.data)
    changed["text"] = "v2"
    new_wire = current.to_wire()
    new_wire["data"] = changed
    new_version = bed.server.store.put(str(note.urn), new_wire)
    bed.server._remember(str(note.urn), new_version, changed)

    bed.access.import_(note.urn, session, refresh=True)
    bed.sim.run()
    warm_bytes = bed.link.bytes_carried - cold_bytes

    assert warm_bytes < cold_bytes / 2
    assert _counter_total(bed, "ship_delta_bytes_saved_total") > 0
    entry = bed.access.cache.peek(str(note.urn))
    assert entry.rdo.data["text"] == "v2"
    assert entry.rdo.version == new_version
    assert entry.base_version == new_version
    # The rebuilt base is exactly what the server holds now.
    assert marshal(entry.rdo.data) == marshal(changed)


def test_reimport_without_delta_shipping_sends_full_rdo():
    bed = build_testbed(link_spec=ETHERNET_10M, delta_shipping=False)
    note = make_note(text="v1")
    note.data = {"pad": _PAD, "text": "v1"}
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    cold = bed.link.bytes_carried
    bed.access.import_(note.urn, session, refresh=True)
    bed.sim.run()
    warm = bed.link.bytes_carried - cold
    # Same object both times: the refresh costs about as much as the
    # cold import (no delta negotiation happened).
    assert warm > cold / 2


def test_history_miss_falls_back_to_full_import():
    bed, note = _delta_bed()
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    # Evict the server's version history: the delta base is gone.
    bed.server._history.clear()
    promise = bed.access.import_(note.urn, session, refresh=True)
    bed.sim.run()
    assert promise.ready and not promise.failed
    entry = bed.access.cache.peek(str(note.urn))
    assert entry is not None and not entry.tentative


# -- the export direction (client ships a delta; server reconstructs) --------


def test_export_ships_delta_and_server_reconstructs():
    bed, note = _delta_bed()
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    cold = bed.link.bytes_carried

    result, __ = bed.access.invoke(note.urn, "set_text", "v2", session=session)
    bed.sim.run()
    export_bytes = bed.link.bytes_carried - cold

    assert export_bytes < cold / 2  # the 400-byte pad never re-crossed
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "v2"
    assert server_copy.data["pad"] == _PAD
    entry = bed.access.cache.peek(str(note.urn))
    assert not entry.tentative
    assert marshal(entry.rdo.data) == marshal(server_copy.data)


def test_need_full_resend_commits_under_same_request_id():
    bed, note = _delta_bed()
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()

    # Kill the server's history so the delta export cannot apply.
    bed.server._history.clear()
    bed.access.invoke(note.urn, "set_text", "v2", session=session)
    bed.sim.run()

    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "v2"
    entry = bed.access.cache.peek(str(note.urn))
    assert not entry.tentative
    assert bed.access.pending_count() == 0


def test_server_need_full_is_not_recorded_at_most_once():
    """The need-full miss must not poison the applied-reply cache: the
    full resend arrives under the SAME request id and must still apply."""
    bed, note = _delta_bed()
    urn = str(note.urn)
    body = {
        "urn": urn,
        "request_id": "client+1/42",
        "session": "s",
        "base_version": 99,  # no such history entry
        "delta": {"!": {"text": "new"}},
    }
    reply = bed.server._on_export(dict(body), ("client", 0))
    assert reply["status"] == "need-full"
    # Same id, full data this time: applies normally.
    full = {
        "urn": urn,
        "request_id": "client+1/42",
        "session": "s",
        "base_version": bed.server.store.version(urn),
        "data": {"text": "new"},
    }
    reply = bed.server._on_export(full, ("client", 0))
    assert reply["status"] == "committed"
