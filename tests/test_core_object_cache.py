"""Object cache tests: LRU-by-bytes, tentative protection, pinning."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN
from repro.core.object_cache import CacheError, CacheStatus, ObjectCache
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.message import MarshalError, marshal, marshalled_size
from repro.obs import Observatory


def make_rdo(n: int, payload: int = 100, version: int = 1) -> RDO:
    return RDO(URN("s", f"obj{n}"), "blob", {"body": "x" * payload}, version=version)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_insert_and_lookup():
    cache = ObjectCache()
    rdo = make_rdo(0)
    cache.insert(rdo)
    entry = cache.lookup(str(rdo.urn))
    assert entry is not None
    assert entry.rdo is rdo
    assert entry.status is CacheStatus.COMMITTED
    assert cache.hits == 1


def test_miss_counts():
    cache = ObjectCache()
    assert cache.lookup("urn:rover:s/none") is None
    assert cache.misses == 1


def test_peek_does_not_touch_counters():
    cache = ObjectCache()
    cache.insert(make_rdo(0))
    cache.peek("urn:rover:s/obj0")
    cache.peek("urn:rover:s/none")
    assert cache.hits == 0 and cache.misses == 0


def test_lru_eviction_by_bytes():
    clock = ManualClock()
    entry_size = make_rdo(0, payload=300).size_bytes
    cache = ObjectCache(capacity_bytes=3 * entry_size + 10, clock=clock)
    for n in range(3):
        cache.insert(make_rdo(n, payload=300))
    # Touch obj0 so obj1 is the least recently used.
    cache.lookup("urn:rover:s/obj0")
    evicted = cache.insert(make_rdo(3, payload=300))
    assert "urn:rover:s/obj1" in evicted
    assert "urn:rover:s/obj0" in cache


def test_tentative_entries_never_evicted():
    clock = ManualClock()
    cache = ObjectCache(capacity_bytes=500, clock=clock)
    cache.insert(make_rdo(0, payload=300))
    cache.mark_tentative("urn:rover:s/obj0")
    evicted = cache.insert(make_rdo(1, payload=300))
    assert "urn:rover:s/obj0" not in evicted
    assert "urn:rover:s/obj0" in cache
    # The cache may run over capacity rather than drop dirty state.
    assert cache.used_bytes > cache.capacity_bytes or len(evicted) > 0


def test_pinned_entries_never_evicted():
    clock = ManualClock()
    cache = ObjectCache(capacity_bytes=500, clock=clock)
    cache.insert(make_rdo(0, payload=300))
    cache.pin("urn:rover:s/obj0")
    cache.insert(make_rdo(1, payload=300))
    assert "urn:rover:s/obj0" in cache


def test_commit_clears_tentative_and_adopts_version():
    cache = ObjectCache()
    cache.insert(make_rdo(0, version=1))
    cache.mark_tentative("urn:rover:s/obj0")
    cache.commit("urn:rover:s/obj0", 5)
    entry = cache.peek("urn:rover:s/obj0")
    assert entry.status is CacheStatus.COMMITTED
    assert entry.rdo.version == 5
    assert entry.base_version == 5


def test_commit_with_server_merged_data():
    cache = ObjectCache()
    cache.insert(make_rdo(0))
    cache.commit("urn:rover:s/obj0", 2, data={"body": "merged"})
    assert cache.peek("urn:rover:s/obj0").rdo.data == {"body": "merged"}


def test_operations_on_missing_entry_raise():
    cache = ObjectCache()
    with pytest.raises(CacheError):
        cache.mark_tentative("urn:rover:s/none")
    with pytest.raises(CacheError):
        cache.commit("urn:rover:s/none", 1)
    with pytest.raises(CacheError):
        cache.pin("urn:rover:s/none")


def test_invalidate():
    cache = ObjectCache()
    cache.insert(make_rdo(0))
    assert cache.invalidate("urn:rover:s/obj0")
    assert not cache.invalidate("urn:rover:s/obj0")


def test_tentative_urns_listing():
    cache = ObjectCache()
    cache.insert(make_rdo(0))
    cache.insert(make_rdo(1))
    cache.mark_tentative("urn:rover:s/obj1")
    assert cache.tentative_urns() == ["urn:rover:s/obj1"]


def test_cache_counts_are_what_the_registry_reads():
    obs = Observatory()
    cache = ObjectCache(obs=obs, owner="c")
    cache.insert(make_rdo(0))
    cache.lookup("urn:rover:s/obj0")
    cache.lookup("urn:rover:s/none")
    assert (len(cache), cache.hits, cache.misses, cache.evictions) == (1, 1, 1, 0)
    assert cache.used_bytes > 0
    assert obs.registry.snapshot() == {
        "cache_hits_total{owner=c}": 1.0,
        "cache_misses_total{owner=c}": 1.0,
        "cache_evictions_total{owner=c}": 0.0,
        "cache_bytes{owner=c}": float(cache.used_bytes),
        "cache_entries{owner=c}": 1.0,
    }


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "touch", "dirty", "commit", "drop"]),
            st.integers(0, 7),
        ),
        max_size=60,
    )
)
def test_cache_invariants_hold(ops):
    """Property: after any op sequence — tentative entries are always
    present, eviction only happens over capacity, byte accounting is
    consistent."""
    clock = ManualClock()
    cache = ObjectCache(capacity_bytes=1200, clock=clock)
    dirty = set()
    for action, n in ops:
        urn = f"urn:rover:s/obj{n}"
        if action == "insert":
            cache.insert(make_rdo(n, payload=200))
            dirty.discard(urn)
        elif action == "touch":
            cache.lookup(urn)
        elif action == "dirty" and urn in cache:
            cache.mark_tentative(urn)
            dirty.add(urn)
        elif action == "commit" and urn in cache:
            cache.commit(urn, 99)
            dirty.discard(urn)
        elif action == "drop":
            cache.invalidate(urn)
            dirty.discard(urn)

        # Invariant: every dirty object is still cached.
        for dirty_urn in dirty:
            assert dirty_urn in cache
        # Invariant: byte accounting equals the sum over entries.
        assert cache.used_bytes == sum(e.size for e in cache)
        # Invariant: clean entries respect capacity (overflow possible
        # only from the protected tentative set).
        clean_bytes = sum(e.size for e in cache if not e.tentative and not e.pinned)
        if cache.used_bytes > cache.capacity_bytes:
            assert clean_bytes <= cache.capacity_bytes


_PUT = "def put(state, key, value):\n    state[key] = value\n    return 1\n"
_KEYS = st.sampled_from(["body", "flags", "n", "new"])
_STORABLE = st.one_of(
    st.text(max_size=150),
    st.integers(-(2**40), 2**40),
    st.lists(st.integers(0, 300), max_size=20),
    st.dictionaries(st.sampled_from(["read", "deleted"]), st.booleans()),
)
_WRITES = st.one_of(_STORABLE, st.just("\ud800"))  # a local write may store text the codec refuses
_VERSIONS = st.integers(0, 2**21)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 4), _VERSIONS),
            st.tuples(st.just("invoke"), st.integers(0, 4), _KEYS, _WRITES),
            st.tuples(st.just("commit"), st.integers(0, 4), _VERSIONS),
            st.tuples(st.just("resolved"), st.integers(0, 4), _VERSIONS, _STORABLE),
            st.tuples(st.just("dirty-commit"), st.integers(0, 4), _VERSIONS, st.booleans()),
            st.tuples(st.just("drop"), st.integers(0, 4)),
        ),
        max_size=40,
    )
)
def test_every_entry_size_is_its_marshalled_size(ops):
    """Property: whatever the cache was told — an insert, a mutating
    local invoke (the access manager's ``mark_tentative``), a commit
    with or without server-merged data, the dirty commit that rebases a
    copy still tentative — each entry's ``size`` is exactly its object's
    marshalled size when read, and ``used_bytes`` is their sum.  A write
    the codec refuses raises out of ``mark_tentative`` and is rolled
    back: the data is its last encodable state, and the size and the
    status are as they were."""
    interpreter = SafeInterpreter()
    cache = ObjectCache(capacity_bytes=2_000, clock=ManualClock())
    for op in ops:
        action, n = op[0], op[1]
        urn = f"urn:rover:s/obj{n}"
        if action == "insert":
            rdo = RDO(URN("s", f"obj{n}"), "blob", {"body": "x" * 40 * n}, _PUT,
                      RDOInterface([MethodSpec("put", mutates=True)]), version=op[2])
            cache.insert(rdo)
        elif urn not in cache:
            continue
        elif action == "invoke":
            entry = cache.peek(urn)
            entry.rdo.invoke(interpreter, "put", op[2], op[3])
            size, status, data_raw = entry.size, entry.status, entry.data_raw
            try:
                cache.mark_tentative(urn)
            except MarshalError:
                assert (entry.size, entry.status) == (size, status)
                assert marshal(entry.rdo.data) == data_raw
        elif action == "commit":
            cache.commit(urn, op[2])
        elif action == "resolved":
            cache.commit(urn, op[2], data={"merged": op[3]})
        elif action == "dirty-commit":
            snapshot = {"body": "round"} if op[3] else None
            cache.rebase(urn, op[2], snapshot)
        elif action == "drop":
            cache.invalidate(urn)
        for entry in cache:
            assert entry.size == marshalled_size(entry.rdo.to_wire())
        assert cache.used_bytes == sum(marshalled_size(e.rdo.to_wire()) for e in cache)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "tentative", "commit", "resolved", "rebase", "invalidate", "pin"]),
            st.integers(0, 5),
            st.integers(0, 300),
        ),
        max_size=60,
    )
)
def test_used_bytes_is_kept_as_the_sum_of_entry_sizes(ops):
    """Property: ``used_bytes`` is a running total, moved at each place
    an entry's size changes -- an insert (a re-insert replaces the old
    copy), ``mark_tentative``, a commit with or without merged data, a
    rebase, an invalidate, and the evictions an insert forces on a small
    cache -- and after any sequence it equals the sum over the entries."""
    cache = ObjectCache(capacity_bytes=900, clock=ManualClock())
    for action, n, grow in ops:
        urn = f"urn:rover:s/obj{n}"
        if action == "insert":
            cache.insert(make_rdo(n, payload=grow, version=n))
        elif urn not in cache:
            continue
        elif action == "tentative":
            cache.peek(urn).rdo.data["body"] = "y" * grow
            cache.mark_tentative(urn)
        elif action == "commit":
            cache.commit(urn, 2**grow)
        elif action == "resolved":
            cache.commit(urn, grow, data={"merged": "z" * grow})
        elif action == "rebase":
            cache.rebase(urn, 2**grow, {"body": "base"})
        elif action == "invalidate":
            cache.invalidate(urn)
        else:
            cache.pin(urn, grow % 2 == 0)
        assert cache.used_bytes == sum(entry.size for entry in cache)


def test_a_dirty_commit_rebases_and_stays_tentative():
    cache = ObjectCache()
    cache.insert(make_rdo(0, version=1))
    urn = "urn:rover:s/obj0"
    entry = cache.peek(urn)
    entry.rdo.data["body"] = "newer"
    cache.mark_tentative(urn)
    cache.rebase(urn, 200, {"body": "shipped"})
    assert entry.tentative
    assert entry.rdo.version == entry.base_version == 200
    assert entry.rdo.data == {"body": "newer"}
    assert entry.base_raw == marshal({"body": "shipped"})
    assert entry.size == make_rdo(0, payload=0, version=200).size_bytes + len("newer")
