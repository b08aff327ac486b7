"""Versioned KV store tests."""

import pytest

from repro.storage.kvstore import KVStore


def test_put_get_roundtrip():
    store = KVStore()
    version = store.put("k", {"a": 1})
    assert version == 1
    assert store.get("k") == ({"a": 1}, 1)


def test_versions_increment_per_key():
    store = KVStore()
    assert store.put("k", "v1") == 1
    assert store.put("k", "v2") == 2
    assert store.put("other", "x") == 1


def test_get_missing_raises():
    store = KVStore()
    with pytest.raises(KeyError):
        store.get("absent")


def test_get_value_default():
    store = KVStore()
    assert store.get_value("absent") is None
    assert store.get_value("absent", 42) == 42


def test_version_of_missing_is_none():
    store = KVStore()
    assert store.version("absent") is None


def test_delete():
    store = KVStore()
    store.put("k", "v")
    assert store.delete("k")
    assert not store.delete("k")
    assert "k" not in store


def test_contains_len_keys():
    store = KVStore()
    store.put("a", 1)
    store.put("b", 2)
    assert "a" in store and "b" in store
    assert len(store) == 2
    assert sorted(store.keys()) == ["a", "b"]
