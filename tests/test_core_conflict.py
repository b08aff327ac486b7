"""Conflict resolver tests, including merge-law properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import (
    AppendMerge,
    ConflictReport,
    FieldwiseMerge,
    KeepServer,
    LastWriterWins,
    Resolution,
    ResolverRegistry,
)


class TestBasicResolvers:
    def test_keep_server_never_resolves(self):
        result = KeepServer().resolve({"a": 1}, {"a": 2}, {"a": 3})
        assert not result.resolved

    def test_last_writer_wins_takes_client(self):
        result = LastWriterWins().resolve({"a": 1}, {"a": 2}, {"a": 3})
        assert result.resolved
        assert result.merged_value == {"a": 3}


class TestAppendMerge:
    def test_disjoint_appends_merge(self):
        base = [1, 2]
        server = [1, 2, 3]
        client = [1, 2, 4]
        result = AppendMerge().resolve(base, server, client)
        assert result.resolved
        assert result.merged_value == [1, 2, 3, 4]

    def test_duplicate_appends_deduplicated(self):
        base = [1]
        server = [1, 2]
        client = [1, 2]
        result = AppendMerge().resolve(base, server, client)
        assert result.merged_value == [1, 2]

    def test_dict_items_supported(self):
        base = []
        server = [{"id": "a"}]
        client = [{"id": "b"}]
        result = AppendMerge().resolve(base, server, client)
        assert result.merged_value == [{"id": "a"}, {"id": "b"}]

    def test_history_rewrite_detected(self):
        result = AppendMerge().resolve([1, 2], [9, 2, 3], [1, 2, 4])
        assert not result.resolved

    def test_non_list_rejected(self):
        assert not AppendMerge().resolve({"a": 1}, [1], [2]).resolved


@settings(max_examples=100)
@given(
    base=st.lists(st.integers(0, 5), max_size=5),
    server_new=st.lists(st.integers(6, 10), max_size=4),
    client_new=st.lists(st.integers(11, 15), max_size=4),
)
def test_append_merge_properties(base, server_new, client_new):
    """Merging true appends always succeeds, preserves the base prefix,
    keeps server items before client items, and loses nothing."""
    server = base + server_new
    client = base + client_new
    result = AppendMerge().resolve(base, server, client)
    assert result.resolved
    merged = result.merged_value
    assert merged[: len(base)] == base
    assert merged[: len(server)] == server
    for item in set(client_new):
        assert item in merged


class TestFieldwiseMerge:
    def test_disjoint_field_changes_merge(self):
        base = {"a": 1, "b": 2}
        server = {"a": 10, "b": 2}
        client = {"a": 1, "b": 20}
        result = FieldwiseMerge().resolve(base, server, client)
        assert result.resolved
        assert result.merged_value == {"a": 10, "b": 20}

    def test_identical_changes_merge(self):
        base = {"a": 1}
        result = FieldwiseMerge().resolve(base, {"a": 2}, {"a": 2})
        assert result.resolved
        assert result.merged_value == {"a": 2}

    def test_field_addition_both_sides(self):
        base = {}
        result = FieldwiseMerge().resolve(base, {"s": 1}, {"c": 2})
        assert result.resolved
        assert result.merged_value == {"s": 1, "c": 2}

    def test_field_deletion_by_client(self):
        base = {"a": 1, "b": 2}
        server = {"a": 1, "b": 2}
        client = {"a": 1}
        result = FieldwiseMerge().resolve(base, server, client)
        assert result.resolved
        assert result.merged_value == {"a": 1}

    def test_conflicting_change_fails_and_names_field(self):
        base = {"a": 1}
        result = FieldwiseMerge().resolve(base, {"a": 2}, {"a": 3})
        assert not result.resolved
        assert "a" in result.detail

    def test_fallback_arbitrates_clashes(self):
        base = {"a": 1}
        merge = FieldwiseMerge(fallback=LastWriterWins())
        result = merge.resolve(base, {"a": 2}, {"a": 3})
        assert result.resolved
        assert result.merged_value == {"a": 3}

    def test_non_dict_rejected(self):
        assert not FieldwiseMerge().resolve([1], {"a": 1}, {"a": 2}).resolved


@settings(max_examples=100)
@given(
    base=st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 3), max_size=6),
    server_changes=st.dictionaries(st.sampled_from("abc"), st.integers(10, 13), max_size=3),
    client_changes=st.dictionaries(st.sampled_from("def"), st.integers(20, 23), max_size=3),
)
def test_fieldwise_disjoint_always_merges(base, server_changes, client_changes):
    """Changes to disjoint key sets always merge, and both sides' edits
    are present in the result."""
    server = dict(base)
    server.update(server_changes)
    client = dict(base)
    client.update(client_changes)
    result = FieldwiseMerge().resolve(base, server, client)
    assert result.resolved
    for key, value in server_changes.items():
        assert result.merged_value[key] == value
    for key, value in client_changes.items():
        assert result.merged_value[key] == value


class TestRegistry:
    def test_lookup_by_type(self):
        registry = ResolverRegistry()
        merge = AppendMerge()
        registry.register("mail-folder", merge)
        assert registry.for_type("mail-folder") is merge

    def test_default_is_keep_server(self):
        registry = ResolverRegistry()
        assert isinstance(registry.for_type("unknown"), KeepServer)

    def test_custom_default(self):
        registry = ResolverRegistry(default=LastWriterWins())
        assert isinstance(registry.for_type("unknown"), LastWriterWins)


def test_conflict_report_wire_roundtrip():
    report = ConflictReport(
        urn="urn:rover:s/x",
        type_name="calendar",
        base_version=2,
        server_version=5,
        detail="double booking",
        server_value={"events": {}},
    )
    clone = ConflictReport.from_wire(report.to_wire())
    assert clone == report


class TestMergeDeterminism:
    """Regression: hash-order iteration — the fieldwise merge used to
    iterate an unsorted ``set(base) | set(server) | set(client)``, so the merged
    dict's insertion order (and therefore its marshalled bytes and
    clash-report ordering) depended on per-process string hashing."""

    def test_fieldwise_merge_bytes_identical_across_key_orderings(self):
        from repro.net.message import marshal

        keys = [f"field_{i}" for i in range(12)]
        # Two interpreter runs' worth of key orderings: the same logical
        # dicts built in opposite insertion orders (what differing
        # per-process set iteration would have produced).
        def build(ordering):
            base = {k: 0 for k in ordering}
            server = dict(base, field_0=1, field_3=3)
            client = dict(base, field_5=5, field_9=9)
            return base, server, client

        first = FieldwiseMerge().resolve(*build(keys))
        second = FieldwiseMerge().resolve(*build(list(reversed(keys))))
        assert first.resolved and second.resolved
        assert marshal(first.merged_value) == marshal(second.merged_value)

    def test_merged_keys_come_out_sorted(self):
        base = {"b": 1}
        server = {"b": 1, "z": 2, "a": 3}
        client = {"b": 1, "m": 4}
        result = FieldwiseMerge().resolve(base, server, client)
        assert list(result.merged_value) == sorted(result.merged_value)

    def test_clash_report_ordering_stable(self):
        base = {"k1": 0, "k2": 0}
        server = {"k1": 1, "k2": 1}
        client = {"k1": 2, "k2": 2}
        a = FieldwiseMerge().resolve(base, server, client)
        b = FieldwiseMerge().resolve(
            dict(reversed(base.items())),
            dict(reversed(server.items())),
            dict(reversed(client.items())),
        )
        assert not a.resolved and not b.resolved
        assert a.detail == b.detail
