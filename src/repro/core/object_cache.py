"""Client-side object cache.

"A mobile host imports objects into its local cache and exports
updated objects back to their home servers."  Cached copies answer
invocations locally (the big latency win of RDOs); locally-mutated
copies are *tentative* until their export commits at the home server.

Eviction is LRU by bytes with one hard rule: a tentative (dirty) entry
is never evicted — it holds updates that exist nowhere else.  Pinned
entries (the application said "keep this for disconnection") are also
protected.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, Optional

from repro.core.rdo import RDO
from repro.net.message import marshal, marshalled_size
from repro.obs import Observatory


class CacheStatus(Enum):
    COMMITTED = "committed"  # matches some server version
    TENTATIVE = "tentative"  # locally updated; export pending


class CacheError(Exception):
    """Cache misuse (e.g. committing an object that is not cached)."""


class CacheEntry:
    """One cached object plus its replication status."""

    __slots__ = (
        "rdo",
        "status",
        "base_version",
        "base_raw",
        "last_used",
        "pinned",
        "size",
        "inserted_at",
        "_head_size",
        "_data_size",
    )

    def __init__(self, rdo: RDO, status: CacheStatus, now: float) -> None:
        self.rdo = rdo
        self.status = status
        self.base_version = rdo.version
        #: Marshalled data of the base version — the ground truth for
        #: delta shipping: a delta is computed against exactly the bytes
        #: the server agreed to at ``base_version``, never against the
        #: (possibly mutated) live ``rdo.data``.
        self.base_raw = marshal(rdo.data)
        self.last_used = now
        self.pinned = False
        #: Marshalled size of the cached object, exactly.  Kept as the
        #: sum of three parts (the codec is additive over a dict's
        #: entries): the bytes of everything but ``data`` and
        #: ``version``, fixed from here on; the data's, measured when a
        #: local invoke changes it and the base's length otherwise; and
        #: the version's, measured when the version changes.
        self.size = rdo.size_bytes
        self._data_size = len(self.base_raw)
        self._head_size = self.size - self._data_size - marshalled_size(rdo.version)
        #: When this copy arrived from the server (freshness anchor).
        self.inserted_at = now

    @property
    def tentative(self) -> bool:
        return self.status is CacheStatus.TENTATIVE


class ObjectCache:
    """LRU-by-bytes cache of imported RDOs."""

    def __init__(
        self,
        capacity_bytes: int = 8 * 1024 * 1024,
        clock: Optional[Callable[[], float]] = None,
        obs: Optional[Observatory] = None,
        owner: str = "cache",
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self._clock = clock or (lambda: 0.0)
        self._entries: dict[str, CacheEntry] = {}
        self.obs = obs if obs is not None else Observatory()
        registry = self.obs.registry
        label = {"owner": owner}
        self._m_hits = registry.counter(
            "cache_hits_total", "lookup() found the object", labelnames=("owner",)
        ).labels(**label)
        self._m_misses = registry.counter(
            "cache_misses_total", "lookup() missed", labelnames=("owner",)
        ).labels(**label)
        self._m_evictions = registry.counter(
            "cache_evictions_total",
            "Entries dropped by LRU pressure (churn under cache pressure)",
            labelnames=("owner",),
        ).labels(**label)
        registry.gauge(
            "cache_bytes", "Bytes currently cached", labelnames=("owner",)
        ).labels(**label).set_function(lambda: self.used_bytes)
        registry.gauge(
            "cache_entries", "Objects currently cached", labelnames=("owner",)
        ).labels(**label).set_function(lambda: len(self._entries))

    # -- counters (registry-backed; attribute names kept for callers) -------

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def evictions(self) -> int:
        return int(self._m_evictions.value)

    # -- lookups ----------------------------------------------------------
    #
    # Two deliberately asymmetric read paths:
    #
    # * ``lookup`` is the *application* path: it touches LRU recency and
    #   counts toward the hit/miss ratio, so it changes future eviction
    #   decisions.  Use it when serving a real access (``import_``).
    # * ``peek`` is the *bookkeeping* path: exports, invalidation
    #   checks, and stats must not distort recency or the measured hit
    #   ratio, so peek leaves both untouched.
    #
    # There is intentionally no dict-style ``get``: callers must choose
    # which of the two semantics they mean.

    def lookup(self, urn: str) -> Optional[CacheEntry]:
        """Fetch **and touch**: refreshes LRU recency, counts hit/miss."""
        entry = self._entries.get(urn)
        if entry is None:
            self._m_misses.inc()
            return None
        entry.last_used = self._clock()
        self._m_hits.inc()
        return entry

    def peek(self, urn: str) -> Optional[CacheEntry]:
        """Fetch **without side effects**: no LRU touch, no hit/miss
        accounting.  For toolkit bookkeeping, not application reads."""
        return self._entries.get(urn)

    def __contains__(self, urn: str) -> bool:
        return urn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(list(self._entries.values()))

    @property
    def used_bytes(self) -> int:
        return sum(entry.size for entry in self._entries.values())

    # -- updates ----------------------------------------------------------

    def insert(self, rdo: RDO, status: CacheStatus = CacheStatus.COMMITTED) -> list[str]:
        """Cache an imported object; returns URNs evicted to make room."""
        entry = CacheEntry(rdo, status, self._clock())
        self._entries[str(rdo.urn)] = entry
        return self._evict_to_fit()

    def mark_tentative(self, urn: str) -> None:
        """A local invoke changed the data: the copy is tentative, and
        its data is measured (the rest of the object is not).  Data the
        codec refuses raises :class:`MarshalError` here, out of the
        invoke, and leaves the size as it was."""
        entry = self._require(urn)
        entry.status = CacheStatus.TENTATIVE
        data_size = marshalled_size(entry.rdo.data)
        entry.size += data_size - entry._data_size
        entry._data_size = data_size

    def commit(self, urn: str, new_version: int, data: Optional[dict] = None) -> None:
        """The export was accepted: adopt the server's version (and
        possibly the server-merged data)."""
        entry = self._require(urn)
        if data is not None:
            entry.rdo.data = data
        entry.rdo.version = new_version
        entry.base_version = new_version
        entry.base_raw = marshal(entry.rdo.data)
        entry._data_size = len(entry.base_raw)
        entry.size = entry._head_size + entry._data_size + marshalled_size(new_version)
        entry.status = CacheStatus.COMMITTED

    def rebase(self, urn: str, new_version: int, base: Optional[dict]) -> None:
        """The export was accepted, but local updates made since stay
        tentative: adopt the server's version as the new base, and
        ``base`` (the data that round shipped, when given) as its
        bytes.  The live data is not the base, so its size stays as it
        is."""
        entry = self._require(urn)
        entry.rdo.version = new_version
        entry.base_version = new_version
        if base is not None:
            entry.base_raw = marshal(base)
        entry.size = entry._head_size + entry._data_size + marshalled_size(new_version)

    def pin(self, urn: str, pinned: bool = True) -> None:
        self._require(urn).pinned = pinned

    def invalidate(self, urn: str) -> bool:
        """Drop an entry regardless of status; returns whether present."""
        return self._entries.pop(urn, None) is not None

    def _require(self, urn: str) -> CacheEntry:
        entry = self._entries.get(urn)
        if entry is None:
            raise CacheError(f"{urn} is not cached")
        return entry

    def _evict_to_fit(self) -> list[str]:
        evicted: list[str] = []
        if self.used_bytes <= self.capacity_bytes:
            return evicted
        victims = sorted(
            (
                (entry.last_used, urn)
                for urn, entry in self._entries.items()
                if not entry.tentative and not entry.pinned
            ),
        )
        for __, urn in victims:
            if self.used_bytes <= self.capacity_bytes:
                break
            del self._entries[urn]
            self._m_evictions.inc()
            evicted.append(urn)
        return evicted

    def tentative_urns(self) -> list[str]:
        return [urn for urn, entry in self._entries.items() if entry.tentative]

    def stats(self) -> dict:
        """Point-in-time counters — a thin view over the metrics
        registry (exported as ``cache_*`` series with an ``owner``
        label).  ``evictions`` tracks LRU churn so cache-pressure
        experiments can see turnover, not just the end-state ratio."""
        return {
            "entries": len(self._entries),
            "bytes": self.used_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tentative": len(self.tentative_urns()),
        }
