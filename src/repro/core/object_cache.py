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
from repro.net.message import MarshalError, marshal, marshalled_size, unmarshal
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
        "data_raw",
    )

    def __init__(self, rdo: RDO, status: CacheStatus, now: float) -> None:
        self.rdo = rdo
        self.status = status
        self.base_version = rdo.version
        #: ``base_raw``: marshalled data of the base version — the ground
        #: truth for delta shipping: a delta is computed against exactly
        #: the bytes the server agreed to at ``base_version``, never
        #: against the (possibly mutated) live ``rdo.data``.
        #: ``data_raw``: the live data's bytes as of its last encodable
        #: state — an export's snapshot, and what a refused write is
        #: rolled back to.
        self.base_raw = self.data_raw = marshal(rdo.data)
        self.last_used = now
        self.pinned = False
        #: Marshalled size of the cached object, exactly.  Kept as the
        #: sum of three parts (the codec is additive over a dict's
        #: entries): the bytes of everything but ``data`` and
        #: ``version``, fixed from here on; ``len(data_raw)``; and the
        #: version's, measured when the version changes.
        self.size = rdo.size_bytes
        self._head_size = self.size - len(self.data_raw) - marshalled_size(rdo.version)
        #: When this copy arrived from the server (freshness anchor).
        self.inserted_at = now

    @property
    def tentative(self) -> bool:
        return self.status is CacheStatus.TENTATIVE


class ObjectCache:
    """LRU-by-bytes cache of imported RDOs."""

    METRICS = (
        ("cache_hits_total", "counter", "lookup() found the object", "hits"),
        ("cache_misses_total", "counter", "lookup() missed", "misses"),
        ("cache_evictions_total", "counter",
         "Entries dropped by LRU pressure (churn under cache pressure)", "evictions"),
        ("cache_bytes", "gauge", "Bytes currently cached", "used_bytes"),
        ("cache_entries", "gauge", "Objects currently cached", "__len__"),
    )

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
        #: Counts of :attr:`METRICS`; ``evictions`` is LRU churn.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: The sum of every entry's ``size``, kept as sizes change.
        self.used_bytes = 0
        self.obs.registry.expose(self, {"owner": owner})

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
            self.misses += 1
            return None
        entry.last_used = self._clock()
        self.hits += 1
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

    # -- updates ----------------------------------------------------------

    def insert(self, rdo: RDO, status: CacheStatus = CacheStatus.COMMITTED) -> list[str]:
        """Cache an imported object; returns URNs evicted to make room."""
        entry = CacheEntry(rdo, status, self._clock())
        replaced = self._entries.get(str(rdo.urn))
        self._entries[str(rdo.urn)] = entry
        self.used_bytes += entry.size - (replaced.size if replaced is not None else 0)
        return self._evict_to_fit()

    def mark_tentative(self, urn: str) -> None:
        """A local invoke changed the data: the copy is tentative, and
        its data is encoded (the rest of the object is not).  Data the
        codec refuses raises :class:`MarshalError` here, out of the
        invoke, and is rolled back to its last encodable state; the
        status and the size stay as they were."""
        entry = self._require(urn)
        try:
            raw = marshal(entry.rdo.data)
        except MarshalError:
            entry.rdo.data = unmarshal(entry.data_raw)
            raise
        entry.status = CacheStatus.TENTATIVE
        grown = len(raw) - len(entry.data_raw)
        entry.size += grown
        self.used_bytes += grown
        entry.data_raw = raw

    def commit(self, urn: str, new_version: int, data: Optional[dict] = None) -> None:
        """The export was accepted: adopt the server's version (and
        possibly the server-merged data)."""
        entry = self._require(urn)
        if data is not None:
            entry.rdo.data = data
        entry.rdo.version = new_version
        entry.base_version = new_version
        entry.base_raw = entry.data_raw = marshal(entry.rdo.data)
        size = entry._head_size + len(entry.data_raw) + marshalled_size(new_version)
        self.used_bytes += size - entry.size
        entry.size = size
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
        size = entry._head_size + len(entry.data_raw) + marshalled_size(new_version)
        self.used_bytes += size - entry.size
        entry.size = size

    def pin(self, urn: str, pinned: bool = True) -> None:
        self._require(urn).pinned = pinned

    def invalidate(self, urn: str) -> bool:
        """Drop an entry regardless of status; returns whether present."""
        entry = self._entries.pop(urn, None)
        if entry is None:
            return False
        self.used_bytes -= entry.size
        return True

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
            self.used_bytes -= self._entries.pop(urn).size
            self.evictions += 1
            evicted.append(urn)
        return evicted

    def tentative_urns(self) -> list[str]:
        return [urn for urn, entry in self._entries.items() if entry.tentative]
