"""Hoarding: filling the cache with useful information before disconnection.

Section 4 of the paper: "An essential component to accomplishing useful
work while disconnected is having the necessary information locally
available.  This goal is usually accomplished during periods of network
connectivity by filling the cache with useful information...  The
usability of Rover will be critically dependent upon simple user
interface metaphors for indicating collections of objects to be
prefetched."

The metaphor here is a :class:`HoardProfile` — a list of URN prefixes
with priorities (think "my inbox", "this week's calendar", "the
intranet front page and everything it links to").  A :class:`Hoarder`
*walks* the profile whenever connectivity allows: it asks the server
for the names under each prefix, queues background imports for every
object not yet cached (optionally pinning them against eviction), and
can re-walk periodically to keep the hoard fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.access_manager import AccessManager
from repro.core.promise import Promise
from repro.net.scheduler import Priority


@dataclass(frozen=True)
class HoardEntry:
    """One collection the user wants available offline."""

    prefix: str
    priority: Priority = Priority.BACKGROUND
    pin: bool = False


@dataclass
class HoardProfile:
    """The user's hoard: an ordered list of collections."""

    entries: list[HoardEntry] = field(default_factory=list)

    def add(self, prefix: str, priority: Priority = Priority.BACKGROUND,
            pin: bool = False) -> "HoardProfile":
        self.entries.append(HoardEntry(prefix, priority, pin))
        return self


class Hoarder:
    """Walks a hoard profile against one authority's server."""

    def __init__(
        self,
        access: AccessManager,
        authority: str,
        profile: HoardProfile,
        refresh_interval_s: Optional[float] = None,
    ) -> None:
        self.access = access
        self.authority = authority
        self.profile = profile
        self.refresh_interval_s = refresh_interval_s
        self.walks = 0
        self.objects_queued = 0
        self._timer = None

    def walk(self) -> Promise:
        """Queue one pass over the profile.

        The returned promise resolves with the number of imports
        queued once every prefix listing has been answered (possibly
        after a reconnection); the imports themselves continue in the
        background.
        """
        self.walks += 1
        done = Promise(label=f"hoard-walk {self.authority}")
        outstanding = {"count": len(self.profile.entries), "queued": 0}
        if not self.profile.entries:
            done.resolve(0)
            return done

        for entry in self.profile.entries:
            listing = self.access.list_objects(
                self.authority, entry.prefix, priority=entry.priority
            )

            def on_listing(urns: list, entry: HoardEntry = entry) -> None:
                queued = self._queue_imports(urns, entry)
                outstanding["queued"] += queued
                outstanding["count"] -= 1
                if outstanding["count"] == 0:
                    done.resolve(outstanding["queued"])

            def on_error(reason: str) -> None:
                outstanding["count"] -= 1
                if outstanding["count"] == 0:
                    done.resolve(outstanding["queued"])

            listing.then(on_listing)
            listing.on_failure(on_error)
        return done

    def _queue_imports(self, urns: list, entry: HoardEntry) -> int:
        queued = 0
        for urn in urns:
            cached = self.access.cache.peek(urn)
            if cached is not None:
                if entry.pin and not cached.pinned:
                    self.access.cache.pin(urn)
                continue
            promise = self.access.import_(urn, priority=entry.priority)
            if entry.pin:
                promise.then(
                    lambda rdo, u=urn: self._pin_if_cached(u)
                )
            queued += 1
            self.objects_queued += 1
        return queued

    def _pin_if_cached(self, urn: str) -> None:
        if self.access.cache.peek(urn) is not None:
            self.access.cache.pin(urn)

    # -- periodic refresh ----------------------------------------------------

    def start(self) -> None:
        """Walk now and re-walk every ``refresh_interval_s``."""
        self.walk()
        if self.refresh_interval_s is not None:
            self._schedule_next()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        self._timer = self.access.sim.schedule(
            self.refresh_interval_s, self._tick
        )

    def _tick(self) -> None:
        self.walk()
        self._schedule_next()
