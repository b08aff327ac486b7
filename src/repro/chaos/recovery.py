"""Client crash-and-recover: rebuild the stack from the stable log.

Section 5.2 of the paper makes the operation log the client's sole
crash survivor: "the operation log is the only data structure that
must survive a crash".  This module models exactly that.  Crashing a
client:

* abandons the scheduler's queue and in-flight window (volatile),
* cancels the transport's pending call timers (volatile),
* crashes the stable log backend — appends not yet flushed die
  (the :class:`~repro.storage.stable_log.FileLogBackend` truncates
  back to the last fsync'd offset),
* drops the object cache, promises, and notification subscriptions
  (all volatile), and stops listening to the host's links,

then rebuilds an :class:`~repro.core.access_manager.AccessManager`
over the *same* backend with a bumped incarnation number, and replays
every logged-but-unacknowledged QRPC through ``recover()``.  Replay is
idempotent end to end: the server's version stamps plus type-specific
resolvers absorb re-applied updates, and the incarnation qualifier in
fresh request ids prevents collisions with the dead process's ids.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.access_manager import AccessManager


def crash_and_recover_client(access: "AccessManager") -> tuple["AccessManager", list[str]]:
    """Kill the client process ``access`` models and rebuild it.

    Returns ``(new_access, replayed_request_ids)``.  The old manager
    is dead after this call: its scheduled callbacks are suppressed
    and its scheduler/transport state is gone.
    """
    from repro.core.server import INVALIDATION_PORT
    from repro.testbed import wire_access_manager

    scheduler = access.scheduler
    host = access.host

    # -- the crash: volatile state dies -------------------------------
    scheduler.abandon_all()
    scheduler.transport.crash()
    access.log.crash()  # unflushed appends and the open flush window are lost
    host.unbind(INVALIDATION_PORT)
    for link in host.links:
        link.forget_listener(access._on_link_transition)  # nor does a link-up reach it
    access._crashed = True  # scheduled _submit calls must not fire

    # -- the restart: rebuild from the stable log ---------------------
    reborn = wire_access_manager(
        scheduler,
        dict(access.servers),
        access.obs,
        stable_backend=access.log.stable.backend,
        flush_model=access.log.stable.flush_model,
        auth_token=access.auth_token,
        group_commit=access.group_commit,
        incarnation=access.incarnation + 1,
        compaction=access.compaction,
        delta_shipping=access.delta_shipping,
    )
    replayed = reborn.recover()
    return reborn, replayed
