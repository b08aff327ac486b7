"""Operation-log compaction — fold queued QRPCs before they hit the wire.

Rover's log drains every queued operation verbatim on reconnection, so
a user who edits an object three times while disconnected pays for
three round trips over a 14.4 modem when one would do.  This module is
the pluggable folding engine: callers register *pair rules* (examined
over adjacent operations on the same object) on a :class:`Compactor`,
and :class:`QueueCompaction` — a stage on the
:class:`~repro.core.access_manager.AccessManager`'s seam — asks it for a
:class:`CompactionPlan` and carries the plan out: over the backlog of
*one object* when a request for it is queued (queuing an operation costs
the same however long the queue), over the whole log once when a link
comes back up, right before the drain.

A rule has one outcome: the earlier request of a pair folds into the
later one.  It returns the args the later survives with (``later.args``
to keep them), or ``None``.  The earlier is dropped, and its observers
follow the survivor's outcome.  What folds today: an export round owed
behind one that never left the queue (the stage's own follow-up fold,
no rule) and a client's undelivered telemetry reports
(:class:`~repro.obs.fleet.report.TelemetryFold`).

Soundness rules the engine enforces structurally:

* Only *eligible* operations are touched — the caller's predicate
  admits exactly the requests that have never been dispatched to the
  server (scheduler state ``queued``, created this incarnation).  A
  request the server may have seen is a **barrier**: nothing pairs
  across it, so reordering semantics relative to the server are
  preserved.
* Pairing is adjacent-only within the per-URN subsequence.  Rules never
  see operations on different objects and never skip over an
  intervening operation on the same object.
* The stable log is rewritten (ack markers + fresh records) so crash
  recovery replays exactly the compacted sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.core.qrpc import Operation, QRPCRequest
from repro.lint.contracts import replay_pure
from repro.net.message import same_encoding


class PairRule:
    """Examines an adjacent per-URN pair; returns the survivor's args or ``None``."""

    @replay_pure
    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[dict]:
        raise NotImplementedError


# -- the plan -------------------------------------------------------------------


@dataclass
class CompactionPlan:
    """What the engine decided; :class:`QueueCompaction` carries it out.

    ``drops`` maps each folded request to the id of the surviving
    request whose outcome its observers should follow.  ``rewrites``
    carries new args for surviving requests.
    """

    drops: list[tuple[QRPCRequest, str]] = field(default_factory=list)
    rewrites: dict[str, dict] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.drops  # every rewrite comes with a drop


class Compactor:
    """Holds the registered rules and plans compactions over a pending list."""

    def __init__(self) -> None:
        self.pair_rules: list[PairRule] = []

    def add_pair_rule(self, rule: PairRule) -> "Compactor":
        self.pair_rules.append(rule)
        return self

    def plan(
        self,
        requests: list[QRPCRequest],
        eligible: Callable[[QRPCRequest], bool],
    ) -> CompactionPlan:
        """Plan a compaction of ``requests`` (in logical queue order).

        ``eligible`` admits requests that are safe to touch; anything it
        rejects acts as a barrier for its URN.
        """
        plan = CompactionPlan()
        # Per-URN most recent *surviving eligible* request, with its
        # effective (possibly rewritten) args.
        last: dict[str, tuple[QRPCRequest, dict]] = {}
        for request in requests:
            urn = request.urn
            if not eligible(request):
                last.pop(urn, None)
                continue
            args = None
            prev = last.get(urn)
            if prev is not None:
                prev_request, prev_args = prev
                earlier = (
                    prev_request
                    if prev_args is prev_request.args
                    else replace(prev_request, args=prev_args)
                )
                for rule in self.pair_rules:
                    args = rule.match(earlier, request)
                    if args is not None:
                        break
            if args is None:
                last[urn] = (request, request.args)
                continue
            # The earlier one leaves, with any rewrite it had.
            plan.rewrites.pop(prev_request.request_id, None)
            plan.drops.append((prev_request, request.request_id))
            if args is not request.args:
                plan.rewrites[request.request_id] = args
            last[urn] = (request, args)
        return plan


# -- the stage that edits the queue ---------------------------------------------


class QueueCompaction:
    """Compaction, as a stage on the access manager's seam.

    The core tells it what happened to one request — it was queued, its
    export round is owed a follow-up, it was answered — and that a link
    is up; the stage keeps who absorbed whom, plans with the one
    :class:`Compactor` (rules added to it later are seen) and edits the
    queue through the manager's services.  Installed by the manager's
    constructor when it is given a compactor, else by its
    ``add_compaction_rule`` on first use.
    """

    def __init__(self, manager: Any, compactor: Compactor) -> None:
        self.manager = manager
        self.compactor = compactor
        #: surviving request_id -> requests it absorbed; their
        #: observers are resolved with the survivor's outcome.
        self._absorbed: dict[str, list[QRPCRequest]] = {}
        manager.on_queued.append(self.queued)
        manager.on_applied.append(self.applied)
        # Once per reconnection, between link-up and the first dispatch,
        # the whole log is planned: it is what catches a rule registered
        # after operations were queued.
        manager.scheduler.add_drain_hook(self.compact)

    def queued(self, urn: str, request: Optional[QRPCRequest]) -> None:
        """``urn``'s backlog changed: plan that bucket, nobody else's."""
        if request is None:
            self._fold_followup(urn)
        self.compact(urn)

    def compact(self, urn: Optional[str] = None) -> int:
        """Fold the never-dispatched requests for ``urn`` (None: for
        every object), planning again until a plan finds nothing — a
        fold can make its survivor the neighbour of a request the pass
        had already walked past.  Returns the number of operations
        removed.  The simulator is single-threaded and this runs
        atomically: each plan is carried out on exactly the queue it saw."""
        removed = 0
        while True:
            requests = self.manager.backlog(urn)
            if len(requests) < 2:
                return removed  # it takes two to pair
            plan = self.compactor.plan(requests, self._compactable)
            if plan.is_empty:
                return removed
            removed += self._carry_out(plan)

    def _compactable(self, request: QRPCRequest) -> bool:
        """Safe to fold: provably never dispatched to the server."""
        if request.recovered:
            # A previous incarnation may have sent it; barrier.
            return False
        message = self.manager.attempt(request)
        if message is None:
            return True
        # A message backing off between attempts is "queued" too, but
        # its earlier copy may have been applied with only the reply
        # lost; folding it under a neighbour would apply it twice.
        return message.state == "queued" and message.attempts == 0

    def _carry_out(self, plan: CompactionPlan) -> int:
        manager = self.manager
        drop_ids: list[str] = []
        for request, absorber_id in plan.drops:
            message = manager.end_attempt(request)
            if message is not None:
                manager.scheduler.cancel(message)
            drop_ids.append(request.request_id)
            self._absorbed.setdefault(absorber_id, []).append(request)
        rewrites: dict[str, QRPCRequest] = {}
        for request_id, args in plan.rewrites.items():
            request = manager.log.get(request_id)
            if request is not None:
                manager.reword(request, args)
                rewrites[request_id] = request
        manager.log.compact(drop_ids, rewrites)
        return len(drop_ids)

    def _fold_followup(self, urn: str) -> None:
        """Overwrite-absorbs-overwrite for exports: the per-URN export
        pipeline never queues two rounds at once, so a follow-up owed
        behind a round that never left the queue is folded by giving
        that round the current snapshot (a rewrite, not a pair)."""
        manager = self.manager
        for request in manager.backlog(urn):
            if request.operation is not Operation.EXPORT or not self._compactable(request):
                continue
            args = manager.fold_followup(request)
            # Mutated back to the snapshot: nothing to rewrite.
            if args is not None and not same_encoding(args, request.args):
                manager.reword(request, args)
                manager.log.compact([], {request.request_id: request})

    def applied(self, request: QRPCRequest, reply: dict, failed: Optional[str]) -> None:
        """The absorbed operation's effect is contained in the
        survivor's, so its observers see the survivor's outcome, after
        the survivor's own.  Recurses through the manager: an absorbed
        request may itself have absorbed earlier ones."""
        for absorbed in self._absorbed.pop(request.request_id, ()):
            if failed is None:
                self.manager.settle(absorbed, reply)
            else:
                self.manager.reject(absorbed, failed)
