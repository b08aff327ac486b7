"""Operation-log compaction — coalesce queued QRPCs before they hit the wire.

Rover's log drains every queued operation verbatim on reconnection, so a
user who marks a message read and then deletes it pays for two round
trips over a 14.4 modem when one (or zero) would do.  This module is the
application-pluggable coalescing engine: apps register *pair rules*
(examined over adjacent operations on the same object) on a
:class:`Compactor`, and :class:`QueueCompaction` — a stage on the
:class:`~repro.core.access_manager.AccessManager`'s seam — asks it for a
:class:`CompactionPlan` and carries the plan out: over the backlog of
*one object* when a request for it is queued (queuing an operation costs
the same however long the queue), over the whole log once when a link
comes back up, right before the drain.

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

Outcomes a pair rule may return for ``(earlier, later)``:

* :class:`Absorb` — the later operation subsumes the earlier
  (overwrite-absorbs-overwrite).  The earlier is dropped; its
  observers are resolved with the later's eventual outcome.
* :class:`Merge` — the two fold into one: the earlier is dropped and
  the later's args are rewritten (append-merge).
* :class:`CancelOut` — the pair annihilates (create+delete).  Both are
  dropped and their observers get the supplied synthetic replies,
  shaped like the server replies they would have seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.core.qrpc import Operation, QRPCRequest
from repro.lint.contracts import replay_pure
from repro.net.message import marshal


# -- pair-rule outcomes ---------------------------------------------------------


@dataclass(frozen=True)
class Absorb:
    """Drop the earlier request; its observers follow the later's outcome."""


@dataclass(frozen=True)
class Merge:
    """Drop the earlier request; the later survives with ``args``."""

    args: dict


@dataclass(frozen=True)
class CancelOut:
    """Drop both requests, resolving observers with synthetic replies."""

    earlier_reply: dict
    later_reply: dict


Outcome = Absorb | Merge | CancelOut


class PairRule:
    """Examines an adjacent per-URN pair; returns an outcome or ``None``."""

    @replay_pure
    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[Outcome]:
        raise NotImplementedError


# -- the plan -------------------------------------------------------------------


@dataclass
class CompactionPlan:
    """What the engine decided; :class:`QueueCompaction` carries it out.

    ``drops`` maps each absorbed/merged request to the id of the
    surviving request whose outcome its observers should follow.
    ``cancels`` pairs each annihilated request with the synthetic reply
    its observers receive.  ``rewrites`` carries new args for surviving
    requests (from :class:`Merge` outcomes).
    """

    drops: list[tuple[QRPCRequest, str]] = field(default_factory=list)
    cancels: list[tuple[QRPCRequest, dict]] = field(default_factory=list)
    rewrites: dict[str, dict] = field(default_factory=dict)

    @property
    def ops_removed(self) -> int:
        return len(self.drops) + len(self.cancels)

    @property
    def is_empty(self) -> bool:
        return not (self.drops or self.cancels or self.rewrites)


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
        # effective (possibly merged) args.
        last: dict[str, tuple[QRPCRequest, dict]] = {}
        for request in requests:
            urn = request.urn
            if not eligible(request):
                last.pop(urn, None)
                continue
            prev = last.get(urn)
            if prev is not None:
                prev_request, prev_args = prev
                earlier = (
                    prev_request
                    if prev_args is prev_request.args
                    else replace(prev_request, args=prev_args)
                )
                outcome = None
                for rule in self.pair_rules:
                    outcome = rule.match(earlier, request)
                    if outcome is not None:
                        break
                if outcome is not None:
                    # Whichever it is, the earlier one leaves.
                    plan.rewrites.pop(prev_request.request_id, None)
                    if isinstance(outcome, CancelOut):
                        plan.cancels.append((prev_request, outcome.earlier_reply))
                        plan.cancels.append((request, outcome.later_reply))
                        del last[urn]
                        continue
                    plan.drops.append((prev_request, request.request_id))
                    if isinstance(outcome, Merge):
                        plan.rewrites[request.request_id] = outcome.args
                        last[urn] = (request, outcome.args)
                        continue
            last[urn] = (request, request.args)
        return plan


# -- generic rules apps compose -------------------------------------------------


def _invoke_key(request: QRPCRequest, index: Optional[int]) -> Any:
    """Identity argument of an INVOKE at positional ``index`` (marker if absent)."""
    if index is None:
        return None
    args = request.args.get("args") or []
    return args[index] if len(args) > index else _MISSING


_MISSING = object()


class InvokeAbsorb(PairRule):
    """Later invoke of ``method`` makes an earlier one redundant.

    The earlier's method must be in ``absorbs`` (defaults to just
    ``method``), and when ``key`` is given the positional argument at
    that index — the entity identifier — must match on both sides.
    Covers both overwrite-absorbs-overwrite (``move_event`` twice for
    one event) and idempotent duplicates (``mark_read`` twice).
    """

    def __init__(
        self,
        method: str,
        absorbs: Optional[set[str]] = None,
        key: Optional[int] = None,
    ) -> None:
        self.method = method
        self.absorbs = set(absorbs) if absorbs is not None else {method}
        self.key = key

    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[Outcome]:
        if earlier.operation is not Operation.INVOKE or later.operation is not Operation.INVOKE:
            return None
        if later.args.get("method") != self.method:
            return None
        if earlier.args.get("method") not in self.absorbs:
            return None
        if self.key is not None:
            a = _invoke_key(earlier, self.key)
            b = _invoke_key(later, self.key)
            if a is _MISSING or b is _MISSING or a != b:
                return None
        return Absorb()


class AppendMerge(PairRule):
    """Adjacent appends to one object fold into a single batched invoke.

    ``method`` appends one item (first positional arg); ``batch_method``
    appends a list of items.  Either shape matches on either side, so a
    long run of appends folds left into one growing batch.
    """

    def __init__(self, method: str, batch_method: str) -> None:
        self.method = method
        self.batch_method = batch_method

    def _items(self, request: QRPCRequest) -> Optional[list]:
        name = request.args.get("method")
        args = request.args.get("args") or []
        if not args:
            return None
        if name == self.method:
            return [args[0]]
        if name == self.batch_method:
            value = args[0]
            return list(value) if isinstance(value, list) else None
        return None

    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[Outcome]:
        if earlier.operation is not Operation.INVOKE or later.operation is not Operation.INVOKE:
            return None
        head = self._items(earlier)
        tail = self._items(later)
        if head is None or tail is None:
            return None
        return Merge({"method": self.batch_method, "args": [head + tail]})


class CreateDeleteCancel(PairRule):
    """A queued create followed by its delete annihilates.

    ``key`` indexes the positional argument identifying the entity on
    both sides.  The synthetic replies mimic what the server would have
    said for each half (``result`` values via the factories; no
    ``version`` key, because no server write ever happens).
    """

    def __init__(
        self,
        create_method: str,
        delete_method: str,
        key: int = 0,
        create_result: Callable[[QRPCRequest], Any] = lambda request: True,
        delete_result: Callable[[QRPCRequest], Any] = lambda request: True,
    ) -> None:
        self.create_method = create_method
        self.delete_method = delete_method
        self.key = key
        self.create_result = create_result
        self.delete_result = delete_result

    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[Outcome]:
        if earlier.operation is not Operation.INVOKE or later.operation is not Operation.INVOKE:
            return None
        if earlier.args.get("method") != self.create_method:
            return None
        if later.args.get("method") != self.delete_method:
            return None
        a = _invoke_key(earlier, self.key)
        b = _invoke_key(later, self.key)
        if a is _MISSING or b is _MISSING or a != b:
            return None
        return CancelOut(
            {"status": "ok", "result": self.create_result(earlier), "compacted": True},
            {"status": "ok", "result": self.delete_result(later), "compacted": True},
        )


class DuplicateImportCoalesce(PairRule):
    """Two queued imports of the same object need only one fetch."""

    def match(self, earlier: QRPCRequest, later: QRPCRequest) -> Optional[Outcome]:
        if earlier.operation is Operation.IMPORT and later.operation is Operation.IMPORT:
            return Absorb()
        return None


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
        """Coalesce the never-dispatched requests for ``urn`` (None: for
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
        """Safe to coalesce: provably never dispatched to the server."""
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
            self._withdraw(request)
            drop_ids.append(request.request_id)
            self._absorbed.setdefault(absorber_id, []).append(request)
        for request, reply in plan.cancels:
            self._withdraw(request)
            drop_ids.append(request.request_id)
            # Deferred a tick so a request cancelled at queue time is
            # resolved only after its caller got the promise back.
            manager.sim.schedule(0.0, manager.settle, request, reply)
        rewrites: dict[str, QRPCRequest] = {}
        for request_id, args in plan.rewrites.items():
            request = manager.log.get(request_id)
            if request is not None:
                manager.reword(request, args)
                rewrites[request_id] = request
        manager.log.compact(drop_ids, rewrites)
        return len(drop_ids)

    def _withdraw(self, request: QRPCRequest) -> None:
        message = self.manager.end_attempt(request)
        if message is not None:
            self.manager.scheduler.cancel(message)

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
            if args is not None and marshal(args) != marshal(request.args):
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
