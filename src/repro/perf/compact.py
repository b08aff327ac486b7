"""Operation-log compaction — fold queued QRPCs before they hit the wire.

Rover's log drains every queued operation verbatim on reconnection, so
a user who edits an object three times while disconnected pays for
three round trips over a 14.4 modem when one would do.
:class:`QueueCompaction`, a stage on the
:class:`~repro.core.access_manager.AccessManager`'s seam, folds the
backlog of *one object* when a request for it is queued (queuing an
operation costs the same however long the queue).  It performs two
folds:

* an export round owed behind one that never left the queue: that round
  carries the current snapshot instead, and the follow-up is never sent;
* a client's undelivered telemetry reports: each run of them folds into
  the run's last report (:func:`~repro.obs.fleet.report.fold_reports`:
  deltas add, sketches merge).

A request folded into a later one leaves the queue, and its observers
follow the survivor's outcome.

Soundness:

* Only requests provably never dispatched to the server are touched
  (created this incarnation; not yet handed to the scheduler, or held
  there unsent with no attempt behind them).  Any other request is a
  **barrier**: nothing folds across it.  So is a re-shipped report
  (flagged ``r``): it keeps a sequence number the aggregator may
  already hold.
* Nothing is left to fold at link-up.  The scheduler is FIFO within a
  priority, so a barrier report is dispatched only after every older
  report: by the time it is answered and leaves the queue, the report
  before it has been dispatched too, and no new pair forms.
* The stable log is rewritten (ack markers + fresh records) so crash
  recovery replays exactly the compacted sequence.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.qrpc import Operation, QRPCRequest
from repro.net.message import same_encoding


class QueueCompaction:
    """Compaction, as a stage on the access manager's seam.

    The core tells it what happened to one request — it was queued, its
    export round is owed a follow-up, it was answered; the stage folds
    that object's backlog, keeps who absorbed whom, and edits the queue
    through the manager's services.  Installed by the manager's
    constructor when it is built with ``compaction=True``.
    """

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        #: surviving request_id -> requests it absorbed; their
        #: observers are resolved with the survivor's outcome.
        self._absorbed: dict[str, list[QRPCRequest]] = {}
        manager.on_queued.append(self.queued)
        manager.on_applied.append(self.applied)

    def queued(self, urn: str, request: Optional[QRPCRequest]) -> None:
        """``urn``'s backlog changed: fold that bucket, nobody else's."""
        if request is None:
            self._fold_followup(urn)
        elif request.operation is Operation.TELEMETRY:
            self._fold_reports(urn)

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

    def _fold_reports(self, urn: str) -> None:
        """Fold each run of never-dispatched telemetry reports for
        ``urn`` into the run's last report, in one pass: each member is
        absorbed by the next, and the last carries the fold of them all.
        A barrier ends a run.  The simulator is single-threaded and this
        runs atomically: the fold is carried out on the queue it saw."""
        # Imported at the first report: a client that sends none does
        # not load the fleet package.
        from repro.obs.fleet.report import fold_reports

        manager = self.manager
        dropped: list[QRPCRequest] = []
        #: each run's survivor so far -> (it, the run's folded args)
        survivors: dict[str, tuple[QRPCRequest, dict]] = {}
        last: Optional[QRPCRequest] = None  # the run's newest report
        args: dict = {}  # the run, folded so far
        for request in manager.backlog(urn):
            if "r" in request.args or not self._compactable(request):
                last = None
                continue
            if last is None:
                args = request.args
            else:
                args = fold_reports(args, request.args)
                survivors.pop(last.request_id, None)
                survivors[request.request_id] = (request, args)
                self._absorbed.setdefault(request.request_id, []).append(last)
                dropped.append(last)
            last = request
        if not dropped:
            return
        for request in dropped:
            message = manager.end_attempt(request)
            if message is not None:
                manager.scheduler.cancel(message)
        for survivor, folded in survivors.values():
            manager.reword(survivor, folded)
        manager.log.compact(
            [request.request_id for request in dropped],
            {survivor.request_id: survivor for survivor, __ in survivors.values()},
        )

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
