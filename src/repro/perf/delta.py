"""Structural deltas — ship what changed, not the whole object.

On a 14.4 modem, re-shipping a 2 KB folder because one flag flipped is
the dominant cost of weak connectivity.  This module computes a
marshallable *structural diff* between two values and applies it on the
far side:

* the client's :class:`~repro.core.object_cache.ObjectCache` keeps the
  marshalled bytes of the base version it holds;
* exports send ``{"delta", "base_version"}`` instead of ``{"data"}``
  when the delta is smaller, and the server reconstructs the full value
  from its version history;
* imports send ``have_version`` and the server answers with a delta
  against that base when it still has it.

Either side falls back to a full ship on a history miss (the server
replies ``need-full``; the client re-imports without a base) — the
delta protocol is an optimization, never a correctness dependency.

Delta wire format (a single-key dict, one-character tags):

* ``{"=": 1}`` — identical (byte-for-byte under :func:`marshal`);
* ``{"!": value}`` — replace wholesale;
* ``{"l": suffix}`` — list append: ``new == base + suffix``;
* ``{"d": [keys, edits]}`` — dict edit: ``keys`` is the *final* key
  order (marshalling is insertion-order-sensitive, so the order must
  travel), ``edits`` maps changed/new keys to sub-deltas; unchanged
  keys are copied from the base.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.qrpc import Operation, reply_field
from repro.net.message import (
    Premarshalled,
    changed_keys,
    marshalled_size,
    same_encoding,
    unmarshal,
)


class DeltaError(Exception):
    """A delta could not be applied to the given base."""


def diff_value(base: Any, new: Any) -> dict:
    """Delta that transforms ``base`` into ``new``.

    Always returns a valid delta; the worst case is a wholesale
    replace.  Callers compare :func:`delta_size` against the full value
    and only put the delta on the wire when it is actually smaller.
    "The same" is :func:`same_encoding`: plain ``==`` is too loose
    (``True == 1``) for a protocol whose coherence checks compare
    marshalled bytes.
    """
    if same_encoding(base, new):
        return {"=": 1}
    return _diff_changed(base, new)


def _diff_changed(base: Any, new: Any) -> dict:
    """:func:`diff_value` of two values known not to encode alike."""
    if isinstance(base, dict) and isinstance(new, dict):
        edits: dict[Any, Any] = {}
        for key in changed_keys(base, new):
            edits[key] = _diff_changed(base[key], new[key]) if key in base else {"!": new[key]}
        return {"d": [list(new.keys()), edits]}
    if isinstance(base, list) and isinstance(new, list):
        if len(new) >= len(base) and same_encoding(new[: len(base)], base):
            return {"l": new[len(base):]}
        return {"!": new}
    return {"!": new}


def apply_delta(base: Any, delta: Any) -> Any:
    """Reconstruct the new value from ``base`` and a delta.

    Raises :class:`DeltaError` for any delta it cannot apply, whatever
    its shape: one that does not fit the base (e.g. it references a key
    the base lacks) or is not a delta at all -- callers treat that as a
    base mismatch and fall back to a full ship.
    """
    if not isinstance(delta, dict) or len(delta) != 1:
        raise DeltaError(f"malformed delta: {delta!r}")
    try:
        if "=" in delta:
            return base
        if "!" in delta:
            return delta["!"]
        if "l" in delta:
            return base + list(delta["l"])  # a base that is not a list: TypeError
        if "d" in delta:
            if not isinstance(base, dict):
                raise DeltaError("dict delta against a non-dict base")
            keys, edits = delta["d"]
            result: dict[Any, Any] = {}
            for key in keys:
                if key in edits:
                    sub = edits[key]
                    if isinstance(sub, dict) and "!" in sub and len(sub) == 1:
                        result[key] = sub["!"]
                    else:
                        result[key] = apply_delta(base[key], sub)
                else:
                    result[key] = base[key]  # a key the base lacks: KeyError
            return result
    except (KeyError, TypeError, ValueError) as misfit:
        raise DeltaError(f"delta does not fit: {type(misfit).__name__}: {misfit}") from misfit
    raise DeltaError(f"unknown delta tag in {delta!r}")


def delta_size(delta: Any) -> int:
    """Marshalled size of a delta (what the wire would carry)."""
    return marshalled_size(delta)


def worth_shipping(delta: Any, full_value: Any, margin: int = 0) -> bool:
    """True when the delta is strictly smaller than the full value.

    ``margin`` charges the delta for protocol overhead (extra reply
    keys etc.) so a break-even delta does not displace the simpler
    full ship.
    """
    return delta_size(delta) + margin < marshalled_size(full_value)


def rebuild_import(entry: Any, reply: dict) -> Optional[dict]:
    """Reconstruct a full import reply from a delta against our base.

    The delta applies to the marshalled base bytes the cache ``entry``
    recorded at commit time (never the live, possibly-mutated data), so
    the rebuilt value is byte-identical to the server's copy.  Returns
    ``None`` when the base we promised is no longer what we hold, or the
    delta does not apply to it; a reply without integer versions, or a
    delta for our base, raises (``TypeError`` / ``KeyError``).
    """
    base_version = reply_field(reply, "base_version", int)
    version = reply_field(reply, "version", int)
    if entry is None or entry.base_version != base_version:
        return None
    try:
        new_data = apply_delta(unmarshal(entry.base_raw), reply["delta"])
    except DeltaError:
        return None
    wire = entry.rdo.to_wire()
    wire["data"] = new_data
    wire["version"] = version
    return {"status": "ok", "rdo": wire, "version": version}


class DeltaShipping:
    """Delta shipping, as a stage on the access manager's seam.

    *Asking for and sending* deltas is what ``delta_shipping=True``
    installs.  *Receiving* one (``ok-delta``, :func:`rebuild_import`)
    is the core's: a reply is applied whoever asked for it.
    """

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        manager.on_submit.append(self.on_submit)
        manager.on_wire.append(self.on_wire)
        manager.on_reply.append(self.on_reply)

    def on_submit(self, request: Any) -> None:
        """Warm re-import: tell the server which version we hold so it
        can answer with a delta against it."""
        if request.operation is not Operation.IMPORT or request.full_only:
            return
        held = self.manager.cache.peek(request.urn)
        if held is not None and not held.tentative and held.base_version > 0:
            request.args["have_version"] = held.base_version

    def on_wire(self, request: Any, body: dict) -> None:
        """Swap full export data for a structural delta when smaller.

        The log record keeps the request's *full* args; the swap happens
        here, at wire time, so a crash replay never depends on a delta
        base that died with the cache.
        """
        if request.operation is not Operation.EXPORT or request.full_only or request.recovered:
            return
        entry = self.manager.cache.peek(request.urn)
        base_version = int(body.get("base_version", 0))
        if (
            entry is None
            or base_version <= 0
            or entry.base_version != base_version
            or "data" not in body
        ):
            return
        # Encoded once: sized from its bytes here, spliced into the body.
        delta = Premarshalled(diff_value(unmarshal(entry.base_raw), body["data"]))
        # Charge the delta a small margin so break-even cases keep the
        # simpler full ship.
        if worth_shipping(delta, body["data"], margin=8):
            del body["data"]
            body["delta"] = delta

    def on_reply(self, request: Any, reply: Any) -> bool:
        """``need-full``: the server lost our delta base from its
        history.  The log record still holds the full data, so the same
        request goes out again with the delta path off — still pending,
        unacknowledged: the server recorded nothing for it."""
        if not isinstance(reply, dict) or reply.get("status") != "need-full":
            return False
        request.full_only = True
        self.manager.end_attempt(request)
        self.manager.resubmit(request, 0.0)
        return True
