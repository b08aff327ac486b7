"""Spans recorded from outside the program, for the per-layer ledger.

A declared table (``LAYER_MODULES``) maps each layer to the modules
that make it up.  For a traced run every function defined on those
modules' classes, and every public module-level function (rebound in
each ``repro`` module that imported it by name), is wrapped at class /
module level.  A call opens a span only when it crosses from another
layer, so a span is a layer boundary; calls inside a layer pass
straight through.  Callbacks handed to ``Simulator.schedule_at`` and
``RealTimeClock.schedule`` (and thread targets in ``repro.live``) are
wrapped too, so work the kernel dispatches is charged to the layer that
owns the callback, not to the kernel.

A span is ``(index, name, layer, parent, start, end)`` plus, on the
threaded workload, the thread and its CPU clock.  Spans stay in memory
(one flat ``array``) and are written as JSONL after the run.  A layer's
self time is its spans' duration minus the part their child spans
cover.  ``unattributed`` is the self time of the spans no layer owns:
the root span (the driver), callbacks of ``repro`` modules that are not
one of the layers, and on the threaded workload one span per long-lived
thread (the event and accept loops' own bookkeeping between callbacks).

An untraced run never calls ``install``: nothing is wrapped there.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import types
from array import array
from typing import Any, Callable, Optional

#: layer -> the modules whose classes and public functions belong to it.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "sim.events": ("repro.sim.events",),
    "net.message": ("repro.net.message",),
    "net.simnet": ("repro.net.simnet",),
    "net.link": ("repro.net.link",),
    "net.transport": ("repro.net.transport",),
    "net.scheduler": ("repro.net.scheduler",),
    "storage.stable_log": ("repro.storage.stable_log",),
    "core.operation_log": ("repro.core.operation_log",),
    "core.access_manager": ("repro.core.access_manager",),
    "core.object_cache": ("repro.core.object_cache",),
    "core.interpreter": ("repro.core.interpreter",),
    "core.server": ("repro.core.server",),
    "perf.compact": ("repro.perf.compact",),
    "perf.delta": ("repro.perf.delta",),
    "ha.group": ("repro.ha.group",),
    "obs": ("repro.obs.metrics", "repro.obs.trace"),
    "apps.mail": ("repro.apps.mail",),
    "live.transport": ("repro.live.transport",),
    "live.scheduler": ("repro.live.scheduler",),
    "live.clock": ("repro.live.clock",),
}
LAYERS = tuple(LAYER_MODULES)
UNATTRIBUTED = "unattributed"

#: Dunder methods that do a layer's real work.
_INCLUDE_DUNDER = {"Premarshalled.__init__"}
#: Thread bodies that live longer than the timed region: a span around
#: them would straddle it, so their own bookkeeping stays unattributed
#: and only what they dispatch is charged.
_EXCLUDE = {"RealTimeClock._loop", "LiveTransport._accept_loop"}
#: Opened even from inside their own layer: their wall time is a metric.
_ALWAYS_SPAN = {"FileLogBackend.flush", "FileLogBackend.truncate_through"}
#: The callback argument of the two kernels' schedule calls.
_CALLBACK_ARG = {"Simulator.schedule_at": 2, "RealTimeClock.schedule": 2}
#: Where the request id travels: positional index of a ``QRPCRequest``
#: or of a wire body that carries ``request_id``.
_RID_ARG = {
    "AccessManager._log_and_submit": 1,
    "AccessManager._submit": 1,
    "AccessManager._on_reply": 1,
    "AccessManager._on_failed": 1,
    "NetworkScheduler.submit": 3,
    "LiveScheduler.submit": 3,
    "RoverServer._on_import": 1,
    "RoverServer._on_export": 1,
    "RoverServer._on_invoke": 1,
}
#: Transport layers: values they marshal are the wire envelopes.
_ENVELOPE_LAYERS = ("net.transport", "live.transport")
_ENVELOPE_SAMPLE_EVERY = 7  # coprime to the request/reply and per-client patterns
_ENVELOPE_SAMPLE_MAX = 512

_COLUMNS = 9  # index, name, layer, parent, t0, t1, thread, cpu0, cpu1
#: ``parent`` of the span that stands for a whole long-lived thread.
_THREAD_SPAN = -2


def _thread_cpu_ns(ident: int) -> int:
    """CPU time of another thread of this process."""
    return time.clock_gettime_ns(time.pthread_getcpuclockid(ident))


class _SingleState:
    """Span stack of the one thread of a simulated workload."""

    __slots__ = ("layer", "current")

    def __init__(self) -> None:
        self.layer = 0
        self.current = -1


class _ThreadState(threading.local):
    """Span stack per thread (class attributes are each thread's start)."""

    layer = 0
    current = -1


class _ThreadingShim:
    """Stands in for ``threading`` inside ``repro.live`` modules so that
    thread targets are charged to their layer."""

    def __init__(self, recorder: "Recorder") -> None:
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(threading, name)

    def Thread(self, *args: Any, target: Optional[Callable] = None, **kwargs: Any):
        if target is not None:
            target = self._recorder.attributed(target, whole_thread=True)
        return threading.Thread(*args, target=target, **kwargs)


class LedgerError(Exception):
    """The spans do not add up."""


class Recorder:
    """Installs the wrappers and holds the spans of one traced run."""

    def __init__(self, threaded: bool) -> None:
        self.threaded = threaded
        self.on = False
        self.rows = array("q")
        self.rids: dict[int, str] = {}
        self.names: list[str] = [UNATTRIBUTED]
        self._name_ids: dict[str, int] = {UNATTRIBUTED: 0}
        #: layer ids: 0 is unattributed, then LAYERS in order.
        self.layer_names = (UNATTRIBUTED,) + LAYERS
        self._module_layer: dict[str, int] = {}
        for lid, layer in enumerate(LAYERS, start=1):
            for module in LAYER_MODULES[layer]:
                self._module_layer[module] = lid
        self._by_code: dict[Any, tuple[int, int]] = {}
        self._ids = itertools.count(1)  # 0 is the root span
        self._state: Any = _ThreadState() if threaded else _SingleState()
        self._cpu = time.thread_time_ns if threaded else None
        self._root: Optional[tuple[int, int, int]] = None
        #: CPU clock of every other thread alive at ``begin``.
        self._thread_cpu0: dict[int, int] = {}
        #: Undecorated module-level functions, by name.
        self.originals: dict[str, Callable] = {}
        self._by_name: Optional[dict[int, list]] = None
        self.envelopes: list = []
        self._envelope_seen = 0
        self._envelope_lids = {
            self.layer_names.index(name) for name in _ENVELOPE_LAYERS
        }

    # -- naming -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    # -- wrappers ---------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        lid: int,
        name: str,
        force: bool = False,
        rid_arg: Optional[int] = None,
        whole_thread: bool = False,
    ) -> Callable:
        recorder = self
        state = self._state
        rows = self.rows
        rids = self.rids
        ids = self._ids
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        cpu = self._cpu
        get_ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.on or (state.layer == lid and not force):
                return fn(*args, **kwargs)
            index = next(ids)
            parent = state.current
            previous = state.layer
            state.current = index
            state.layer = lid
            if rid_arg is not None and len(args) > rid_arg:
                carrier = args[rid_arg]
                rid = getattr(carrier, "request_id", None)
                if rid is None and isinstance(carrier, dict):
                    rid = carrier.get("request_id")
                if rid is not None:
                    rids[index] = rid
            thread = get_ident() if cpu else 0
            t0 = clock()
            # A thread's CPU clock starts at 0 when the thread does, so a
            # thread body's span also covers what starting it cost.
            c0 = cpu() if cpu and not whole_thread else 0
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = cpu() if cpu else 0
                t1 = clock()
                state.current = parent
                state.layer = previous
                rows.extend((index, nid, lid, parent, t0, t1, thread, c0, c1))

        traced._pb_span = (lid, name)  # type: ignore[attr-defined]
        return traced

    def attributed(self, callback: Callable, whole_thread: bool = False) -> Callable:
        """Charge a dispatched callback to the layer that owns it.

        Methods of traced classes already open their own span; plain
        functions, closures and lambdas are wrapped by their module.
        ``whole_thread``: the callback is the body of a new thread.
        """
        fn = getattr(callback, "func", callback)  # functools.partial
        fn = getattr(fn, "__func__", fn)
        span = getattr(fn, "_pb_span", None)
        if span is not None:
            if not whole_thread:
                return callback
            return self._wrap(callback, *span, whole_thread=True)
        code = getattr(fn, "__code__", None)
        if code is None:
            return callback
        known = self._by_code.get(code)
        if known is None:
            qualname = getattr(fn, "__qualname__", "callback")
            if qualname in _EXCLUDE:
                known = (-1, 0)
            else:
                lid = self._module_layer.get(getattr(fn, "__module__", ""), 0)
                known = (lid, self._name_id(qualname))
            self._by_code[code] = known
        lid, nid = known
        if lid < 0:
            return callback
        return self._wrap(callback, lid, self.names[nid], whole_thread=whole_thread)

    def _wrap_kernel(self, fn: Callable, lid: int, name: str) -> Callable:
        """A schedule call: a span of its own, and its callback attributed."""
        inner = self._wrap(fn, lid, name)
        position = _CALLBACK_ARG[name]
        recorder = self

        def scheduling(*args: Any, **kwargs: Any) -> Any:
            if recorder.on and len(args) > position:
                args = (
                    args[:position]
                    + (recorder.attributed(args[position]),)
                    + args[position + 1 :]
                )
            return inner(*args, **kwargs)

        scheduling._pb_span = (lid, name)  # type: ignore[attr-defined]
        return scheduling

    def _wrap_marshal(self, fn: Callable, lid: int, name: str) -> Callable:
        """``marshal``: a span, and a sample of the envelopes the
        transports encode (replayed later for the codec metrics)."""
        inner = self._wrap(fn, lid, name)
        recorder = self
        state = self._state

        def marshal(value: Any) -> bytes:
            if recorder.on and state.layer in recorder._envelope_lids:
                recorder._envelope_seen += 1
                if (
                    recorder._envelope_seen % _ENVELOPE_SAMPLE_EVERY == 0
                    and len(recorder.envelopes) < _ENVELOPE_SAMPLE_MAX
                ):
                    recorder.envelopes.append(value)
            return inner(value)

        marshal._pb_span = (lid, name)  # type: ignore[attr-defined]
        return marshal

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points.  Call before building the
        testbed: thread targets are bound when threads are created."""
        rebinds: list[tuple[Callable, Callable]] = []
        for lid, layer in enumerate(LAYERS, start=1):
            for module_name in LAYER_MODULES[layer]:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) != module_name:
                        continue
                    if isinstance(value, type):
                        self._install_class(value, lid)
                    elif isinstance(value, types.FunctionType) and not attr.startswith("_"):
                        if attr == "marshal":
                            traced = self._wrap_marshal(value, lid, attr)
                        else:
                            traced = self._wrap(value, lid, attr)
                        rebinds.append((value, traced))
                        self.originals[attr] = value
        # A function imported by name is a separate binding in every
        # importer; rebind them all (the defining module included).
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro.") or not hasattr(module, "__dict__"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                for original, traced in rebinds:
                    if value is original:
                        namespace[attr] = traced
        if self.threaded:
            shim = _ThreadingShim(self)
            for module_name in ("repro.live.transport", "repro.live.clock"):
                vars(importlib.import_module(module_name))["threading"] = shim

    def _install_class(self, cls: type, lid: int) -> None:
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            name = f"{cls.__name__}.{attr}"
            if name in _EXCLUDE:
                continue
            if attr.startswith("__") and name not in _INCLUDE_DUNDER:
                continue
            if name in _CALLBACK_ARG:
                traced = self._wrap_kernel(value, lid, name)
            else:
                traced = self._wrap(
                    value,
                    lid,
                    name,
                    force=name in _ALWAYS_SPAN,
                    rid_arg=_RID_ARG.get(name),
                )
            setattr(cls, attr, traced)

    # -- the timed region -------------------------------------------------

    def begin(self) -> None:
        """Open the root span (on the calling thread) and start recording."""
        self._state.layer = 0
        self._state.current = 0
        if self.threaded:
            self._thread_cpu0 = {
                t.ident: _thread_cpu_ns(t.ident)
                for t in threading.enumerate()
                if t is not threading.current_thread()
            }
        cpu0 = self._cpu() if self._cpu else 0
        self._root = (time.perf_counter_ns(), cpu0, threading.get_ident())
        self.on = True

    def end(self) -> None:
        self.on = False
        t0, cpu0, thread = self._root
        cpu1 = self._cpu() if self._cpu else 0
        t1 = time.perf_counter_ns()
        self.rows.extend((0, 0, 0, -1, t0, t1, thread, cpu0, cpu1))
        self._state.current = -1
        # The program's long-lived threads (event loops, accept loops)
        # began before the region: one unattributed span each, read off
        # the thread's own CPU clock, so that their bookkeeping between
        # callbacks is measured and not inferred.
        for other in threading.enumerate() if self.threaded else ():
            began = self._thread_cpu0.get(other.ident)
            if began is not None:
                self.rows.extend(
                    (next(self._ids), self._name_id("thread"), 0, _THREAD_SPAN, t0, t1,
                     other.ident, began, _thread_cpu_ns(other.ident))
                )

    # -- analysis ---------------------------------------------------------

    def _spans(self):
        rows = self.rows
        for base in range(0, len(rows), _COLUMNS):
            yield tuple(rows[base : base + _COLUMNS])

    def ledger(self, total_ns: int) -> dict:
        """Self time and call count per layer.

        ``total_ns`` is the timed region as the caller's own clock saw
        it, read outside ``begin``/``end``: wall ns on a simulated
        workload, the process's CPU ns on the threaded one.  Shares are
        taken of it.  ``unattributed`` is measured like any layer: the
        self time of the root span, of callbacks no layer owns and of
        the long-lived threads' spans.  Raises :class:`LedgerError`
        unless layers plus unattributed come within 2% of ``total_ns``
        (5% on the threaded workload: a thread's own clock cannot be
        read while the kernel tears the thread down, which the process
        clock counts; about 45 us a thread, two threads an op, 3.2-3.6%
        of the region here).
        """
        threaded = self.threaded
        tolerance = 0.05 if threaded else 0.02
        duration: dict[int, int] = {}
        layer_of: dict[int, int] = {}
        parent_of: dict[int, int] = {}
        thread_of: dict[int, int] = {}
        thread_span: dict[int, int] = {}
        for index, _nid, lid, parent, t0, t1, thread, c0, c1 in self._spans():
            duration[index] = (c1 - c0) if threaded else (t1 - t0)
            layer_of[index] = lid
            parent_of[index] = parent
            thread_of[index] = thread
            if parent == _THREAD_SPAN:
                thread_span[thread] = index
        if 0 not in duration:
            raise LedgerError("no root span: begin()/end() never ran")
        covered: dict[int, int] = {}
        for index, parent in parent_of.items():
            if parent == -1:
                # A thread's outermost spans hang off its thread span.
                parent = thread_span.get(thread_of[index], -1)
            if parent >= 0:
                covered[parent] = covered.get(parent, 0) + duration[index]
        self_ns = [0] * len(self.layer_names)
        calls = [0] * len(self.layer_names)
        for index, span_ns in duration.items():
            own = span_ns - covered.get(index, 0)
            # Clock granularity can leave a parent a hair shorter than
            # its children; anything more is a bookkeeping fault.
            if own < -max(1_000_000, span_ns * 0.02):
                raise LedgerError(
                    f"span {index} ({self.layer_names[layer_of[index]]}) has "
                    f"self time {own} ns"
                )
            self_ns[layer_of[index]] += own
            calls[layer_of[index]] += 1
        sum_error = abs(sum(self_ns) - total_ns) / total_ns
        if sum_error > tolerance:
            raise LedgerError(
                f"ledger does not sum: layers + unattributed {sum(self_ns)} ns vs "
                f"{total_ns} ns on the caller's clock"
            )
        return {
            "total_ns": total_ns,
            "self_ns": dict(zip(self.layer_names, self_ns)),
            "calls": dict(zip(self.layer_names, calls)),
            "sum_error": sum_error,
            "spans": len(duration),
        }

    def _named(self, name: str) -> list:
        """``(start, end)`` of every span called ``name`` (one pass over
        the spans, on first use after the run)."""
        if self._by_name is None:
            self._by_name = {}
            for span in self._spans():
                self._by_name.setdefault(span[1], []).append((span[4], span[5]))
        return self._by_name.get(self._name_ids.get(name, -1), [])

    def durations_ms(self, name: str) -> list:
        """Wall durations of every span called ``name``."""
        return [(t1 - t0) / 1e6 for t0, t1 in self._named(name)]

    def starts(self, name: str) -> list:
        """Start time (ns) of every span called ``name``."""
        return [t0 for t0, _ in self._named(name)]

    def write_jsonl(self, path: str) -> int:
        """One span per line, times in ns from the root span's start.

        A span without a request id of its own inherits its nearest
        ancestor's, so one request's spans can be pulled out with grep.
        """
        spans = sorted(self._spans())
        origin = next(s[4] for s in spans if s[0] == 0)
        parent_of = {s[0]: s[3] for s in spans}
        rids = self.rids

        def rid_of(index: int) -> Optional[str]:
            while index >= 0:
                rid = rids.get(index)
                if rid is not None:
                    return rid
                index = parent_of.get(index, -1)
            return None

        with open(path, "w", encoding="utf-8") as out:
            for index, nid, lid, parent, t0, t1, thread, c0, c1 in spans:
                line = {
                    "i": index,
                    "name": self.names[nid] if index else "root",
                    "layer": self.layer_names[lid],
                    "parent": parent if parent >= 0 else None,
                    "t0": t0 - origin,
                    "t1": t1 - origin,
                    "rid": rid_of(index),
                }
                if self.threaded:
                    line["thread"] = thread
                    line["cpu_ns"] = c1 - c0
                out.write(json.dumps(line) + "\n")
        return len(spans)
