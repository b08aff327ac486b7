"""Relocatable Dynamic Objects.

An RDO bundles *data* and the *code* that operates on it behind a
well-defined interface, so the object can be loaded into a client (to
answer invocations locally from the cache) or shipped to a server (to
compress a multi-round-trip interaction into one queued exchange).

The interface declares, per method, whether it *mutates* the object —
that is what tells the access manager to mark the cached copy tentative
and queue an export.  Code runs under the safe interpreter
(:mod:`repro.core.interpreter`); execution is charged virtual time via
an :class:`ExecutionCostModel` calibrated to a mid-1990s interpreted
environment so latency comparisons against the simulated links are
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN
from repro.net.message import marshalled_size


@dataclass(frozen=True)
class MethodSpec:
    """One method in an RDO's interface."""

    name: str
    mutates: bool = False
    doc: str = ""


class RDOInterface:
    """The well-defined interface of an RDO type."""

    def __init__(self, methods: list[MethodSpec]) -> None:
        self._methods = {spec.name: spec for spec in methods}

    def __contains__(self, name: str) -> bool:
        return name in self._methods

    def spec(self, name: str) -> MethodSpec:
        return self._methods[name]

    def mutates(self, name: str) -> bool:
        spec = self._methods.get(name)
        return spec.mutates if spec is not None else False

    def method_names(self) -> list[str]:
        return list(self._methods)

    def to_wire(self) -> list:
        return [[s.name, s.mutates, s.doc] for s in self._methods.values()]

    @staticmethod
    def from_wire(wire: list) -> "RDOInterface":
        return RDOInterface([MethodSpec(n, bool(m), d) for n, m, d in wire])


@dataclass(frozen=True)
class ExecutionCostModel:
    """Virtual-time cost of interpreting RDO code.

    Calibrated so a small method costs ~5 ms — the paper's
    Tcl-on-a-ThinkPad regime, in which a local cached invocation beats
    an RPC over CSLIP 14.4 by ~56x (this base cost is the single knob
    calibrated against that published ratio; everything else is
    derived).  ``base_s`` covers dispatch, ``per_step_s`` each
    interpreter step (function entry or loop iteration).
    """

    base_s: float = 0.005
    per_step_s: float = 0.0005

    def invoke_time(self, steps: int) -> float:
        return self.base_s + steps * self.per_step_s


class RDOError(Exception):
    """Misuse of an RDO (unknown method, non-marshallable state, ...)."""


class RDOVerificationError(RDOError):
    """Static verification rejected an RDO at publish/ship time.

    Carries the full diagnostic list (rule id, file, line, col, hint
    for every finding) so a bad RDO is a precise report at the
    author's desk instead of a failed QRPC on the far side of a slow
    link.
    """

    def __init__(self, label: str, diagnostics: list) -> None:
        self.diagnostics = list(diagnostics)
        details = "\n".join(d.format() for d in self.diagnostics)
        super().__init__(f"{label} failed static verification:\n{details}")


class RDO:
    """A relocatable dynamic object: named, versioned data plus code."""

    def __init__(
        self,
        urn: URN,
        type_name: str,
        data: dict[str, Any],
        code: str = "",
        interface: Optional[RDOInterface] = None,
        version: int = 0,
    ) -> None:
        self.urn = urn
        self.type_name = type_name
        self.data = data
        self.code = code
        self.interface = interface or RDOInterface([])
        self.version = version
        self._functions: Optional[dict[str, Callable]] = None
        self._interpreter: Optional[SafeInterpreter] = None

    # -- wire format ------------------------------------------------------

    def to_wire(self) -> dict:
        return {
            "urn": str(self.urn),
            "type": self.type_name,
            "data": self.data,
            "code": self.code,
            "interface": self.interface.to_wire(),
            "version": self.version,
        }

    @staticmethod
    def from_wire(wire: dict) -> "RDO":
        return RDO(
            urn=URN.parse(wire["urn"]),
            type_name=wire["type"],
            data=wire["data"],
            code=wire.get("code", ""),
            interface=RDOInterface.from_wire(wire.get("interface", [])),
            version=int(wire.get("version", 0)),
        )

    def copy(self) -> "RDO":
        """Deep-enough copy for import semantics (data round-trips wire)."""
        from repro.net.message import marshal, unmarshal

        return RDO(
            urn=self.urn,
            type_name=self.type_name,
            data=unmarshal(marshal(self.data)),
            code=self.code,
            interface=RDOInterface.from_wire(self.interface.to_wire()),
            version=self.version,
        )

    @property
    def size_bytes(self) -> int:
        """Marshalled size — what importing this object costs on the wire."""
        return marshalled_size(self.to_wire())

    # -- static verification ----------------------------------------------

    def verify(self, extra_names: tuple = ()) -> list:
        """Run the static verifier over this RDO's code + interface.

        Returns the diagnostic list (empty when clean, or when the RDO
        is pure data).  Publish hooks gate on ERROR-severity findings;
        see :func:`repro.lint.verifier.verify_rdo` for the rule set.
        """
        from repro.lint.verifier import verify_rdo

        return verify_rdo(
            self.code,
            self.interface,
            path=f"<rdo:{self.urn}>",
            extra_names=extra_names,
        )

    def verify_or_raise(self, extra_names: tuple = ()) -> None:
        """Raise :class:`RDOVerificationError` on ERROR findings."""
        from repro.lint.diagnostics import errors_only

        errors = errors_only(self.verify(extra_names))
        if errors:
            raise RDOVerificationError(str(self.urn), errors)

    # -- execution --------------------------------------------------------

    def _load_functions(self, interpreter: SafeInterpreter) -> dict[str, Callable]:
        if self._functions is None or self._interpreter is not interpreter:
            self._functions = interpreter.load(self.code) if self.code else {}
            self._interpreter = interpreter
        return self._functions

    def release(self) -> None:
        """Release the loaded environment (:meth:`SafeInterpreter.release`),
        for a copy made to serve one request; a cached RDO stays loaded."""
        if self._functions:  # a pure-data RDO loads nothing
            self._interpreter.release(self._functions)
        self._functions = self._interpreter = None

    def invoke(
        self,
        interpreter: SafeInterpreter,
        method: str,
        *args: Any,
    ) -> tuple[Any, int]:
        """Run ``method(data, *args)``; returns (result, steps used).

        The method's first parameter is the object's mutable state
        dict; mutating methods update it in place.
        """
        if method not in self.interface:
            raise RDOError(f"{self.urn}: method {method!r} not in interface")
        functions = self._load_functions(interpreter)
        result = interpreter.invoke(functions, method, self.data, *args)
        return result, interpreter.steps_used
