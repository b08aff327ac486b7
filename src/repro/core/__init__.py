"""Rover's primary contribution: RDOs + QRPC and the machinery around them.

* :mod:`repro.core.rdo` — relocatable dynamic objects (data + code +
  interface) and the execution cost model;
* :mod:`repro.core.interpreter` — safe restricted-Python execution of
  relocated code (the Safe-Tcl substitute);
* :mod:`repro.core.qrpc` — queued RPC records and their wire format;
* :mod:`repro.core.operation_log` — the stable client log of pending
  QRPCs (crash recovery, at-most-once acknowledgement);
* :mod:`repro.core.object_cache` — client cache with
  committed/tentative status and dirty-safe LRU eviction;
* :mod:`repro.core.session` — Bayou-style session guarantees;
* :mod:`repro.core.conflict` — server-side conflict detection and
  type-specific resolvers;
* :mod:`repro.core.server` — the home server (import/export/invoke/ship);
* :mod:`repro.core.access_manager` — the client toolkit entry point;
* :mod:`repro.core.notification` — user-visible state events.
"""

from repro.core.access_manager import AccessManager, AccessManagerError
from repro.core.hoard import HoardEntry, Hoarder, HoardProfile
from repro.core.conflict import (
    AppendMerge,
    ConflictReport,
    FieldwiseMerge,
    KeepServer,
    LastWriterWins,
    Resolution,
    ResolverRegistry,
)
from repro.core.interpreter import (
    CodeValidationError,
    ExecutionBudgetExceeded,
    ExecutionError,
    SafeInterpreter,
)
from repro.core.naming import URN, NamingError
from repro.core.notification import EventType, Notification, NotificationCenter
from repro.core.object_cache import CacheStatus, ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.promise import Promise, PromiseError
from repro.core.qrpc import Operation, QRPCRequest
from repro.core.rdo import (
    RDO,
    ExecutionCostModel,
    MethodSpec,
    RDOError,
    RDOInterface,
    RDOVerificationError,
)
from repro.core.server import RoverServer
from repro.core.session import Session, SessionRegistry

__all__ = [
    "AccessManager",
    "AccessManagerError",
    "AppendMerge",
    "CacheStatus",
    "CodeValidationError",
    "ConflictReport",
    "EventType",
    "ExecutionBudgetExceeded",
    "ExecutionCostModel",
    "ExecutionError",
    "FieldwiseMerge",
    "HoardEntry",
    "Hoarder",
    "HoardProfile",
    "KeepServer",
    "LastWriterWins",
    "MethodSpec",
    "NamingError",
    "Notification",
    "NotificationCenter",
    "ObjectCache",
    "Operation",
    "OperationLog",
    "Promise",
    "PromiseError",
    "QRPCRequest",
    "RDO",
    "RDOError",
    "RDOInterface",
    "RDOVerificationError",
    "Resolution",
    "ResolverRegistry",
    "RoverServer",
    "SafeInterpreter",
    "Session",
    "SessionRegistry",
    "URN",
]
