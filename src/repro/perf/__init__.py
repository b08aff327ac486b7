"""repro.perf — communication-cost optimizations for weakly-connected links.

Three cooperating mechanisms, each independently switchable:

* **Operation-log compaction** (:mod:`repro.perf.compact`) — coalesce
  the never-dispatched suffix of the QRPC log (overwrite absorbs
  overwrite, appends merge, create+delete cancel out) at queue time and
  before reconnection drain, with a durable stable-log rewrite.
* **Delta object shipping** (:mod:`repro.perf.delta`) — imports and
  exports negotiate a marshalled structural diff against the base
  version each side already holds, falling back to a full ship on any
  miss or mismatch.
* **Marshal fast-path** (:class:`repro.net.message.Premarshalled`) —
  QRPC bodies are marshalled once at submit; size accounting and
  transmission splice the cached bytes instead of re-encoding.

See ``docs/PERFORMANCE.md`` for the protocol details and the counters
(`log_ops_compacted_total`, `ship_delta_bytes_saved_total`,
`marshal_cache_hits_total`), and benchmark E14 for the effect on
bytes-on-wire and reconnection drain time over CSLIP links.
"""

from repro.perf.compact import (
    Absorb,
    AppendMerge,
    CancelOut,
    CompactionPlan,
    Compactor,
    CreateDeleteCancel,
    DuplicateImportCoalesce,
    InvokeAbsorb,
    Merge,
    PairRule,
    QueueCompaction,
)
from repro.perf.delta import (
    DeltaError,
    apply_delta,
    delta_size,
    diff_value,
    worth_shipping,
)

__all__ = [
    "Absorb",
    "AppendMerge",
    "CancelOut",
    "CompactionPlan",
    "Compactor",
    "CreateDeleteCancel",
    "DeltaError",
    "DuplicateImportCoalesce",
    "InvokeAbsorb",
    "Merge",
    "PairRule",
    "QueueCompaction",
    "apply_delta",
    "delta_size",
    "diff_value",
    "worth_shipping",
]
