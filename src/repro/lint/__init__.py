"""Static analysis for the Rover toolkit.

Two AST-based analyzers over one diagnostic core:

* :mod:`repro.lint.verifier` — the RDO static verifier: publish-time
  enforcement of the safe subset, mutation purity against the declared
  interface, marshal-ability, name resolution, and bounded execution;
* :mod:`repro.lint.effects` — the whole-program effect analyzer
  (``python -m repro.lint src/repro``), the one determinism check:
  call-graph effect inference (wall clock, unseeded randomness,
  hash-order iteration, real I/O, ...) checked against the contracts in
  :mod:`repro.lint.contracts`, with witness call chains.

The rule tables both analyzers (and the runtime
:class:`~repro.core.interpreter.SafeInterpreter`) enforce live in
:mod:`repro.lint.rules`, so static and runtime checks cannot drift.

This package imports nothing from :mod:`repro.core`; it sits below the
toolkit in the dependency graph.
"""

from repro.lint.contracts import (
    LAYER_CONTRACTS,
    MARSHAL_FORBIDS,
    REPLAY_FORBIDS,
    Effect,
    marshal_stable,
    replay_pure,
)
from repro.lint.diagnostics import (
    Diagnostic,
    Severity,
    errors_only,
    format_diagnostics,
    sort_diagnostics,
)
from repro.lint.rules import (
    ALLOWED_NODES,
    FORBIDDEN_ATTRIBUTES,
    MARSHALLABLE_TYPES,
    MUTATING_METHODS,
    RULES,
    SAFE_BUILTINS,
)
from repro.lint.effects import (
    EffectReport,
    analyze_paths,
    analyze_sources,
)
from repro.lint.verifier import (
    check_code,
    check_mutation_purity,
    check_whitelist,
    find_state_mutation,
    verify_rdo,
)

__all__ = [
    "ALLOWED_NODES",
    "Diagnostic",
    "Effect",
    "EffectReport",
    "LAYER_CONTRACTS",
    "MARSHAL_FORBIDS",
    "REPLAY_FORBIDS",
    "analyze_paths",
    "analyze_sources",
    "marshal_stable",
    "replay_pure",
    "FORBIDDEN_ATTRIBUTES",
    "MARSHALLABLE_TYPES",
    "MUTATING_METHODS",
    "RULES",
    "SAFE_BUILTINS",
    "Severity",
    "check_code",
    "check_mutation_purity",
    "check_whitelist",
    "errors_only",
    "find_state_mutation",
    "format_diagnostics",
    "sort_diagnostics",
    "verify_rdo",
]
