"""Safe execution of relocatable code.

Implementing RDOs has "three somewhat conflicting goals: (1) safe
execution, (2) portability, and (3) efficiency", met in the paper by
interpreted Tcl with a limited environment (Safe-Tcl style).  Our
substitute is a *restricted Python* interpreter:

* the RDO's method source is parsed and validated against an AST
  whitelist — no imports, no class definitions, no dunder/underscore
  attribute access, no dunder name read or bound, no ``exec``-family builtins;
* a step is charged inline, in the RDO's own frame, at every function
  entry and loop iteration, so shipped code cannot spin forever on
  either host — not even by catching its exhaustion;
* execution happens under a curated builtins table (pure data-shaping
  functions only).

A load walks the parsed tree twice, for the whitelist and for the
charge points, one Python call each (:func:`repro.lint.verifier.walk`),
so the calls a load makes do not grow with the source.

This mirrors the safety/portability posture of Safe-Tcl while staying
in pure Python — and, as the paper notes, the particular form of code
shipping is orthogonal to the Rover architecture.

The whitelist tables live in :mod:`repro.lint.rules`, shared with the
static verifier (:mod:`repro.lint.verifier`) that enforces the same
subset — plus interface-level properties — at *publish* time, before
an RDO ever ships over a slow link.  This runtime check remains the
last line of defense for code that bypassed publication.
"""

from __future__ import annotations

import ast
from typing import Any, Optional

# The safe-subset rule tables are shared with the static verifier
# (:mod:`repro.lint`): one source of truth, so the publish-time check
# and this runtime check cannot drift.  Re-exported here because this
# module is their historical home.
from repro.lint.rules import (  # noqa: F401  (re-exports)
    ALLOWED_NODES as _ALLOWED_NODES,
    FORBIDDEN_ATTRIBUTES,
    SAFE_BUILTINS,
)
from repro.lint.diagnostics import errors_only
from repro.lint.verifier import check_whitelist, verify_rdo, walk

#: The names a charge reads in the environment (RDO102 keeps RDO code off both).
STEP_COUNTER_NAME = "__step__"
EXHAUSTED_NAME = "__exhausted__"

ALLOWED_NODES = _ALLOWED_NODES


class CodeValidationError(Exception):
    """The RDO source uses a construct outside the safe subset."""


class ExecutionBudgetExceeded(Exception):
    """The RDO exhausted its step budget."""


class ExecutionError(Exception):
    """The RDO raised (or hit a runtime fault) during execution."""


def _exhausted() -> None:
    """What a charge calls once the counter is below zero."""
    raise ExecutionBudgetExceeded("RDO step budget exhausted")


def _inject_charges(tree: ast.Module) -> ast.Module:
    """Charge a step at function entries and loop bodies, inline::

        __step__[0] -= 1
        if __step__[0] < 0:
            __exhausted__()

    prepended to the body of every ``def``, ``for`` and ``while`` the
    tree's one walk finds.
    """
    for owner in walk(tree):
        if not isinstance(owner, (ast.FunctionDef, ast.For, ast.While)):
            continue
        # Every node located as ``ast.fix_missing_locations`` would (at
        # its owner), built directly: no parse, walk or copy per point,
        # and none of that function's recursive closure (cyclic garbage).
        at = {"lineno": owner.lineno, "col_offset": owner.col_offset,
              "end_lineno": owner.end_lineno, "end_col_offset": owner.end_col_offset}
        counter = ast.Name(STEP_COUNTER_NAME, ast.Load(), **at)
        zero = ast.Constant(0, **at)
        target = ast.Subscript(counter, zero, ast.Store(), **at)
        charge = ast.AugAssign(target, ast.Sub(), ast.Constant(1, **at), **at)
        remaining = ast.Subscript(counter, zero, ast.Load(), **at)
        exhausted = ast.Call(ast.Name(EXHAUSTED_NAME, ast.Load(), **at), [], [], **at)
        spent = ast.Compare(remaining, [ast.Lt()], [zero], **at)
        owner.body[:0] = [charge, ast.If(spent, [ast.Expr(exhausted, **at)], [], **at)]
    return tree


def validate_source(source: str) -> ast.Module:
    """Parse and validate RDO source; returns the module AST.

    Enforces exactly the whitelist rules the static verifier checks
    (same tables, same checker); the raised error message carries the
    full diagnostic — rule id, line, and column — for every violation,
    not just the first.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise CodeValidationError(f"syntax error: {exc}") from exc
    findings = check_whitelist(tree)
    if findings:
        raise CodeValidationError(
            "; ".join(
                f"{d.message} (rule {d.rule}, line {d.line} col {d.col})"
                for d in findings
            )
        )
    return tree


class LoadedFunctions(dict):
    """What :meth:`SafeInterpreter.load` returns: the functions the source
    defined, by name, plus the environment it was executed into and the
    step counter they share (a one-element list, charged in place)."""

    __slots__ = ("env", "counter")


class SafeInterpreter:
    """Verifies RDO classes, loads validated RDO source and invokes its
    methods under budget."""

    #: Bound on the per-interpreter compiled-code cache and verdict
    #: table (FIFO evict, each).
    CODE_CACHE_MAX = 256

    def __init__(self, step_budget: int = 100_000) -> None:
        self.step_budget = step_budget
        self.steps_used = 0
        # source -> compiled code object.  A server invokes the same
        # few RDO sources thousands of times, each in an environment of
        # its own; parse + whitelist + charge-inject + compile is pure
        # in the source, so it is cached here.  exec still runs per
        # load — every caller gets a fresh environment.
        self._code_cache: dict[str, Any] = {}
        # (source, interface as its MethodSpec tuple or None, extra
        # names) of every class this host verified with no ERROR
        # finding.  Verification is pure in that key, so a folder of
        # forty messages of one class is verified once; a failing
        # class is never remembered, so each rejection names its own
        # object.
        self._verdicts: dict[tuple, None] = {}
        #: FIFO evictions from the two tables above; a server's
        #: registry reads its interpreter's as ``rdo_code_cache_evicted_total``
        #: and ``rdo_verdicts_evicted_total``.
        self.code_cache_evictions = 0
        self.verdict_evictions = 0

    def verify(
        self,
        source: str,
        interface: Optional[Any] = None,
        path: str = "<rdo>",
        extra_names: tuple = (),
    ) -> list:
        """The ERROR findings of :func:`repro.lint.verifier.verify_rdo`
        over ``source`` and ``interface`` (an ``RDOInterface``, or
        ``None`` for shipped code), positioned at ``path``: the one
        check a host runs before it publishes, ships or runs a ship.
        A class that passed once is answered from the verdict table.
        """
        key = (source, None if interface is None else tuple(interface.values()), extra_names)
        if key in self._verdicts:
            return []
        errors = errors_only(verify_rdo(source, interface, path, extra_names))
        if not errors:
            if len(self._verdicts) >= self.CODE_CACHE_MAX:
                self._verdicts.pop(next(iter(self._verdicts)))
                self.verdict_evictions += 1
            self._verdicts[key] = None
        return errors

    def load(self, source: str, extra_env: Optional[dict[str, Any]] = None) -> LoadedFunctions:
        """Validate, compile, and return the functions the source defines.

        ``extra_env`` exposes host-provided helpers (already-safe
        callables) to the code.  All functions returned share one
        step-budget counter per :meth:`invoke` call, and an environment
        made for this load alone; a caller that is done with it hands
        the result to :meth:`release`.
        """
        code = self._code_cache.get(source)
        if code is None:
            tree = _inject_charges(validate_source(source))
            code = compile(tree, filename="<rdo>", mode="exec")
            if len(self._code_cache) >= self.CODE_CACHE_MAX:
                self._code_cache.pop(next(iter(self._code_cache)))
                self.code_cache_evictions += 1
            self._code_cache[source] = code

        counter = [0]
        env: dict[str, Any] = {
            "__builtins__": dict(SAFE_BUILTINS),
            STEP_COUNTER_NAME: counter,
            EXHAUSTED_NAME: _exhausted,
        }
        if extra_env:
            for name in extra_env:
                if name.startswith("_"):
                    raise CodeValidationError(
                        f"extra_env name {name!r} must not start with underscore"
                    )
            env.update(extra_env)
        exec(code, env)  # populate env with the defined functions

        functions = LoadedFunctions()
        functions.env = env
        functions.counter = counter  # invoke() arms the budget through it
        for name, value in env.items():
            if (
                callable(value)
                and not name.startswith("_")
                and name not in SAFE_BUILTINS
                and (not extra_env or name not in extra_env)
            ):
                functions[name] = value
        return functions

    def release(self, functions: LoadedFunctions) -> None:
        """End the life of the environment ``functions`` were loaded into.

        The functions' ``__globals__`` *is* the environment that holds
        them, a loop only the cyclic collector could free, and a server
        makes one per request.  Emptied, the last reference frees it and
        the functions reach none of its names.  (Not via
        ``fn.__globals__``: source may re-bind an ``extra_env`` helper,
        whose globals are the host's module.)
        """
        functions.env.clear()

    def invoke(
        self,
        functions: LoadedFunctions,
        method: str,
        *args: Any,
        budget: Optional[int] = None,
    ) -> Any:
        """Call ``method(*args)`` with a fresh step budget.

        Raises :class:`ExecutionError` for faults inside the RDO and
        :class:`ExecutionBudgetExceeded` when it runs over budget, even
        if it caught that itself and returned: exhaustion is final.
        """
        fn = functions.get(method)
        if fn is None:
            raise ExecutionError(f"RDO has no method {method!r}")
        counter = functions.counter
        counter[0] = budget if budget is not None else self.step_budget
        try:
            result = fn(*args)
        except ExecutionBudgetExceeded:
            raise
        except RecursionError as exc:
            raise ExecutionBudgetExceeded("RDO recursion too deep") from exc
        except Exception as exc:
            raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc
        if counter[0] < 0:
            _exhausted()
        self.steps_used = (budget or self.step_budget) - counter[0]
        return result
