"""Safe execution of relocatable code.

Implementing RDOs has "three somewhat conflicting goals: (1) safe
execution, (2) portability, and (3) efficiency", met in the paper by
interpreted Tcl with a limited environment (Safe-Tcl style).  Our
substitute is a *restricted Python* interpreter:

* the RDO's method source is parsed and validated against an AST
  whitelist — no imports, no class definitions, no dunder/underscore
  attribute access, no ``exec``-family builtins;
* a step-budget guard is injected at every function entry and loop
  iteration, so shipped code cannot spin forever on either host;
* execution happens under a curated builtins table (pure data-shaping
  functions only).

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
from repro.lint.verifier import check_whitelist

STEP_GUARD_NAME = "__step__"

ALLOWED_NODES = _ALLOWED_NODES


class CodeValidationError(Exception):
    """The RDO source uses a construct outside the safe subset."""


class ExecutionBudgetExceeded(Exception):
    """The RDO exhausted its step budget."""


class ExecutionError(Exception):
    """The RDO raised (or hit a runtime fault) during execution."""


class _GuardInjector(ast.NodeTransformer):
    """Insert ``__step__()`` at function entries and loop bodies."""

    @staticmethod
    def _guard_call(owner: ast.AST) -> ast.Expr:
        # Located as ``ast.fix_missing_locations`` would (a new first
        # statement inherits its owner's position): same compiled code,
        # without that function's recursive closure (cyclic garbage).
        name = ast.copy_location(ast.Name(id=STEP_GUARD_NAME, ctx=ast.Load()), owner)
        call = ast.copy_location(ast.Call(func=name, args=[], keywords=[]), owner)
        return ast.copy_location(ast.Expr(value=call), owner)

    def _guarded(self, node: Any) -> Any:
        self.generic_visit(node)
        node.body.insert(0, self._guard_call(node))
        return node

    visit_FunctionDef = visit_For = visit_While = _guarded


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
    step counter they share."""

    __slots__ = ("env", "counter")


class SafeInterpreter:
    """Loads validated RDO source and invokes its methods under budget."""

    #: Bound on the per-interpreter compiled-code cache (FIFO evict).
    CODE_CACHE_MAX = 256

    def __init__(self, step_budget: int = 100_000) -> None:
        self.step_budget = step_budget
        self.steps_used = 0
        # source -> compiled code object.  A server invokes the same
        # few RDO sources thousands of times (each wire arrival builds
        # a fresh RDO, so the RDO-level function cache never hits);
        # parse + whitelist + guard-inject + compile is pure in the
        # source, so it is cached here.  exec still runs per load —
        # every caller gets a fresh environment.
        self._code_cache: dict[str, Any] = {}

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
            tree = validate_source(source)
            tree = _GuardInjector().visit(tree)
            code = compile(tree, filename="<rdo>", mode="exec")
            if len(self._code_cache) >= self.CODE_CACHE_MAX:
                self._code_cache.pop(next(iter(self._code_cache)))
            self._code_cache[source] = code

        counter = {"remaining": 0}

        def step_guard() -> None:
            counter["remaining"] -= 1
            if counter["remaining"] < 0:
                raise ExecutionBudgetExceeded("RDO step budget exhausted")

        env: dict[str, Any] = {
            "__builtins__": dict(SAFE_BUILTINS),
            STEP_GUARD_NAME: step_guard,
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
        :class:`ExecutionBudgetExceeded` when it runs over budget.
        """
        fn = functions.get(method)
        if fn is None:
            raise ExecutionError(f"RDO has no method {method!r}")
        counter = functions.counter
        counter["remaining"] = budget if budget is not None else self.step_budget
        try:
            result = fn(*args)
        except ExecutionBudgetExceeded:
            raise
        except RecursionError as exc:
            raise ExecutionBudgetExceeded("RDO recursion too deep") from exc
        except Exception as exc:
            raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc
        self.steps_used = (budget or self.step_budget) - counter["remaining"]
        return result
