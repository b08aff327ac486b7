"""Static verification of RDO code at publish/registration time.

The paper gives RDOs "three somewhat conflicting goals: (1) safe
execution, (2) portability, and (3) efficiency".  The runtime sandbox
(:class:`repro.core.interpreter.SafeInterpreter`) enforces (1) on the
*receiving* host, mid-invocation — which means a bad RDO is rejected
only after it shipped over a slow link.  Safe-Tcl and Java, the
code-shipping substrates the paper cites, both moved safety checks to
load/verify time for exactly this reason.

This module is that verify-time pass.  It shares its rule tables with
the runtime interpreter (:mod:`repro.lint.rules`), so anything it
accepts the interpreter also accepts, and it checks several properties
the runtime *cannot* see:

* **whitelist conformance** — the same safe subset the interpreter
  enforces, but collecting *all* violations with positions instead of
  failing on the first;
* **mutation purity** — a method whose body mutates the state
  parameter must be declared ``mutates=True`` in the interface, else
  the access manager never marks the cached copy tentative and never
  queues an export, silently breaking coherence;
* **marshal-ability** — literal return values must be encodable by
  :mod:`repro.net.message`;
* **name resolution** — every free name must resolve to a safe
  builtin, a function defined in the same RDO, or a declared host
  helper;
* **bounded execution** — a ``while`` over a constant-true condition
  with no exit cannot be bounded by the step budget heuristic.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Protocol

from repro.lint.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint.rules import (
    ALLOWED_NODES,
    FORBIDDEN_ATTRIBUTES,
    MARSHALLABLE_TYPES,
    MUTATING_METHODS,
    SAFE_BUILTINS,
    UNMARSHALLABLE_CONSTRUCTORS,
    rule_hint,
)


class InterfaceLike(Protocol):
    """What the verifier needs from an ``RDOInterface`` (duck-typed so
    this module never imports :mod:`repro.core`)."""

    def method_names(self) -> list[str]: ...

    def mutates(self, name: str) -> bool: ...


def _diag(
    rule: str,
    node: Optional[ast.AST],
    path: str,
    message: str,
    severity: Severity = Severity.ERROR,
) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=severity,
        path=path,
        line=getattr(node, "lineno", 0) if node is not None else 0,
        col=getattr(node, "col_offset", 0) if node is not None else 0,
        message=message,
        hint=rule_hint(rule),
    )


def walk(tree: ast.AST) -> list[ast.AST]:
    """Every node of ``tree`` in ``ast.walk``'s order, in one Python call
    (``ast.walk`` resumes a generator per node, child and field)."""
    nodes = [tree]
    for node in nodes:  # grows as it is read: the queue is the result
        for name in node._fields:
            field = getattr(node, name, None)
            if isinstance(field, ast.AST):
                nodes.append(field)
            elif isinstance(field, list):
                for item in field:
                    if isinstance(item, ast.AST):
                        nodes.append(item)
    return nodes


# ---------------------------------------------------------------------------
# Whitelist conformance (shared verbatim with the runtime interpreter)
# ---------------------------------------------------------------------------


#: Where a node names what it reads or binds (a parameter of any kind, a
#: ``def``, ``except ... as``): a dunder *binding* could shadow the step counter.
_NAME_FIELDS = {ast.Name: "id", ast.arg: "arg", ast.FunctionDef: "name", ast.ExceptHandler: "name"}


def check_whitelist(tree: ast.AST, path: str = "<rdo>") -> list[Diagnostic]:
    """Collect every safe-subset violation with its position.

    This is the exact rule set :func:`repro.core.interpreter.validate_source`
    enforces at load time — both consume :mod:`repro.lint.rules` — but
    reported exhaustively instead of fail-fast.
    """
    findings: list[Diagnostic] = []
    for node in walk(tree):
        if not isinstance(node, ALLOWED_NODES):
            findings.append(_diag(
                "RDO101", node, path,
                f"disallowed construct {type(node).__name__}",
            ))
            continue
        name = getattr(node, _NAME_FIELDS.get(type(node), ""), None)
        if name and name.startswith("__"):
            findings.append(_diag("RDO102", node, path, f"dunder name {name!r}"))
        if isinstance(node, ast.Attribute):
            if node.attr.startswith("_"):
                findings.append(_diag(
                    "RDO103", node, path, f"underscore attribute {node.attr!r}"
                ))
            elif node.attr in FORBIDDEN_ATTRIBUTES:
                findings.append(_diag(
                    "RDO103", node, path, f"forbidden attribute {node.attr!r}"
                ))
        elif isinstance(node, ast.FunctionDef) and node.decorator_list:
            findings.append(_diag(
                "RDO104", node.decorator_list[0], path,
                f"decorator on function {node.name!r}",
            ))
    return findings


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------


def _bound_names(tree: ast.AST) -> set[str]:
    """Every name the module binds anywhere (flow-insensitive).

    Deliberately permissive: a name bound in any scope is considered
    defined everywhere, so the check produces no false positives at
    the cost of missing some cross-scope leaks (which the runtime's
    NameError still catches).
    """
    bound: set[str] = set()
    for node in walk(tree):
        if isinstance(node, ast.FunctionDef):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                bound.add(arg.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
    return bound


def check_names(
    tree: ast.AST, path: str = "<rdo>", extra_names: Iterable[str] = ()
) -> list[Diagnostic]:
    """Flag free names that resolve to nothing the sandbox provides."""
    known = _bound_names(tree) | set(SAFE_BUILTINS) | set(extra_names)
    findings: list[Diagnostic] = []
    seen: set[tuple[str, int, int]] = set()
    for node in walk(tree):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in known
            and not node.id.startswith("__")  # RDO102's department
        ):
            key = (node.id, node.lineno, node.col_offset)
            if key not in seen:
                seen.add(key)
                findings.append(_diag(
                    "RDO110", node, path, f"undefined name {node.id!r}"
                ))
    return findings


# ---------------------------------------------------------------------------
# Bounded-execution heuristic
# ---------------------------------------------------------------------------


def _has_loop_exit(body: list[ast.stmt]) -> bool:
    """True if the loop body can leave the loop (break/return/raise).

    Nested function bodies are skipped: a ``return`` inside a nested
    ``def`` does not exit the enclosing loop.  Nested loops keep their
    own breaks, so only ``Return``/``Raise`` — which unwind through
    any nesting — count from inside them.
    """

    def scan(stmts: list[ast.stmt], breaks_count: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return True
            if breaks_count and isinstance(stmt, ast.Break):
                return True
            if isinstance(stmt, ast.FunctionDef):
                continue
            inner_breaks = breaks_count and not isinstance(stmt, (ast.For, ast.While))
            for field in ("body", "orelse", "finalbody"):
                if scan(getattr(stmt, field, []) or [], inner_breaks):
                    return True
            for handler in getattr(stmt, "handlers", []) or []:
                if scan(handler.body, inner_breaks):
                    return True
        return False

    return scan(body, breaks_count=True)


def check_bounded_loops(tree: ast.AST, path: str = "<rdo>") -> list[Diagnostic]:
    """Flag loops whose step budget cannot be statically bounded."""
    findings: list[Diagnostic] = []
    for node in walk(tree):
        if not isinstance(node, ast.While):
            continue
        test_is_constant_true = (
            isinstance(node.test, ast.Constant) and bool(node.test.value)
        )
        if test_is_constant_true and not _has_loop_exit(node.body):
            findings.append(_diag(
                "RDO401", node, path,
                "while-loop over a constant-true condition with no "
                "break/return/raise",
            ))
    return findings


# ---------------------------------------------------------------------------
# Marshal-ability of literal return values
# ---------------------------------------------------------------------------


def _literal_marshal_problem(node: ast.expr) -> Optional[ast.expr]:
    """Return the offending sub-expression if a literal value cannot be
    marshalled; ``None`` when marshallable or statically unknown."""
    if isinstance(node, ast.Constant):
        if node.value is None or isinstance(node.value, MARSHALLABLE_TYPES):
            return None
        return node  # complex, Ellipsis, ...
    if isinstance(node, ast.Set):
        return node
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in UNMARSHALLABLE_CONSTRUCTORS
        ):
            return node
        return None  # result type unknown statically
    if isinstance(node, (ast.List, ast.Tuple)):
        for element in node.elts:
            problem = _literal_marshal_problem(element)
            if problem is not None:
                return problem
        return None
    if isinstance(node, ast.Dict):
        for child in list(node.keys) + list(node.values):
            if child is None:  # {**spread}
                continue
            problem = _literal_marshal_problem(child)
            if problem is not None:
                return problem
        return None
    return None  # names, calls, arithmetic: unknown statically


def check_marshallable_returns(tree: ast.AST, path: str = "<rdo>") -> list[Diagnostic]:
    """Flag ``return`` statements whose literal value the wire format
    cannot carry (sets, and constants outside the codec's type set)."""
    findings: list[Diagnostic] = []
    for node in walk(tree):
        if isinstance(node, ast.Return) and node.value is not None:
            problem = _literal_marshal_problem(node.value)
            if problem is not None:
                kind = (
                    "set literal" if isinstance(problem, (ast.Set, ast.Call))
                    else f"constant {getattr(problem, 'value', None)!r}"
                )
                findings.append(_diag(
                    "RDO301", problem, path,
                    f"return value contains unmarshallable {kind}",
                ))
    return findings


# ---------------------------------------------------------------------------
# Mutation purity
# ---------------------------------------------------------------------------


def _root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _state_aliases(fn: ast.FunctionDef, state_param: str) -> set[str]:
    """Names that (may) reference the state dict or a view into it.

    ``x = state`` and ``x = state["k"]`` alias state (mutating ``x``
    mutates the object's data); ``x = dict(state["k"])`` does not (any
    call result is treated as a fresh value).  Iterated to a fixpoint
    so chains of aliases are tracked.
    """
    aliases = {state_param}
    changed = True
    while changed:
        changed = False
        for node in walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                continue  # constructors/copies produce fresh values
            root = _root_name(value) if isinstance(
                value, (ast.Name, ast.Subscript, ast.Attribute)
            ) else None
            if root not in aliases:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in aliases:
                    aliases.add(target.id)
                    changed = True
    return aliases


def find_state_mutation(fn: ast.FunctionDef) -> Optional[ast.AST]:
    """First statement that mutates the method's state parameter.

    A mutation is an assignment/augmented-assignment/delete through a
    subscript or attribute rooted at the state parameter (or an alias
    or view of it), or a call of an in-place mutating method on one.
    """
    params = fn.args.posonlyargs + fn.args.args
    if not params:
        return None
    aliases = _state_aliases(fn, params[0].arg)

    for node in walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    if _root_name(target) in aliases:
                        return node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    if _root_name(target) in aliases:
                        return node
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and _root_name(func.value) in aliases
            ):
                return node
    return None


def check_mutation_purity(
    tree: ast.Module, interface: InterfaceLike, path: str = "<rdo>"
) -> list[Diagnostic]:
    """Cross-check method bodies against their declared ``mutates`` flag.

    A hidden mutation (``mutates=False`` but the body writes state) is
    an ERROR: the access manager would run the method on the cached
    copy without marking it tentative or queueing an export, so the
    update silently never reaches the home server — a coherence bug
    that is undetectable at runtime.  The converse (``mutates=True``
    but no mutation found) is a WARNING: correct but wasteful.
    """
    findings: list[Diagnostic] = []
    defined: dict[str, ast.FunctionDef] = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name in interface.method_names():
        fn = defined.get(name)
        if fn is None:
            findings.append(_diag(
                "RDO203", None, path,
                f"interface method {name!r} is not defined in the RDO code",
            ))
            continue
        mutation = find_state_mutation(fn)
        declared = interface.mutates(name)
        if mutation is not None and not declared:
            findings.append(_diag(
                "RDO201", mutation, path,
                f"method {name!r} mutates its state parameter but is "
                f"declared mutates=False",
            ))
        elif mutation is None and declared:
            findings.append(_diag(
                "RDO202", fn, path,
                f"method {name!r} is declared mutates=True but never "
                f"mutates its state parameter",
                severity=Severity.WARNING,
            ))
    return findings


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_code(
    source: str, path: str = "<rdo>", extra_names: Iterable[str] = ()
) -> list[Diagnostic]:
    """Verify bare RDO source (no interface): the whole-code rule set.

    Used for the ship path, where client code travels without an
    interface.  ``extra_names`` declares host-provided helpers (the
    server's ``lookup``/``objects`` environment).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="RDO100",
            severity=Severity.ERROR,
            path=path,
            line=exc.lineno or 0,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
            hint=rule_hint("RDO100"),
        )]
    findings = check_whitelist(tree, path)
    findings += check_names(tree, path, extra_names)
    findings += check_bounded_loops(tree, path)
    findings += check_marshallable_returns(tree, path)
    return sort_diagnostics(findings)


def verify_rdo(
    code: str,
    interface: Optional[InterfaceLike] = None,
    path: str = "<rdo>",
    extra_names: Iterable[str] = (),
) -> list[Diagnostic]:
    """Full publish-time verification of an RDO's code + interface.

    Returns every finding; the caller decides what severity gates
    (publish hooks reject on :class:`Severity.ERROR`).  An RDO with no
    code is vacuously fine — it is pure data.
    """
    if not code:
        return []
    findings = check_code(code, path, extra_names)
    if any(d.rule == "RDO100" for d in findings):
        return findings  # nothing below is meaningful without a parse
    if interface is not None:
        tree = ast.parse(code)
        findings += check_mutation_purity(tree, interface, path)
    return sort_diagnostics(findings)
