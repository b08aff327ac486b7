"""The shared rule tables: one source of truth for safety and lint.

These tables used to live inside :mod:`repro.core.interpreter`, which
meant the runtime sandbox was the *only* place the safe subset was
defined — a static verifier would inevitably drift from it.  They now
live here, imported by both the runtime interpreter (which enforces
them mid-invocation) and the static verifier (which enforces them at
publish time), so the two checks cannot disagree.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.net`; it sits at the bottom of the dependency graph so the
interpreter, the verifier, and the sanitizer can all consume it.
"""

from __future__ import annotations

import ast
from typing import Any

#: Builtins available to RDO code: pure computation only.
SAFE_BUILTINS: dict[str, Any] = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "chr": chr,
    "dict": dict,
    "divmod": divmod,
    "enumerate": enumerate,
    "filter": filter,
    "float": float,
    "frozenset": frozenset,
    "int": int,
    "isinstance": isinstance,
    "len": len,
    "list": list,
    "map": map,
    "max": max,
    "min": min,
    "ord": ord,
    "pow": pow,
    "range": range,
    "repr": repr,
    "reversed": reversed,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
    "zip": zip,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "ZeroDivisionError": ZeroDivisionError,
}

#: Attribute names RDO code may never touch (sandbox-escape vectors).
FORBIDDEN_ATTRIBUTES = frozenset({"format", "format_map", "mro"})

#: AST node types the safe subset admits.  Anything else is rejected —
#: no imports, no class definitions, no ``with``, no generators-as-
#: statements, no ``global``/``nonlocal``.
ALLOWED_NODES: tuple[type, ...] = (
    ast.Module,
    ast.FunctionDef,
    ast.arguments,
    ast.arg,
    ast.Lambda,
    ast.Return,
    ast.Pass,
    ast.Break,
    ast.Continue,
    ast.If,
    ast.IfExp,
    ast.For,
    ast.While,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Delete,
    ast.Expr,
    ast.Call,
    ast.keyword,
    ast.Name,
    ast.Load,
    ast.Store,
    ast.Del,
    ast.Attribute,
    ast.Constant,
    ast.BinOp,
    ast.BoolOp,
    ast.UnaryOp,
    ast.Compare,
    ast.Subscript,
    ast.Slice,
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.comprehension,
    ast.Starred,
    ast.JoinedStr,
    ast.FormattedValue,
    ast.Raise,
    ast.Try,
    ast.ExceptHandler,
    ast.Assert,
    # operator / comparator leaf nodes
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitOr, ast.BitXor, ast.BitAnd, ast.MatMult,
    ast.And, ast.Or, ast.Not, ast.Invert, ast.UAdd, ast.USub,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Is, ast.IsNot, ast.In, ast.NotIn,
)

#: Python types :mod:`repro.net.message` can marshal.  Mirrored here
#: (rather than imported) to keep this module dependency-free; a test
#: asserts the mirror stays in sync with the real codec.
MARSHALLABLE_TYPES: tuple[type, ...] = (
    type(None), bool, int, float, str, bytes, list, tuple, dict,
)

#: Container-constructor names whose *literal* results cannot travel on
#: the wire (``repro.net.message`` has no tag for sets).
UNMARSHALLABLE_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Method names that mutate their receiver in place.  Used by the
#: mutation-purity analysis: calling one of these on (a view of) the
#: state parameter is a state mutation even though nothing is assigned.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "update", "setdefault", "add", "discard",
    "sort", "reverse",
})

#: The rule catalogue: id -> (summary, fix hint).  Docs and the CLI
#: ``--rules`` listing are generated from this table.
RULES: dict[str, tuple[str, str]] = {
    # -- RDO static verifier ------------------------------------------------
    "RDO100": (
        "RDO source does not parse",
        "fix the syntax error before publishing",
    ),
    "RDO101": (
        "construct outside the safe subset",
        "RDO code is restricted to plain functions over data; remove "
        "imports, classes, with/yield/global constructs",
    ),
    "RDO102": (
        "dunder name",
        "names starting with __ are sandbox-escape vectors; use plain names",
    ),
    "RDO103": (
        "forbidden attribute access",
        "underscore attributes and format/format_map/mro are blocked; "
        "operate on plain data instead",
    ),
    "RDO104": (
        "decorator on RDO function",
        "decorators execute arbitrary host code at load time; remove them",
    ),
    "RDO110": (
        "undefined name",
        "RDO code sees only its own functions, its parameters, and the "
        "safe builtins; pass extra values as method arguments",
    ),
    "RDO201": (
        "hidden mutation: method mutates state but is declared mutates=False",
        "declare mutates=True in the MethodSpec so the access manager "
        "marks the cached copy tentative and queues an export",
    ),
    "RDO202": (
        "method declared mutates=True but never mutates state",
        "declare mutates=False to avoid needless tentative marks and "
        "export rounds",
    ),
    "RDO203": (
        "interface method not defined in RDO code",
        "define the function or drop it from the RDOInterface",
    ),
    "RDO301": (
        "return value cannot be marshalled",
        "repro.net.message supports None/bool/int/float/str/bytes/"
        "list/tuple/dict; convert sets with sorted()",
    ),
    "RDO401": (
        "unbounded loop: the step budget cannot be statically bounded",
        "add a break/return, or loop over a finite iterable",
    ),
    # -- determinism sanitizer ---------------------------------------------
    "DET000": (
        "scanned file does not parse",
        "fix the syntax error; the sanitizer cannot analyse the file",
    ),
    "DET101": (
        "wall-clock access outside repro/live/",
        "simulated components must take time from the Simulator "
        "(sim.now); only the live/ substrate may read the real clock",
    ),
    "DET201": (
        "direct random-module use bypassing sim.rng.make_rng",
        "derive a named stream via repro.sim.rng.make_rng(seed, stream) "
        "so runs are reproducible",
    ),
    "DET301": (
        "iteration over an unordered set/dict-keys union",
        "wrap the union in sorted(...) so marshalled bytes, merge "
        "results, and event orderings are identical across runs",
    ),
    # -- whole-program effect analysis (repro.lint.effects) ----------------
    "EFF101": (
        "layer-contract violation: a contracted layer reaches a "
        "forbidden effect",
        "keep the sim/core layers pure — route the effect through the "
        "simulator clock / seeded RNG, or move the code out of the "
        "contracted layer; sanctioned escapes go in "
        "lint-effects-baseline.txt with a justification",
    ),
    "EFF201": (
        "replay entry point (QRPC handler or compaction rule) reaches "
        "a replay-impure effect",
        "replayed functions must be deterministic and idempotent: no "
        "clock, RNG, real I/O, durable log writes, or global mutation "
        "anywhere in their call tree",
    ),
    "EFF301": (
        "marshal path iterates an unordered container",
        "bytes-on-wire must not depend on the hash salt; sort the "
        "iteration or marshal an ordered structure",
    ),
    "EFF901": (
        "stale baseline entry: no current finding matches it",
        "delete the line from lint-effects-baseline.txt; the escape it "
        "sanctioned no longer exists",
    ),
    "SUP001": (
        "stale suppression: a lint-ignore comment silences nothing",
        "remove the comment (or narrow its rule list); stale "
        "suppressions hide future regressions",
    ),
}


def rule_hint(rule: str) -> str:
    return RULES.get(rule, ("", ""))[1]
