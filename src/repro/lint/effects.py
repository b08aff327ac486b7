"""Whole-program effect inference and layer-contract checking: the
repository's one determinism analysis (``python -m repro.lint src/repro``).

It flags ``time.time()`` both where it is written and where it is
reached from: it builds a module- and class-aware call graph over the
whole ``src/repro`` tree, infers each function's intrinsic effect set,
propagates effects to a transitive fixed point, and checks the result
against the declarative contracts in :mod:`repro.lint.contracts`.

Pipeline:

1. **Index** — parse every file; record modules, classes (bases,
   methods, attribute types), functions, imports.  A module's
   top-level statements and class bodies (the code that runs at
   import) are one more function per file, ``<relpath>:<module>``.
2. **Intrinsics** — per function body, detect directly-performed
   effects (wall-clock reads, unseeded RNG, socket/file I/O, blocking
   sleeps, ``global`` mutation, hash-order set iteration).
3. **Call graph** — direct calls, ``self.method()``, attribute calls
   through inferred types (annotations, ``self.attr = ClassName()``,
   local assignments), constructor calls, function references passed
   as arguments (callbacks), and a name-based conservative fallback
   for dynamic dispatch (unioned over every class defining the name,
   minus ubiquitous builtin-container method names).
4. **Fixed point** — ``effects(f) = intrinsic(f) ∪ ⋃ effects(callee)``
   via a worklist.
5. **Contracts** — scope contracts report at the *frontier* (the
   in-scope function where the effect is intrinsic or enters from an
   out-of-scope callee); entry-point contracts (replay-pure handlers
   and compaction rules, marshal-stable paths) report at the root with
   a full witness chain down to the offending primitive.

Known, deliberate imprecision (documented in ``docs/LINTING.md``):
callbacks stored in containers or passed through intermediate
variables are not tracked, and the name-based fallback skips method
names that shadow builtin container methods (``append``, ``get``, …) —
typed resolution is required for those.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.lint.contracts import (
    DECLARED_EFFECTS,
    DECLARED_ENTRY_POINTS,
    DECLARED_PURE,
    LAYER_CONTRACTS,
    MARSHAL_FORBIDS,
    REPLAY_FORBIDS,
    Effect,
    sanctioned_for,
)
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import rule_hint

# ---------------------------------------------------------------------------
# Effect primitive tables
# ---------------------------------------------------------------------------

_WALLCLOCK_TIME_ATTRS = {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns"}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_RNG_MODULE_ATTRS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "seed",
}
_SOCKET_ATTRS = {"socket", "create_connection", "create_server", "socketpair"}
_OS_FS_ATTRS = {
    "open", "fsync", "fdatasync", "remove", "unlink", "rename", "replace",
    "mkdir", "makedirs", "rmdir", "truncate", "ftruncate", "listdir",
    "scandir", "stat", "lstat",
}
_UUID_RANDOM_ATTRS = {"uuid1", "uuid4"}

#: Consumers whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
}

#: Method names too common on builtin containers/strings/files for the
#: name-based dynamic-dispatch fallback to be useful — resolving these
#: by name alone would wire every ``list.append`` to e.g.
#: ``StableLog.append``.  Typed resolution still covers them.
_FALLBACK_BLOCKLIST = {
    "append", "add", "pop", "popleft", "popitem", "update", "discard",
    "clear", "remove", "extend", "insert", "sort", "reverse", "copy",
    "get", "items", "keys", "values", "setdefault", "join", "split",
    "rsplit", "strip", "lstrip", "rstrip", "encode", "decode", "format",
    "startswith", "endswith", "replace", "find", "rfind", "index",
    "count", "lower", "upper", "zfill", "splitlines", "partition",
    "union", "intersection", "difference", "symmetric_difference",
    "issubset", "issuperset", "isdisjoint", "close", "flush", "write",
    "read", "readline", "readlines", "seek", "tell", "fileno", "send",
    "group", "groups", "match", "search", "sub", "findall",
}

_SET_RETURNING_ANN = ("set", "frozenset", "Set", "FrozenSet")


def _qual(relpath: str, cls: Optional[str], name: str) -> str:
    return f"{relpath}:{cls}.{name}" if cls else f"{relpath}:{name}"


def _is_self(expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


def _annotation_name(ann) -> Optional[str]:
    """Principal class name of an annotation: ``set[str]`` -> ``set``,
    ``Optional[Route]`` -> ``Route``, ``"Route"`` -> ``Route``."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value.split("[", 1)[0].strip()
        if text.startswith("Optional"):
            inner = ann.value.split("[", 1)
            if len(inner) == 2:
                return inner[1].rstrip("]").split("[", 1)[0].strip() or None
        return text or None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Subscript):
        head = _annotation_name(ann.value)
        if head == "Optional":
            return _annotation_name(ann.slice)
        return head
    return None


def _is_plain_set_expr(expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
        and not expr.keywords
    )


# ---------------------------------------------------------------------------
# Index structures
# ---------------------------------------------------------------------------


@dataclass
class FunctionInfo:
    qualname: str
    relpath: str
    name: str
    cls: Optional[str]
    node: ast.AST
    lineno: int
    decorators: set[str] = field(default_factory=set)
    #: parameter name -> repo class name (from annotations)
    param_types: dict = field(default_factory=dict)
    #: parameters statically known to be set-typed
    set_params: set = field(default_factory=set)
    #: return annotation names a set type
    returns_set: bool = False


@dataclass
class ClassInfo:
    name: str
    relpath: str
    bases: list
    #: method name -> qualname
    methods: dict = field(default_factory=dict)
    #: attribute name -> "set" or a repo class name
    attr_types: dict = field(default_factory=dict)


@dataclass
class Finding:
    """One contract violation (or baseline bookkeeping entry)."""

    rule: str
    contract: str
    qualname: str
    effect: str
    #: [(qualname, call lineno), ...] from the reported function down to
    #: the function performing the effect
    chain: list
    #: (lineno, description) of the offending primitive
    evidence: tuple
    relpath: str
    lineno: int

    def key(self) -> tuple:
        return (self.rule, self.contract, self.qualname, self.effect)

    def baseline_line(self) -> str:
        return f"{self.rule} {self.contract} {self.qualname} {self.effect}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "contract": self.contract,
            "qualname": self.qualname,
            "effect": self.effect,
            "chain": [list(hop) for hop in self.chain],
            "evidence": list(self.evidence),
            "path": self.relpath,
            "line": self.lineno,
        }


@dataclass
class EffectReport:
    findings: list
    stale_baseline: list
    #: qualname -> frozenset[Effect] (the full fixed point, for tests)
    effects: dict
    #: replay/marshal roots that were discovered, for tests/tools
    replay_roots: set
    marshal_roots: set

    def diagnostics(self) -> list:
        out = []
        for f in self.findings:
            chain = " -> ".join(hop[0].split(":", 1)[1] for hop in f.chain)
            evidence = f"{f.evidence[1]} (line {f.evidence[0]})"
            message = (
                f"[{f.contract}] {f.qualname.split(':', 1)[1]} reaches "
                f"{f.effect}: {evidence}; witness: {chain}"
            )
            out.append(
                Diagnostic(
                    rule=f.rule,
                    severity=Severity.ERROR,
                    path=f.relpath,
                    line=f.lineno,
                    col=0,
                    message=message,
                    hint=rule_hint(f.rule),
                )
            )
        for entry in self.stale_baseline:
            out.append(
                Diagnostic(
                    rule="EFF901",
                    severity=Severity.WARNING,
                    path="lint-effects-baseline.txt",
                    line=0,
                    col=0,
                    message=f"stale baseline entry no longer matches any finding: {entry}",
                    hint=rule_hint("EFF901"),
                )
            )
        return out


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class EffectAnalyzer:
    def __init__(self, sources: dict) -> None:
        #: relpath -> ast.Module
        self.trees = {}
        for relpath, text in sorted(sources.items()):
            self.trees[relpath] = ast.parse(text, filename=relpath)
        #: dotted module name -> relpath
        self.module_map = {}
        for relpath in self.trees:
            dotted = relpath[:-3].replace("/", ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            self.module_map[dotted] = relpath
        self.functions = {}          # qualname -> FunctionInfo
        self.classes = {}            # class name -> [ClassInfo] (collisions kept)
        self.subclasses = {}         # class name -> {subclass names}
        self.methods_by_name = {}    # method name -> {qualnames}
        self.module_functions = {}   # relpath -> {name: qualname}
        self.imports = {}            # relpath -> (module_aliases, from_imports)
        self.visible_modules = {}    # relpath -> {relpaths the module imports}
        self.set_functions = set()   # qualnames returning sets
        self.intrinsics = {}         # qualname -> {Effect: (lineno, desc)}
        self.edges = {}              # qualname -> {callee qualname: lineno}
        self.effects = {}            # qualname -> set[Effect]
        self.replay_roots = set()
        self.marshal_roots = set()

        self._index()
        self._infer()
        self._fixed_point()
        self._discover_roots()

    # -- indexing -----------------------------------------------------------

    def _index(self) -> None:
        for relpath, tree in self.trees.items():
            aliases, froms = {}, {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        aliases[alias.asname or alias.name.split(".")[0]] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for alias in node.names:
                        froms[alias.asname or alias.name] = (node.module, alias.name)
            self.imports[relpath] = (aliases, froms)
            visible = {relpath}
            for dotted in aliases.values():
                target = self.module_map.get(dotted)
                if target:
                    visible.add(target)
            for dotted, orig in froms.values():
                for candidate in (dotted, f"{dotted}.{orig}"):
                    target = self.module_map.get(candidate)
                    if target:
                        visible.add(target)
            self.visible_modules[relpath] = visible

            self.module_functions[relpath] = {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._index_function(relpath, None, node)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(relpath, node)
            self._index_module_body(relpath, tree)

    def _index_module_body(self, relpath, tree) -> None:
        """The statements that run at import — top level and class
        bodies, not function bodies — as the pseudo-function
        ``<relpath>:<module>``.  It is never an entry point."""
        body, pending = [], list(tree.body)
        while pending:
            node = pending.pop()
            if isinstance(node, ast.ClassDef):
                pending.extend(node.body)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body.append(node)
        qualname = _qual(relpath, None, "<module>")
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, relpath=relpath, name="<module>", cls=None,
            node=ast.Module(
                body=sorted(body, key=lambda n: n.lineno), type_ignores=[]
            ),
            lineno=1,
        )

    def _index_function(self, relpath, cls, node) -> FunctionInfo:
        qualname = _qual(relpath, cls, node.name)
        info = FunctionInfo(
            qualname=qualname, relpath=relpath, name=node.name,
            cls=cls, node=node, lineno=node.lineno,
        )
        for dec in node.decorator_list:
            name = None
            if isinstance(dec, ast.Name):
                name = dec.id
            elif isinstance(dec, ast.Attribute):
                name = dec.attr
            elif isinstance(dec, ast.Call):
                if isinstance(dec.func, ast.Name):
                    name = dec.func.id
                elif isinstance(dec.func, ast.Attribute):
                    name = dec.func.attr
            if name:
                info.decorators.add(name)
        for arg in node.args.args + node.args.kwonlyargs:
            type_name = _annotation_name(arg.annotation)
            if type_name in _SET_RETURNING_ANN:
                info.set_params.add(arg.arg)
            elif type_name:
                info.param_types[arg.arg] = type_name
        if _annotation_name(node.returns) in _SET_RETURNING_ANN:
            info.returns_set = True
            self.set_functions.add(qualname)
        self.functions[qualname] = info
        self.methods_by_name.setdefault(node.name, set()).add(qualname)
        if cls is None:
            self.module_functions[relpath][node.name] = qualname
        return info

    def _index_class(self, relpath, node) -> None:
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        cinfo = ClassInfo(name=node.name, relpath=relpath, bases=bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                finfo = self._index_function(relpath, node.name, item)
                cinfo.methods[item.name] = finfo.qualname
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                type_name = _annotation_name(item.annotation)
                if type_name in _SET_RETURNING_ANN:
                    cinfo.attr_types[item.target.id] = "set"
                elif type_name:
                    cinfo.attr_types[item.target.id] = type_name
        # attribute types from `self.x = ...` in any method
        for item in ast.walk(node):
            target = value = None
            if isinstance(item, ast.Assign) and len(item.targets) == 1:
                target, value = item.targets[0], item.value
            elif isinstance(item, ast.AnnAssign) and item.target is not None:
                target, value = item.target, item.value
                if (
                    isinstance(target, ast.Attribute)
                    and _annotation_name(item.annotation) in _SET_RETURNING_ANN
                ):
                    if _is_self(target.value):
                        cinfo.attr_types[target.attr] = "set"
                        continue
            if (
                target is not None and value is not None
                and isinstance(target, ast.Attribute) and _is_self(target.value)
            ):
                if _is_plain_set_expr(value):
                    cinfo.attr_types.setdefault(target.attr, "set")
                elif isinstance(value, ast.Call):
                    ctor = None
                    if isinstance(value.func, ast.Name):
                        ctor = value.func.id
                    elif isinstance(value.func, ast.Attribute):
                        ctor = value.func.attr
                    if ctor and ctor[:1].isupper():
                        cinfo.attr_types.setdefault(target.attr, ctor)
        self.classes.setdefault(node.name, []).append(cinfo)
        for base in bases:
            self.subclasses.setdefault(base, set()).add(node.name)

    # -- class/graph helpers ------------------------------------------------

    def _descendants(self, cls_name: str) -> list:
        out, work = set(), [cls_name]
        while work:
            current = work.pop()
            for sub in sorted(self.subclasses.get(current, ())):
                if sub not in out:
                    out.add(sub)
                    work.append(sub)
        return sorted(out)

    def _ancestors(self, cls_name: str) -> list:
        out, work, seen = [], list(self.classes.get(cls_name, [])), {cls_name}
        while work:
            cinfo = work.pop(0)
            for base in cinfo.bases:
                if base not in seen:
                    seen.add(base)
                    out.append(base)
                    work.extend(self.classes.get(base, []))
        return out

    def _attr_type(self, cls_name: str, attr: str) -> Optional[str]:
        for name in [cls_name] + self._ancestors(cls_name):
            for cinfo in self.classes.get(name, ()):
                if attr in cinfo.attr_types:
                    return cinfo.attr_types[attr]
        return None

    def _resolve_method(self, cls_name: str, method: str, virtual: bool = True) -> list:
        """Method defs on ``cls_name``, its ancestors, and (when
        ``virtual``) every descendant override — the conservative
        dynamic-dispatch union."""
        out = set()
        for name in [cls_name] + self._ancestors(cls_name):
            for cinfo in self.classes.get(name, ()):
                if method in cinfo.methods:
                    out.add(cinfo.methods[method])
        if virtual:
            for sub in self._descendants(cls_name):
                for cinfo in self.classes.get(sub, ()):
                    if method in cinfo.methods:
                        out.add(cinfo.methods[method])
        return sorted(out)

    def _resolve_module_entity(self, relpath: str, dotted: str, name: str):
        """Resolve ``module.name`` to a function qualname or class name."""
        target = self.module_map.get(dotted)
        if target is None:
            return None, None
        qualname = self.module_functions.get(target, {}).get(name)
        if qualname:
            return qualname, None
        for cinfo in self.classes.get(name, ()):
            if cinfo.relpath == target:
                return None, name
        return None, None

    # -- intrinsic effects + local edges ------------------------------------

    def _infer(self) -> None:
        for qualname, info in self.functions.items():
            self.intrinsics[qualname] = {}
            self.edges[qualname] = {}
            self._infer_function(info)

    def _infer_function(self, info: FunctionInfo) -> None:
        relpath = info.relpath
        aliases, froms = self.imports[relpath]
        intrinsic = self.intrinsics[info.qualname]
        edges = self.edges[info.qualname]

        def module_of(node) -> Optional[str]:
            """Dotted module a Name/Attribute expression refers to."""
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
            if isinstance(node, ast.Attribute):
                base = module_of(node.value)
                if base is not None:
                    return f"{base}.{node.attr}"
            return None

        def record(effect: Effect, node, desc: str) -> None:
            intrinsic.setdefault(effect, (node.lineno, desc))

        def add_edge(callee: str, node) -> None:
            edges.setdefault(callee, node.lineno)

        body = info.node.body
        global_names = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)

        # Set-typedness of locals: small fixed point over assignments.
        set_locals = set(info.set_params)
        changed = True
        while changed:
            changed = False
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    name = node.targets[0].id
                    if name not in set_locals and self._is_set_expr(
                        node.value, info, set_locals
                    ):
                        set_locals.add(name)
                        changed = True
                elif (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and _annotation_name(node.annotation) in _SET_RETURNING_ANN
                    and node.target.id not in set_locals
                ):
                    set_locals.add(node.target.id)
                    changed = True

        # Iteration positions consumed order-insensitively are exempt.
        exempt_iters = set()
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE
            ):
                for arg in node.args:
                    exempt_iters.add(id(arg))
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        for gen in arg.generators:
                            exempt_iters.add(id(gen.iter))

        for node in ast.walk(info.node):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                getattr(node, "ctx", None), ast.Store
            ):
                if isinstance(node, ast.Name) and node.id in global_names:
                    record(
                        Effect.GLOBAL_MUTATION, node,
                        f"assigns module global '{node.id}'",
                    )

            if isinstance(node, ast.For):
                if id(node.iter) not in exempt_iters and self._iterates_set(
                    node.iter, info, set_locals
                ):
                    record(
                        Effect.UNORDERED_ITER, node,
                        f"for-loop over set `{ast.unparse(node.iter)}`",
                    )
            elif isinstance(node, ast.SetComp):
                pass  # result is itself a set; order cannot be observed here
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if (
                        id(gen.iter) not in exempt_iters
                        and id(node) not in exempt_iters
                        and self._iterates_set(gen.iter, info, set_locals)
                    ):
                        record(
                            Effect.UNORDERED_ITER, gen.iter,
                            f"comprehension over set `{ast.unparse(gen.iter)}`",
                        )

            if not isinstance(node, ast.Call):
                continue
            func = node.func

            # --- effect primitives ---
            if isinstance(func, ast.Name):
                if func.id == "open":
                    record(Effect.FS_IO, node, "builtin open()")
                origin = froms.get(func.id)
                if origin:
                    dotted, orig = origin
                    if dotted == "time":
                        if orig == "sleep":
                            record(Effect.BLOCKING_SLEEP, node, "time.sleep()")
                        elif orig in _WALLCLOCK_TIME_ATTRS:
                            record(Effect.WALLCLOCK, node, f"time.{orig}()")
                    elif dotted == "random" and orig in _RNG_MODULE_ATTRS:
                        record(Effect.UNSEEDED_RNG, node, f"random.{orig}()")
                    elif dotted == "socket" and orig in _SOCKET_ATTRS:
                        record(Effect.REAL_SOCKET, node, f"socket.{orig}()")
                    elif dotted == "os" and orig in _OS_FS_ATTRS:
                        record(Effect.FS_IO, node, f"os.{orig}()")
                    elif dotted == "os" and orig == "urandom":
                        record(Effect.UNSEEDED_RNG, node, "os.urandom()")
                    elif dotted == "uuid" and orig in _UUID_RANDOM_ATTRS:
                        record(Effect.UNSEEDED_RNG, node, f"uuid.{orig}()")
                    elif dotted == "datetime" and orig in ("datetime", "date"):
                        pass  # constructor with explicit fields: fine
            elif isinstance(func, ast.Attribute):
                dotted = module_of(func.value)
                attr = func.attr
                if dotted == "time":
                    if attr == "sleep":
                        record(Effect.BLOCKING_SLEEP, node, "time.sleep()")
                    elif attr in _WALLCLOCK_TIME_ATTRS:
                        record(Effect.WALLCLOCK, node, f"time.{attr}()")
                elif dotted == "random":
                    if attr in _RNG_MODULE_ATTRS:
                        record(Effect.UNSEEDED_RNG, node, f"random.{attr}()")
                    elif attr == "Random" and not node.args and not node.keywords:
                        record(Effect.UNSEEDED_RNG, node, "random.Random() without a seed")
                    elif attr == "SystemRandom":
                        record(Effect.UNSEEDED_RNG, node, "random.SystemRandom()")
                elif dotted == "socket" and attr in _SOCKET_ATTRS:
                    record(Effect.REAL_SOCKET, node, f"socket.{attr}()")
                elif dotted == "os" and attr in _OS_FS_ATTRS:
                    record(Effect.FS_IO, node, f"os.{attr}()")
                elif dotted == "os" and attr == "urandom":
                    record(Effect.UNSEEDED_RNG, node, "os.urandom()")
                elif dotted == "os.path" and attr in ("exists", "getsize", "getmtime"):
                    record(Effect.FS_IO, node, f"os.path.{attr}()")
                elif dotted == "uuid" and attr in _UUID_RANDOM_ATTRS:
                    record(Effect.UNSEEDED_RNG, node, f"uuid.{attr}()")
                elif dotted == "shutil":
                    record(Effect.FS_IO, node, f"shutil.{attr}()")
                elif dotted in ("datetime", "datetime.datetime", "datetime.date"):
                    if attr in _WALLCLOCK_DATETIME_ATTRS:
                        record(Effect.WALLCLOCK, node, f"{dotted}.{attr}()")
                elif dotted is None and attr in _WALLCLOCK_DATETIME_ATTRS:
                    # `datetime.now()` via `from datetime import datetime`
                    if (
                        isinstance(func.value, ast.Name)
                        and froms.get(func.value.id, ("", ""))[0] == "datetime"
                    ):
                        record(Effect.WALLCLOCK, node, f"datetime.{attr}()")

            # --- call edges ---
            self._add_call_edges(info, node, add_edge)

    def _add_call_edges(self, info, node, add_edge) -> None:
        relpath = info.relpath
        aliases, froms = self.imports[relpath]
        func = node.func

        if isinstance(func, ast.Name):
            name = func.id
            qualname = self.module_functions[relpath].get(name)
            if qualname:
                add_edge(qualname, node)
            elif name in froms:
                dotted, orig = froms[name]
                target_fn, target_cls = self._resolve_module_entity(relpath, dotted, orig)
                if target_fn:
                    add_edge(target_fn, node)
                elif target_cls:
                    for ctor in self._resolve_method(target_cls, "__init__", virtual=False):
                        add_edge(ctor, node)
            elif name in self.classes:
                for cinfo in self.classes[name]:
                    if cinfo.relpath == relpath and "__init__" in cinfo.methods:
                        add_edge(cinfo.methods["__init__"], node)
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            base = func.value
            resolved = False
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
            ):
                # super().method() -> the nearest ancestor definition(s)
                if info.cls:
                    for ancestor in self._ancestors(info.cls):
                        targets = []
                        for cinfo in self.classes.get(ancestor, ()):
                            if attr in cinfo.methods:
                                targets.append(cinfo.methods[attr])
                        if targets:
                            for m in sorted(targets):
                                add_edge(m, node)
                            break
                return
            if isinstance(base, ast.Name):
                dotted = aliases.get(base.id)
                if dotted:
                    target_fn, target_cls = self._resolve_module_entity(relpath, dotted, attr)
                    if target_fn:
                        add_edge(target_fn, node)
                    elif target_cls:
                        for ctor in self._resolve_method(target_cls, "__init__", virtual=False):
                            add_edge(ctor, node)
                    # a module attribute (repo or stdlib) is never a
                    # repo method: do not fall back by name
                    resolved = True
                elif base.id in froms:
                    from_dotted, orig = froms[base.id]
                    # `from repro.net import message` → message.marshal(...)
                    target_fn, target_cls = self._resolve_module_entity(
                        relpath, f"{from_dotted}.{orig}", attr
                    )
                    if target_fn:
                        add_edge(target_fn, node)
                        resolved = True
                    elif orig in self.classes or target_cls:
                        for m in self._resolve_method(target_cls or orig, attr):
                            add_edge(m, node)
                        resolved = True
            type_name = self._static_type(base, info)
            if not resolved and type_name:
                targets = self._resolve_method(type_name, attr)
                if targets:
                    for m in targets:
                        add_edge(m, node)
                    resolved = True
            if (
                not resolved
                and attr not in _FALLBACK_BLOCKLIST
                and not attr.startswith("__")
            ):
                visible = self.visible_modules[relpath]
                for m in sorted(self.methods_by_name.get(attr, ())):
                    if self.functions[m].relpath in visible:
                        add_edge(m, node)

        # Function references passed as callback arguments.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                qualname = self.module_functions[relpath].get(arg.id)
                if qualname:
                    add_edge(qualname, node)
                elif arg.id in froms:
                    dotted, orig = froms[arg.id]
                    target_fn, __ = self._resolve_module_entity(relpath, dotted, orig)
                    if target_fn:
                        add_edge(target_fn, node)
            elif isinstance(arg, ast.Attribute):
                if _is_self(arg.value) and info.cls:
                    for m in self._resolve_method(info.cls, arg.attr):
                        add_edge(m, node)
                else:
                    ref_type = self._static_type(arg.value, info)
                    if ref_type:
                        for m in self._resolve_method(ref_type, arg.attr):
                            add_edge(m, node)

    def _static_type(self, expr, info: FunctionInfo) -> Optional[str]:
        """Best-effort nominal type of ``expr`` (a repo class name)."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return info.cls
            if expr.id in info.param_types:
                return info.param_types[expr.id]
            # local `x = ClassName(...)`
            assigned = self._local_ctor_type(expr.id, info)
            if assigned:
                return assigned
            return None
        if isinstance(expr, ast.Attribute) and _is_self(expr.value) and info.cls:
            attr_type = self._attr_type(info.cls, expr.attr)
            if attr_type and attr_type != "set":
                return attr_type
        return None

    def _local_ctor_type(self, name: str, info: FunctionInfo) -> Optional[str]:
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Call)
            ):
                ctor = node.value.func
                if isinstance(ctor, ast.Name) and ctor.id in self.classes:
                    return ctor.id
                if isinstance(ctor, ast.Attribute) and ctor.attr in self.classes:
                    return ctor.attr
        return None

    # -- set-typedness ------------------------------------------------------

    def _is_set_expr(self, expr, info: FunctionInfo, set_locals) -> bool:
        if _is_plain_set_expr(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in set_locals
        if isinstance(expr, ast.Attribute) and _is_self(expr.value) and info.cls:
            return self._attr_type(info.cls, expr.attr) == "set"
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            # A dict's .keys() keeps insertion order; a set operator on
            # it builds a set.
            return any(
                self._is_set_expr(side, info, set_locals)
                or (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "keys"
                )
                for side in (expr.left, expr.right)
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                qualname = self.module_functions[info.relpath].get(func.id)
                if qualname in self.set_functions:
                    return True
                __, froms = self.imports[info.relpath]
                if func.id in froms:
                    dotted, orig = froms[func.id]
                    target_fn, __cls = self._resolve_module_entity(
                        info.relpath, dotted, orig
                    )
                    if target_fn in self.set_functions:
                        return True
            elif isinstance(func, ast.Attribute):
                if func.attr in (
                    "union", "intersection", "difference", "symmetric_difference",
                ):
                    return self._is_set_expr(func.value, info, set_locals)
                if _is_self(func.value) and info.cls:
                    for m in self._resolve_method(info.cls, func.attr, virtual=False):
                        if m in self.set_functions:
                            return True
        return False

    def _iterates_set(self, iter_expr, info: FunctionInfo, set_locals) -> bool:
        # unwrap list()/tuple() snapshots: list(someset) is still hash order
        expr = iter_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("list", "tuple")
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        return self._is_set_expr(expr, info, set_locals)

    # -- fixed point --------------------------------------------------------

    def _fixed_point(self) -> None:
        declared = {}
        for key, effects in DECLARED_EFFECTS.items():
            declared[key] = set(effects)
        for qualname in self.functions:
            if qualname in DECLARED_PURE:
                self.effects[qualname] = set()
            elif qualname in declared:
                self.effects[qualname] = set(declared[qualname])
            else:
                self.effects[qualname] = set(self.intrinsics[qualname])

        callers = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)

        work = list(self.functions)
        pending = set(work)
        while work:
            qualname = work.pop()
            pending.discard(qualname)
            if qualname in DECLARED_PURE or qualname in declared:
                continue
            merged = set(self.intrinsics[qualname])
            for callee in self.edges[qualname]:
                merged |= self.effects.get(callee, set())
            if merged != self.effects[qualname]:
                self.effects[qualname] = merged
                for caller in sorted(callers.get(qualname, ())):
                    if caller not in pending:
                        pending.add(caller)
                        work.append(caller)

    # -- entry-point discovery ----------------------------------------------

    def _discover_roots(self) -> None:
        # 1. decorators, with override propagation through subclasses
        decorated_replay, decorated_marshal = [], []
        for qualname, info in self.functions.items():
            if "replay_pure" in info.decorators:
                decorated_replay.append(info)
            if "marshal_stable" in info.decorators:
                decorated_marshal.append(info)
        for roots, decorated in (
            (self.replay_roots, decorated_replay),
            (self.marshal_roots, decorated_marshal),
        ):
            for info in decorated:
                roots.add(info.qualname)
                if info.cls:
                    for sub in self._descendants(info.cls):
                        for cinfo in self.classes.get(sub, ()):
                            if info.name in cinfo.methods:
                                roots.add(cinfo.methods[info.name])

        # 2. `<expr>.register("service", self.method)` call sites
        for qualname, info in self.functions.items():
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and len(node.args) >= 2
                ):
                    continue
                handler = node.args[1]
                if (
                    isinstance(handler, ast.Attribute)
                    and _is_self(handler.value)
                    and info.cls
                ):
                    for m in self._resolve_method(info.cls, handler.attr):
                        self.replay_roots.add(m)

        # 3. declared tables + wire-method naming convention
        for key, kind in DECLARED_ENTRY_POINTS.items():
            if key in self.functions:
                (self.marshal_roots if kind == "marshal" else self.replay_roots).add(key)
        for qualname, info in self.functions.items():
            if info.name in ("to_wire", "from_wire"):
                self.marshal_roots.add(qualname)

    # -- witness chains ------------------------------------------------------

    def witness(self, root: str, effect: Effect):
        """BFS from ``root`` to the nearest function where ``effect`` is
        intrinsic or declared; returns ([(qualname, lineno)...], evidence)."""
        parents = {root: None}
        queue = [root]
        terminal = None
        while queue:
            current = queue.pop(0)
            if effect in self.intrinsics.get(current, {}) or effect in DECLARED_EFFECTS.get(
                current, ()
            ):
                terminal = current
                break
            for callee in sorted(self.edges.get(current, {})):
                if callee in parents:
                    continue
                if effect in self.effects.get(callee, set()):
                    parents[callee] = current
                    queue.append(callee)
        if terminal is None:
            return [(root, self.functions[root].lineno)], (
                self.functions[root].lineno, effect.value,
            )
        chain = []
        current = terminal
        while current is not None:
            prev = parents[current]
            lineno = (
                self.edges[prev][current] if prev is not None
                else self.functions[root].lineno
            )
            chain.append((current, lineno))
            current = prev
        chain.reverse()
        if effect in self.intrinsics.get(terminal, {}):
            evidence = self.intrinsics[terminal][effect]
        else:
            evidence = (
                self.functions[terminal].lineno,
                f"declared effect on {terminal}",
            )
        return chain, evidence

    # -- contract checking ---------------------------------------------------

    def check(self) -> list:
        findings = []
        seen = set()

        def emit(rule, contract, qualname, effect):
            info = self.functions[qualname]
            chain, evidence = self.witness(qualname, effect)
            finding = Finding(
                rule=rule, contract=contract, qualname=qualname,
                effect=effect.value, chain=chain, evidence=evidence,
                relpath=info.relpath, lineno=info.lineno,
            )
            if finding.key() not in seen:
                seen.add(finding.key())
                findings.append(finding)

        # scope contracts: report at the frontier, once per function and
        # effect (the first contract in LAYER_CONTRACTS order names it)
        reported = set()
        for contract in LAYER_CONTRACTS:
            for qualname, info in self.functions.items():
                if not contract.covers(info.relpath):
                    continue
                for effect in sorted(
                    self.effects[qualname] & contract.forbids, key=lambda e: e.value
                ):
                    if any(
                        info.relpath.endswith(p) or info.relpath == p
                        for p in sanctioned_for(effect)
                    ):
                        continue
                    frontier = effect in self.intrinsics[qualname] or effect in set(
                        DECLARED_EFFECTS.get(qualname, ())
                    )
                    if not frontier:
                        for callee in self.edges[qualname]:
                            callee_info = self.functions.get(callee)
                            if (
                                callee_info is not None
                                and effect in self.effects.get(callee, set())
                                and not contract.covers(callee_info.relpath)
                            ):
                                frontier = True
                                break
                    if frontier and (qualname, effect) not in reported:
                        reported.add((qualname, effect))
                        emit("EFF101", contract.name, qualname, effect)

        # replay-pure entry points
        for root in sorted(self.replay_roots):
            if root not in self.functions:
                continue
            for effect in sorted(
                self.effects[root] & REPLAY_FORBIDS, key=lambda e: e.value
            ):
                emit("EFF201", "replay-pure", root, effect)

        # marshal-stable entry points
        for root in sorted(self.marshal_roots):
            if root not in self.functions:
                continue
            for effect in sorted(
                self.effects[root] & MARSHAL_FORBIDS, key=lambda e: e.value
            ):
                emit("EFF301", "marshal-stable", root, effect)

        findings.sort(key=lambda f: (f.relpath, f.lineno, f.rule, f.effect))
        return findings


# ---------------------------------------------------------------------------
# Baseline files
# ---------------------------------------------------------------------------


def load_baseline(path: str) -> list:
    """Baseline lines: ``RULE contract qualname EFFECT``; ``#`` comments."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed baseline line: {raw.strip()!r}")
            entries.append(tuple(parts))
    return entries


def apply_baseline(findings: list, entries: list) -> tuple:
    """Split findings into (unsanctioned, stale-baseline-entries)."""
    keys = {f.key(): f for f in findings}
    sanctioned = set()
    stale = []
    for entry in entries:
        if entry in keys:
            sanctioned.add(entry)
        else:
            stale.append(" ".join(entry))
    remaining = [f for f in findings if f.key() not in sanctioned]
    return remaining, stale


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _source_root(path: str) -> str:
    """Given any path into the tree, find the directory containing the
    top-level ``repro`` package so relpaths read ``repro/...``."""
    absolute = os.path.abspath(path)
    current = absolute if os.path.isdir(absolute) else os.path.dirname(absolute)
    while True:
        if os.path.basename(current) == "repro" and os.path.isfile(
            os.path.join(current, "__init__.py")
        ):
            return os.path.dirname(current)
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.dirname(absolute) or "."
        current = parent


def collect_sources(paths: Iterable) -> dict:
    sources = {}
    for path in paths:
        root = _source_root(path)
        if os.path.isfile(path):
            relpath = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                sources[relpath] = handle.read()
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                relpath = os.path.relpath(os.path.abspath(full), root).replace(
                    os.sep, "/"
                )
                with open(full, encoding="utf-8") as handle:
                    sources[relpath] = handle.read()
    return sources


def analyze_sources(sources: dict, baseline_entries: Optional[list] = None) -> EffectReport:
    """Run the full pipeline over ``{relpath: source}`` (for tests)."""
    analyzer = EffectAnalyzer(sources)
    findings = analyzer.check()
    stale = []
    if baseline_entries is not None:
        findings, stale = apply_baseline(findings, baseline_entries)
    return EffectReport(
        findings=findings,
        stale_baseline=stale,
        effects={q: frozenset(e) for q, e in analyzer.effects.items()},
        replay_roots=set(analyzer.replay_roots),
        marshal_roots=set(analyzer.marshal_roots),
    )


def analyze_paths(paths: Iterable, baseline_path: Optional[str] = None) -> EffectReport:
    entries = None
    if baseline_path and os.path.isfile(baseline_path):
        entries = load_baseline(baseline_path)
    return analyze_sources(collect_sources(paths), entries)


def write_json(report: EffectReport, path: str) -> None:
    payload = {
        "findings": [f.to_json() for f in report.findings],
        "stale_baseline": list(report.stale_baseline),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
