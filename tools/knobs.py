"""``make knobs``: defaulted parameters that no caller outside ``tests/`` sets.

Lists every parameter with a default of a ``def`` under ``src/repro``
that no call under ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/`` passes, by keyword or by position, one line each as
``file:line def param=default``, then the count.  The match is by name
only: a call passes the parameters of every ``def`` with the called
name (a class's name stands for its ``__init__``, and
``super().__init__`` for its bases'), and a ``*`` or ``**`` splat in a
call passes all of them.  A method's ``self`` or ``cls`` takes no
positional argument.  It reports; it gates nothing::

    python tools/knobs.py
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples", "perfbench")


def _defs(tree):
    """(def node, the name a call uses for it, is it a method)."""
    def visit(body, cls):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                name = cls if cls is not None and node.name == "__init__" else node.name
                yield node, name, cls is not None and not static
                yield from visit(node.body, None)
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from visit(getattr(node, field, None) or [], cls)
    yield from visit(tree.body, None)


def _called_names(call, bases):
    """The def names a call may reach."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    target = func.value
    if (func.attr == "__init__" and isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name) and target.func.id == "super"):
        return bases
    return [func.attr]


def _passed(trees):
    """name -> (most positional arguments, keywords, splat seen)."""
    passed: dict = {}

    def visit(node, bases):
        if isinstance(node, ast.ClassDef):
            bases = [ast.unparse(base).rpartition(".")[2] for base in node.bases]
        elif isinstance(node, ast.Call):
            for name in _called_names(node, bases):
                n_pos, keywords, splat = passed.get(name, (0, set(), False))
                splat = splat or any(isinstance(a, ast.Starred) for a in node.args)
                for keyword in node.keywords:
                    if keyword.arg is None:
                        splat = True
                    else:
                        keywords.add(keyword.arg)
                passed[name] = (max(n_pos, len(node.args)), keywords, splat)
        for child in ast.iter_child_nodes(node):
            visit(child, bases)

    for tree in trees:
        visit(tree, [])
    return passed


def unset_knobs():
    """Every (path, line, def name, param, default source) no caller sets."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    passed = _passed(trees.values())
    found = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        for node, name, method in _defs(tree):
            args = node.args
            positional = args.posonlyargs + args.args
            if method:
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            params = [(index, arg, default) for index, (arg, default)
                      in enumerate(zip(positional[first:], args.defaults), first)]
            params += [(None, arg, default)
                       for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            n_pos, keywords, splat = passed.get(name, (0, (), False))
            for index, arg, default in params:
                if splat or arg.arg in keywords or (index is not None and index < n_pos):
                    continue
                found.append((path.relative_to(ROOT), node.lineno, node.name,
                              arg.arg, ast.unparse(default)))
    return found


def main() -> int:
    found = unset_knobs()
    for path, line, name, param, default in found:
        print(f"{path}:{line} {name} {param}={default}")
    print(f"{len(found)} defaulted parameters no caller outside tests/ sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
