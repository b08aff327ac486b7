"""``make reach``: which functions of ``src/repro`` does anything run?

Recorder — in a process started with ``REACH_DIR`` set and ``tools/`` on
``PYTHONPATH`` (``sitecustomize`` arms it), every code object called on
any thread is noted, and at exit those under ``src/repro`` are written
to ``$REACH_DIR/<tag>.<pid>``: one file per process and tag, so commands
that spawn Pythons of their own are covered.  The tag is ``$REACH_TAG``
(default ``drivers``), except under pytest: it is also a pytest plugin
(``PYTEST_PLUGINS=reach``) that tags what each collector and each test
calls by its path -- ``tests/`` as ``tests``, anything else
(``benchmarks/``) as ``drivers``, whichever make target ran it -- and
re-arms the hook before every test: a test that installs a profile hook
of its own (``tests/test_speed.py`` does) would otherwise end the
recording there, silently.

Report — ``python tools/reach.py`` lists every ``def`` under
``src/repro`` that no recorded process called, then those only
processes tagged ``tests`` called: each with its line span, then the
lines per file (a nested def's lines counted once), so the deletion
ledger is sized in lines.  An interface stub that no driver called (a
body that is only ``raise NotImplementedError`` or ``...``, after any
docstring) is a declaration, not a deletion candidate: it is listed
apart, last.  The last line sums the three lists.
"""

import ast
import atexit
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: tag -> code objects called while it was the tag.
_called: dict = {}


def _use(tag):
    global _current
    os.environ["REACH_TAG"] = tag  # and the Pythons a test starts
    _current = _called.setdefault(tag, set())


_use(os.environ.get("REACH_TAG", "drivers"))


def _note(frame, event, arg):
    if event == "call":
        _current.add(frame.f_code)


def arm():
    atexit.unregister(_dump)  # armed again and again: one dump
    atexit.register(_dump)
    sys.setprofile(_note)
    threading.setprofile(_note)


def _tag(path):
    return "tests" if Path(path).resolve().is_relative_to(ROOT / "tests") else "drivers"


def pytest_collectstart(collector):
    _use(_tag(collector.path))


def pytest_runtest_setup(item):
    _use(_tag(item.path))
    arm()


def _dump():
    sys.setprofile(None)
    root = str(SRC) + os.sep
    for tag, called in _called.items():
        lines = {
            f"{code.co_filename[len(root):]}:{code.co_firstlineno}"
            for code in list(called)
            if code.co_filename.startswith(root)
        }
        out = Path(os.environ["REACH_DIR"]) / f"{tag}.{os.getpid()}"
        out.write_text("\n".join(sorted(lines)))


def _is_stub(node):
    """Is ``node``'s body, after any docstring, only ``...`` or ``raise
    NotImplementedError``?"""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis
    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _defs(tree, prefix=""):
    """``(first line, last line, qualified name, stub?)`` of every def;
    the first line is the one its code object is numbered by."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, node.end_lineno, prefix + node.name, _is_stub(node)
            yield from _defs(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        else:
            yield from _defs(node, prefix)


def report(reach_dir):
    called = {"tests": set(), "drivers": set()}
    for path in Path(reach_dir).iterdir():
        tag = "tests" if path.name.startswith("tests.") else "drivers"
        called[tag].update(path.read_text().split())
    # title -> file -> [(first, last, name)]
    found = {"reached by nothing": {}, "reached by tests/ only": {}, "interface stubs": {}}
    for source in sorted(SRC.rglob("*.py")):
        rel = str(source.relative_to(SRC))
        for first, last, name, stub in _defs(ast.parse(source.read_text())):
            key = f"{rel}:{first}"
            if key in called["drivers"]:
                continue
            if stub:
                title = "interface stubs"
            else:
                title = "reached by tests/ only" if key in called["tests"] else "reached by nothing"
            found[title].setdefault(rel, []).append((first, last, name))
    totals = []
    for title, files in found.items():
        lines = {rel: len(set().union(*(range(a, b + 1) for a, b, __ in defs)))
                 for rel, defs in files.items()}
        count = sum(len(defs) for defs in files.values())
        totals.append(f"{title} {count} defs / {sum(lines.values())} lines")
        print(f"== {title}: {count} functions, {sum(lines.values())} lines")
        for rel, defs in files.items():
            for first, last, name in defs:
                print(f"  {rel}:{first}-{last} ({last - first + 1}) {name}")
        print(f"-- {title}, lines per file")
        for rel in sorted(lines, key=lambda rel: (-lines[rel], rel)):
            print(f"  {lines[rel]:5} {rel}")
    print("reach: " + "; ".join(totals))


if __name__ == "__main__":
    report(sys.argv[1] if len(sys.argv) > 1 else ".reach")
