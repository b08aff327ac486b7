"""``make reach``: which functions of ``src/repro`` does anything run?

Recorder — in a process started with ``REACH_DIR`` set and ``tools/`` on
``PYTHONPATH`` (``sitecustomize`` arms it), every code object called on
any thread is noted, and at exit those under ``src/repro`` are written
to ``$REACH_DIR/$REACH_TAG.<pid>``: one file per process, so commands
that spawn Pythons of their own are covered.  It is also a pytest plugin
(``PYTEST_PLUGINS=reach``) re-arming the hook before every test: a test
that installs a profile hook of its own (``tests/test_speed.py`` does)
would otherwise end the recording there, silently.

Report — ``python tools/reach.py`` lists every ``def`` under
``src/repro`` that no recorded process called, then those only
processes tagged ``tests`` called: each with its line span, then the
lines per file (a nested def's lines counted once), so the deletion
ledger is sized in lines.
"""

import ast
import atexit
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_called: set = set()


def _note(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def arm():
    atexit.unregister(_dump)  # armed again and again: one dump
    atexit.register(_dump)
    sys.setprofile(_note)
    threading.setprofile(_note)


def pytest_runtest_setup(item):
    arm()


def _dump():
    sys.setprofile(None)
    root = str(SRC) + os.sep
    lines = {
        f"{code.co_filename[len(root):]}:{code.co_firstlineno}"
        for code in list(_called)
        if code.co_filename.startswith(root)
    }
    out = Path(os.environ["REACH_DIR"]) / f"{os.environ.get('REACH_TAG', 'drivers')}.{os.getpid()}"
    out.write_text("\n".join(sorted(lines)))


def _defs(tree, prefix=""):
    """``(first line, last line, qualified name)`` of every def; the
    first line is the one its code object is numbered by."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, node.end_lineno, prefix + node.name
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
    found = {"reached by nothing": {}, "reached by tests/ only": {}}
    for source in sorted(SRC.rglob("*.py")):
        rel = str(source.relative_to(SRC))
        for first, last, name in _defs(ast.parse(source.read_text())):
            key = f"{rel}:{first}"
            if key not in called["drivers"]:
                title = "reached by tests/ only" if key in called["tests"] else "reached by nothing"
                found[title].setdefault(rel, []).append((first, last, name))
    for title, files in found.items():
        lines = {rel: len(set().union(*(range(a, b + 1) for a, b, __ in defs)))
                 for rel, defs in files.items()}
        count = sum(len(defs) for defs in files.values())
        print(f"== {title}: {count} functions, {sum(lines.values())} lines")
        for rel, defs in files.items():
            for first, last, name in defs:
                print(f"  {rel}:{first}-{last} ({last - first + 1}) {name}")
        print(f"-- {title}, lines per file")
        for rel in sorted(lines, key=lambda rel: (-lines[rel], rel)):
            print(f"  {lines[rel]:5} {rel}")


if __name__ == "__main__":
    report(sys.argv[1] if len(sys.argv) > 1 else ".reach")
