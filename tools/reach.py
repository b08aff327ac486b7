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
processes tagged ``tests`` called.
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
    """``(first line, qualified name)`` of every def, as code objects number them."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, prefix + node.name
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
    by_nothing, by_tests_only = [], []
    for source in sorted(SRC.rglob("*.py")):
        rel = source.relative_to(SRC)
        for first, name in _defs(ast.parse(source.read_text())):
            key = f"{rel}:{first}"
            if key not in called["drivers"]:
                (by_tests_only if key in called["tests"] else by_nothing).append(f"  {key} {name}")
    for title, rows in (("reached by nothing", by_nothing), ("reached by tests/ only", by_tests_only)):
        print(f"== {title}: {len(rows)} functions")
        print("\n".join(rows))


if __name__ == "__main__":
    report(sys.argv[1] if len(sys.argv) > 1 else ".reach")
