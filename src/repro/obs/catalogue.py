"""Every metric family the toolkit can register, generated from its source.

A family is declared in a component class's ``METRICS`` table (its
label names are those of the class's ``registry.expose(self, {...})``
call) or by a ``registry.counter(...)`` / ``registry.histogram(...)``
call with a literal name.  ``python -m repro.obs catalogue`` prints
them; ``docs/OBSERVABILITY.md`` carries the output, and a test fails
when the two drift apart.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import repro
from repro.obs.metrics import _plan


def _calls(node: ast.AST, method: str):
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == method:
            yield call


def families() -> list[tuple[str, str, tuple[str, ...], str]]:
    """``(name, kind, label names, help)`` of every family, by name."""
    found = {}
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                getattr(target, "id", None) == "METRICS"
                for stmt in node.body if isinstance(stmt, ast.Assign) for target in stmt.targets
            ):
                cls = getattr(importlib.import_module(module.removesuffix(".__init__")), node.name)
                expose = next(_calls(node, "expose"))
                labels = tuple(ast.literal_eval(key) for key in expose.args[1].keys)
                for family in _plan(cls, labels).families:
                    found[family.name] = (family.name, family.kind, family.labelnames, family.help)
        for kind in ("counter", "histogram"):
            for call in _calls(tree, kind):
                keywords = {keyword.arg: keyword.value for keyword in call.keywords}
                name, help_text = (ast.literal_eval(arg) for arg in call.args[:2])
                found[name] = (
                    name, kind, ast.literal_eval(keywords.get("labelnames", ast.Tuple([]))),
                    help_text,
                )
    return [found[name] for name in sorted(found)]


def render() -> str:
    """One line a family: name, kind, label names, help (``-``: none)."""
    rows = [
        (name, kind, ",".join(labels) or "-", help_text or "-")
        for name, kind, labels, help_text in families()
    ]
    widths = [max(len(row[column]) for row in rows) for column in range(3)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + f"  {row[3]}\n"
        for row in rows
    )
