"""``python -m repro.lint`` — the command-line front end.

Three modes:

* ``python -m repro.lint src/repro`` — run the whole-program effect
  analyzer over a file tree and check the determinism and layer
  contracts (witness call chains on violation; sanctioned escapes live
  in ``lint-effects-baseline.txt``) — the self-clean CI gate;
* ``python -m repro.lint --rdos`` — import the example applications and
  run the RDO static verifier over every published (code, interface)
  pair they define;
* ``python -m repro.lint --rules`` — print the rule catalogue.

Exit status is 0 when no ERROR-severity findings, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
from typing import Optional

from repro.lint.diagnostics import (
    Diagnostic,
    errors_only,
    format_diagnostics,
)
from repro.lint.effects import analyze_paths, write_json
from repro.lint.rules import RULES
from repro.lint.verifier import verify_rdo

#: Modules scanned by ``--rdos`` when none are named: every example
#: application that publishes RDO code.
DEFAULT_RDO_MODULES = (
    "repro.apps.mail",
    "repro.apps.calendar",
    "repro.apps.webproxy",
    "repro.bench.experiments",
    "repro.workloads.fleet",
)


def collect_module_rdos(module_name: str) -> list[tuple[str, str, object]]:
    """Find (label, code, interface) pairs published by a module.

    The convention across the example apps: module-level ``*_CODE``
    string constants paired with same-prefix ``*_INTERFACE`` objects
    (public or underscore-private).
    """
    module = importlib.import_module(module_name)
    pairs = []
    for attr in sorted(vars(module)):
        if not attr.endswith("_CODE"):
            continue
        code = getattr(module, attr)
        if not isinstance(code, str):
            continue
        interface = getattr(module, attr[: -len("_CODE")] + "_INTERFACE", None)
        if interface is None:
            continue
        pairs.append((f"{module_name}:{attr}", code, interface))
    return pairs


def verify_modules(module_names: list[str]) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for module_name in module_names:
        for label, code, interface in collect_module_rdos(module_name):
            findings += verify_rdo(code, interface, path=label)
    return findings


def _print_rules() -> None:
    width = max(len(rule) for rule in RULES)
    for rule, (summary, hint) in sorted(RULES.items()):
        print(f"{rule:<{width}}  {summary}")
        if hint:
            print(f"{'':<{width}}    fix: {hint}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static RDO verifier + whole-program effect analyzer",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories for the effect analyzer",
    )
    parser.add_argument(
        "--rdos", nargs="*", metavar="MODULE", default=None,
        help="verify the RDOs published by these modules "
             f"(default when bare: {', '.join(DEFAULT_RDO_MODULES)})",
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--warnings-as-errors", action="store_true",
        help="exit non-zero on WARNING findings too",
    )
    parser.add_argument(
        "--effects-baseline", default="lint-effects-baseline.txt",
        metavar="FILE",
        help="baseline of sanctioned effect escapes (default: "
             "lint-effects-baseline.txt; missing file = empty baseline)",
    )
    parser.add_argument(
        "--effects-json", metavar="FILE", default=None,
        help="dump the effect findings as JSON to FILE "
             "(written on both success and failure, for CI artifacts)",
    )
    args = parser.parse_args(argv)

    if args.rules:
        _print_rules()
        return 0

    if not args.paths and args.rdos is None:
        parser.error("nothing to do: pass paths to analyse and/or --rdos")

    findings: list[Diagnostic] = []
    if args.paths:
        report = analyze_paths(args.paths, baseline_path=args.effects_baseline)
        findings += report.diagnostics()
        if args.effects_json:
            write_json(report, args.effects_json)
    if args.rdos is not None:
        findings += verify_modules(list(args.rdos) or list(DEFAULT_RDO_MODULES))

    if findings:
        print(format_diagnostics(findings))
    gating = findings if args.warnings_as_errors else errors_only(findings)
    errors = len(errors_only(findings))
    warnings = len(findings) - errors
    print(f"repro.lint: {errors} error(s), {warnings} warning(s)")
    return 1 if gating else 0
