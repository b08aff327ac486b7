"""A host verifies a class once.

Every verification a host runs -- publishing (``RoverServer.put_object``),
serving a ship (``RoverServer._on_ship``) and the client's own check
before a ship is logged (``AccessManager.ship``) -- goes through
``SafeInterpreter.verify``, which remembers the classes that passed,
keyed by source, interface and extra names.  These tests hold the table
to being a pure cache: the same answer as a fresh verification for every
class the tree defines, under its real interface and under lying ones.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.apps.mail import MailServerApp
from repro.core import interpreter as interpreter_module
from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface, RDOVerificationError
from repro.core.server import SHIP_ENV_NAMES
from repro.lint.cli import DEFAULT_RDO_MODULES, collect_module_rdos
from repro.lint.diagnostics import Diagnostic, Severity, errors_only, sort_diagnostics
from repro.lint.rules import rule_hint
from repro.lint.verifier import (
    check_bounded_loops,
    check_code,
    check_marshallable_returns,
    check_mutation_purity,
    check_names,
    check_whitelist,
    verify_rdo,
)
from repro.workloads.generators import MailCorpus, MailMessage
from tests.test_robustness import ESCAPE_ATTEMPTS, HIDDEN_WRITES, HOSTILE_RESULTS, HOSTILE_SPINS

ROOT = Path(__file__).parent.parent


def _defined_interface(source: str, mutates: bool = False) -> RDOInterface:
    """Every top-level function of ``source`` as a method."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return RDOInterface([])
    return RDOInterface([
        MethodSpec(node.name, mutates=mutates)
        for node in tree.body if isinstance(node, ast.FunctionDef)
    ])


def _example_classes() -> list:
    """(label, code, interface) for each ``*_CODE`` / ``*_INTERFACE``
    pair an example defines (their ``main`` is behind ``__main__``)."""
    classes = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name in sorted(vars(module)):
            if not name.endswith("_CODE"):
                continue
            interface = getattr(module, name[: -len("_CODE")] + "_INTERFACE", None)
            if isinstance(interface, RDOInterface):
                classes.append((f"{path.name}:{name}", getattr(module, name), interface))
    return classes


def _hostile_sources() -> list:
    return [
        *ESCAPE_ATTEMPTS, *HOSTILE_SPINS.values(), *HOSTILE_RESULTS.values(),
        *HIDDEN_WRITES.values(),
    ]


def _classes() -> list:
    """Every class the apps, the examples and the experiments publish,
    then the hostile corpus under the interface of what it defines."""
    classes = [
        entry
        for module in (*DEFAULT_RDO_MODULES, "repro.check.scenarios")
        for entry in collect_module_rdos(module)
    ]
    classes += _example_classes()
    classes += [
        (f"hostile:{index}", source, _defined_interface(source))
        for index, source in enumerate(_hostile_sources())
    ]
    return classes


def _lies(interface: RDOInterface) -> list:
    """The interface with one ``mutates`` flag flipped, with a method
    added, and with one dropped."""
    specs = list(interface.values())
    lies = [RDOInterface([*specs, MethodSpec("ghost")])]
    if specs:
        first = specs[0]
        lies.append(RDOInterface(
            [MethodSpec(first.name, not first.mutates, first.doc), *specs[1:]]
        ))
        lies.append(RDOInterface(specs[:-1]))
    return lies


CLASSES = _classes()


def test_the_corpus_holds_the_apps_and_the_examples():
    labels = {label for label, _, _ in CLASSES}
    assert {"repro.apps.mail:_MESSAGE_CODE", "repro.apps.mail:_FOLDER_CODE",
            "quickstart.py:NOTE_CODE", "hoarding.py:NOTE_CODE"} <= labels


def test_a_cached_verdict_is_a_fresh_verification():
    """One interpreter over the whole corpus, each class asked twice
    under its real interface, under every lie, and as shipped code: the
    answer is always the one a fresh verification gives."""
    interp = SafeInterpreter()
    for label, code, interface in CLASSES:
        for iface in (interface, *_lies(interface)):
            fresh = errors_only(verify_rdo(code, iface, path=label))
            for _ in range(2):
                assert interp.verify(code, iface, path=label) == fresh, label
        fresh = errors_only(check_code(code, path=label, extra_names=SHIP_ENV_NAMES))
        for _ in range(2):
            assert interp.verify(code, path=label, extra_names=SHIP_ENV_NAMES) == fresh, label
    assert interp.verdict_evictions == 0  # the corpus fits: every hit was a hit


def test_only_passing_verdicts_are_remembered():
    interp = SafeInterpreter()
    for label, code, interface in CLASSES:
        interp.verify(code, interface, path=label)
    remembered = {(code, specs) for code, specs, _ in interp._verdicts}
    for label, code, interface in CLASSES:
        passed = not errors_only(verify_rdo(code, interface, path=label))
        assert ((code, tuple(interface.values())) in remembered) is passed, label


@pytest.mark.parametrize(
    "label", ["repro.apps.mail:_MESSAGE_CODE", "repro.apps.mail:_FOLDER_CODE",
              "repro.apps.calendar:_CALENDAR_CODE", "quickstart.py:NOTE_CODE"]
)
def test_a_class_that_passed_is_still_rejected_under_a_lying_interface(ethernet_bed, label):
    _, code, interface = next(entry for entry in CLASSES if entry[0] == label)
    server = ethernet_bed.server
    server.put_object(RDO(URN("server", "honest"), "t", {}, code=code, interface=interface))
    mutating = next(spec for spec in interface.values() if spec.mutates)
    hidden = RDOInterface([
        MethodSpec(spec.name, spec.mutates and spec is not mutating, spec.doc)
        for spec in interface.values()
    ])
    missing = RDOInterface([*interface.values(), MethodSpec("ghost")])
    for path, lie, rule in [("hidden", hidden, "RDO201"), ("missing", missing, "RDO203")]:
        with pytest.raises(RDOVerificationError) as excinfo:
            server.put_object(RDO(URN("server", path), "t", {}, code=code, interface=lie))
        assert rule in {d.rule for d in excinfo.value.diagnostics}
        assert excinfo.value.diagnostics == errors_only(
            verify_rdo(code, lie, path=f"<rdo:urn:rover:server/{path}>")
        )
    assert server.rdos_rejected == 2


def test_a_rejected_class_is_rejected_on_every_put_with_its_own_urn(ethernet_bed):
    server = ethernet_bed.server
    code = "def sneak(state):\n    state['x'] = 1\n"
    interface = RDOInterface([MethodSpec("sneak")])
    for n in range(3):
        urn = URN("server", f"notes/bad{n}")
        with pytest.raises(RDOVerificationError) as excinfo:
            server.put_object(RDO(urn, "note", {"x": 0}, code=code, interface=interface))
        assert [d.path for d in excinfo.value.diagnostics] == [f"<rdo:{urn}>"]
        assert server.get_object(str(urn)) is None
    assert server.rdos_rejected == 3


def _count_verifier_runs(monkeypatch) -> list:
    runs = []
    real = interpreter_module.verify_rdo

    def counted(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(interpreter_module, "verify_rdo", counted)
    return runs


def test_a_forty_message_folder_is_verified_twice(ethernet_bed, monkeypatch):
    runs = _count_verifier_runs(monkeypatch)
    corpus = MailCorpus({
        "inbox": [MailMessage(f"m{n}", "a@b", f"subject {n}", "body") for n in range(40)]
    })
    MailServerApp(ethernet_bed.server, corpus)
    assert len(runs) == 2  # the folder class and the message class, not 41
    assert len(ethernet_bed.server.objects) == 41


def test_the_client_checks_a_ship_once(ethernet_bed, monkeypatch):
    runs = _count_verifier_runs(monkeypatch)
    code = "def main():\n    return len(objects(''))\n"
    promises = [ethernet_bed.access.ship("server", code) for _ in range(3)]
    for promise in promises:
        promise.wait(ethernet_bed.sim)
    assert runs == [code, code]  # the client's desk once, the server once
    assert ethernet_bed.server.ships_served == 3


def test_evictions_are_counted_and_an_evicted_class_is_verified_again(monkeypatch):
    runs = _count_verifier_runs(monkeypatch)
    interp = SafeInterpreter()
    interp.CODE_CACHE_MAX = 4
    sources = [f"def f{n}(state):\n    return {n}\n" for n in range(6)]
    for source in sources:
        assert interp.verify(source) == []
        interp.load(source)
    assert (interp.verdict_evictions, interp.code_cache_evictions) == (2, 2)
    assert len(interp._verdicts) == len(interp._code_cache) == 4
    assert len(runs) == 6

    assert interp.verify(sources[-1]) == []  # still held: no run
    assert len(runs) == 6
    assert interp.verify(sources[0]) == []  # evicted first: verified again
    assert runs[6:] == [sources[0]]
    assert interp.verdict_evictions == 3


# ---------------------------------------------------------------------------
# verify_rdo parses once
# ---------------------------------------------------------------------------


def _two_parse_verify_rdo(code, interface, path):
    """``verify_rdo`` as it was: the whole-code rules on one parse, then
    a second parse for the interface's mutation-purity check."""
    if not code:
        return []
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="RDO100", severity=Severity.ERROR, path=path, line=exc.lineno or 0,
            col=(exc.offset or 1) - 1, message=f"syntax error: {exc.msg}",
            hint=rule_hint("RDO100"),
        )]
    findings = sort_diagnostics(
        check_whitelist(tree, path) + check_names(tree, path)
        + check_bounded_loops(tree, path) + check_marshallable_returns(tree, path)
    )
    if interface is not None:
        findings += check_mutation_purity(ast.parse(code), interface, path)
    return sort_diagnostics(findings)


def _lint_verifier_sources() -> list:
    """Every multi-line string constant ``tests/test_lint_verifier.py``
    feeds the verifier."""
    corpus = ast.parse((Path(__file__).parent / "test_lint_verifier.py").read_text())
    return [
        node.value for node in ast.walk(corpus)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value
    ]


def test_one_parse_gives_the_two_parse_diagnostics():
    """Rule, line, col, path and order, over every class and lie above
    and the verifier tests' cases (none, all-pure and all-mutating
    interfaces, so RDO201, RDO202 and RDO203 all fire)."""
    cases = [(label, code, iface) for label, code, interface in CLASSES
             for iface in (None, interface, *_lies(interface))]
    for index, source in enumerate(_lint_verifier_sources()):
        for iface in (None, _defined_interface(source), _defined_interface(source, True)):
            cases.append((f"lint:{index}", source, iface))
    rules = set()
    for label, code, iface in cases:
        found = verify_rdo(code, iface, path=label)
        assert found == _two_parse_verify_rdo(code, iface, label), label
        rules |= {d.rule for d in found}
    assert {"RDO100", "RDO101", "RDO201", "RDO202", "RDO203", "RDO401"} <= rules


def test_verify_rdo_parses_its_source_once(monkeypatch):
    parses = []
    real = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *a, **k: parses.append(a) or real(*a, **k))
    from repro.apps.mail import _MESSAGE_CODE, _MESSAGE_INTERFACE

    verify_rdo(_MESSAGE_CODE, _MESSAGE_INTERFACE)
    assert len(parses) == 1
