"""RDO static verifier tests: the bad-RDO corpus, publish-time
rejection, the ship path, and the coherence bug the mutation-purity
rule exists to prevent."""

import pytest

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface, RDOVerificationError
from repro.lint import Severity, errors_only, verify_rdo
from repro.lint.verifier import check_code
from tests.conftest import make_note


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


def first(diagnostics, rule):
    matches = [d for d in diagnostics if d.rule == rule]
    assert matches, f"expected a {rule} finding, got {rules_of(diagnostics)}"
    return matches[0]


# ---------------------------------------------------------------------------
# The deliberately-bad corpus: each produces the expected rule id and
# a real position.
# ---------------------------------------------------------------------------


class TestBadCorpus:
    def test_syntax_error(self):
        diags = check_code("def f(:\n", path="bad.py")
        diag = first(diags, "RDO100")
        assert diag.path == "bad.py"
        assert diag.line >= 1

    def test_import_is_disallowed_construct(self):
        diag = first(check_code("import os\n"), "RDO101")
        assert "Import" in diag.message
        assert diag.line == 1

    def test_dunder_name(self):
        source = "def f():\n    return __builtins__\n"
        diag = first(check_code(source), "RDO102")
        assert diag.line == 2
        assert "__builtins__" in diag.message

    def test_dunder_parameter_shadowing_the_step_counter(self):
        source = (
            "def f(n, __step__=lambda: None):\n"
            "    i = 0\n"
            "    while i < n:\n"
            "        i = i + 1\n"
            "    return i\n"
        )
        diag = first(verify_rdo(source), "RDO102")
        assert (diag.line, diag.col) == (1, 9)
        assert "__step__" in diag.message

    @pytest.mark.parametrize(
        "source, position",
        [
            ("def f(a, __x):\n    return a\n", (1, 9)),
            ("def f(*__x):\n    return 1\n", (1, 7)),
            ("def f(*, __x=1):\n    return 1\n", (1, 9)),
            ("def f(**__x):\n    return 1\n", (1, 8)),
            ("def f():\n    return (lambda __x: 1)(2)\n", (2, 19)),
            ("def __exhausted__():\n    return 1\n", (1, 0)),
            ("def f(d):\n    try:\n        return d[1]\n"
             "    except KeyError as __step__:\n        return 2\n", (4, 4)),
        ],
        ids=["parameter", "star-args", "keyword-only", "star-star-kwargs",
             "lambda", "def", "except-as"],
    )
    def test_dunder_binding_positions(self, source, position):
        diag = first(check_code(source), "RDO102")
        assert (diag.line, diag.col) == position

    def test_dunder_attribute_position(self):
        source = "def f(x):\n    return x.__class__\n"
        diag = first(check_code(source), "RDO103")
        assert (diag.line, diag.col) == (2, 11)

    def test_format_attribute(self):
        diag = first(check_code('def f(x):\n    return "{}".format(x)\n'), "RDO103")
        assert "format" in diag.message

    def test_decorator(self):
        diag = first(check_code("@staticmethod\ndef f():\n    pass\n"), "RDO104")
        assert diag.line == 1

    def test_undefined_name(self):
        source = "def f():\n    return open('x')\n"
        diag = first(check_code(source), "RDO110")
        assert "'open'" in diag.message
        assert diag.line == 2

    def test_host_helpers_declared_via_extra_names(self):
        source = "def main():\n    return [lookup(k) for k in objects('p')]\n"
        assert rules_of(check_code(source)) == {"RDO110"}
        assert check_code(source, extra_names=("lookup", "objects")) == []

    def test_unbounded_while(self):
        source = "def f():\n    while True:\n        pass\n"
        diag = first(check_code(source), "RDO401")
        assert diag.line == 2

    def test_while_with_break_is_bounded(self):
        source = (
            "def f(n):\n"
            "    while True:\n"
            "        n = n - 1\n"
            "        if n <= 0:\n"
            "            break\n"
            "    return n\n"
        )
        assert check_code(source) == []

    def test_return_in_nested_def_does_not_bound_loop(self):
        source = (
            "def f():\n"
            "    while True:\n"
            "        def g():\n"
            "            return 1\n"
            "        x = g()\n"
        )
        assert "RDO401" in rules_of(check_code(source))

    def test_unmarshallable_set_return(self):
        diag = first(check_code("def f():\n    return {1, 2}\n"), "RDO301")
        assert diag.line == 2

    def test_unmarshallable_set_call_return(self):
        assert "RDO301" in rules_of(check_code("def f(x):\n    return set(x)\n"))

    def test_unmarshallable_nested_in_dict(self):
        source = "def f():\n    return {'k': {1, 2}}\n"
        assert "RDO301" in rules_of(check_code(source))

    def test_sorted_set_return_is_fine(self):
        assert check_code("def f(x):\n    return sorted(set(x))\n") == []

    def test_all_violations_collected_not_first_only(self):
        source = (
            "import os\n"
            "def f(x):\n"
            "    return x.__dict__\n"
            "def g():\n"
            "    while True:\n"
            "        pass\n"
        )
        rules = rules_of(check_code(source))
        assert {"RDO101", "RDO103", "RDO401"} <= rules


# ---------------------------------------------------------------------------
# Mutation purity against the declared interface
# ---------------------------------------------------------------------------


#: Read-only by its interface, a writer through its own helper.
TOUCH_CODE = (
    "def _touch(s):\n"
    "    s['n'] = s['n'] + 1\n"
    "\n"
    "def peek(state):\n"
    "    return _touch(state)\n"
)


def iface(**mutates):
    return RDOInterface([MethodSpec(n, mutates=m) for n, m in mutates.items()])


class TestMutationPurity:
    def test_hidden_mutation_direct_assignment(self):
        code = "def sneak(state):\n    state['x'] = 1\n    return None\n"
        diag = first(verify_rdo(code, iface(sneak=False)), "RDO201")
        assert diag.severity is Severity.ERROR
        assert (diag.line, diag.col) == (2, 4)
        assert "sneak" in diag.message

    def test_hidden_mutation_through_view(self):
        # flags = state["flags"] is a *view*: mutating it mutates state.
        code = (
            "def sneak(state):\n"
            "    flags = state['flags']\n"
            "    flags['read'] = True\n"
            "    return True\n"
        )
        assert "RDO201" in rules_of(verify_rdo(code, iface(sneak=False)))

    def test_hidden_mutation_via_method_call(self):
        code = "def sneak(state, item):\n    state['items'].append(item)\n    return None\n"
        assert "RDO201" in rules_of(verify_rdo(code, iface(sneak=False)))

    def test_hidden_mutation_alias_chain(self):
        code = (
            "def sneak(state):\n"
            "    s = state\n"
            "    t = s\n"
            "    t['x'] = 1\n"
            "    return None\n"
        )
        assert "RDO201" in rules_of(verify_rdo(code, iface(sneak=False)))

    def test_copy_then_mutate_is_pure(self):
        # dict(state["flags"]) copies; mutating the copy is pure — this
        # is exactly the mail reader's mark_read shape with mutates
        # declared honestly.
        code = (
            "def read_only(state):\n"
            "    flags = dict(state['flags'])\n"
            "    flags['read'] = True\n"
            "    return flags\n"
        )
        assert verify_rdo(code, iface(read_only=False)) == []

    def test_hidden_mutation_through_an_own_function(self):
        diag = first(verify_rdo(TOUCH_CODE, iface(peek=False)), "RDO201")
        assert (diag.line, diag.col) == (5, 11)  # the call that hands the state over
        assert "'peek'" in diag.message and "'_touch'" in diag.message

    def test_hidden_mutation_down_a_chain_by_keyword_and_view(self):
        code = (
            "def sneak(state):\n"
            "    return first(x=state['items'])\n"
            "\n"
            "def first(y=None, x=None):\n"
            "    return second(0, x)\n"
            "\n"
            "def second(n, items):\n"
            "    items.append(n)\n"
            "    return n\n"
        )
        diag = first(verify_rdo(code, iface(sneak=False)), "RDO201")
        assert diag.line == 2 and "'sneak'" in diag.message and "'first'" in diag.message

    def test_a_copy_or_another_argument_handed_to_a_writer_is_pure(self):
        code = (
            "def _touch(s):\n"
            "    s['n'] = 1\n"
            "\n"
            "def peek(state, spare):\n"
            "    _touch(dict(state))\n"
            "    _touch(spare)\n"
            "    return state['n']\n"
        )
        assert "RDO201" not in rules_of(verify_rdo(code, iface(peek=False)))

    def test_recursion_through_own_functions_terminates(self):
        code = (
            "def ping(state, n):\n"
            "    return pong(state, n - 1) if n else 0\n"
            "\n"
            "def pong(state, n):\n"
            "    return ping(state, n)\n"
        )
        assert verify_rdo(code, iface(ping=False, pong=False)) == []

    def test_a_writer_through_an_own_function_is_honest_as_mutating(self):
        assert verify_rdo(TOUCH_CODE, iface(peek=True)) == []

    def test_declared_mutates_but_pure_is_warning(self):
        code = "def noop(state):\n    return state['x']\n"
        diag = first(verify_rdo(code, iface(noop=True)), "RDO202")
        assert diag.severity is Severity.WARNING
        assert errors_only(verify_rdo(code, iface(noop=True))) == []

    def test_interface_method_missing_from_code(self):
        code = "def present(state):\n    return 1\n"
        diag = first(verify_rdo(code, iface(present=False, absent=False)), "RDO203")
        assert "absent" in diag.message

    def test_dataless_rdo_is_vacuously_clean(self):
        assert verify_rdo("", iface(anything=True)) == []

    def test_honest_interfaces_pass(self):
        from repro.apps.calendar import _CALENDAR_CODE, _CALENDAR_INTERFACE
        from repro.apps.mail import (
            _FOLDER_CODE,
            _FOLDER_INTERFACE,
            _MESSAGE_CODE,
            _MESSAGE_INTERFACE,
        )

        for code, interface in [
            (_CALENDAR_CODE, _CALENDAR_INTERFACE),
            (_FOLDER_CODE, _FOLDER_INTERFACE),
            (_MESSAGE_CODE, _MESSAGE_INTERFACE),
        ]:
            assert verify_rdo(code, interface) == []


# ---------------------------------------------------------------------------
# Publish-time rejection (reject-on-publish with escape hatch)
# ---------------------------------------------------------------------------


BAD_CODE = "def sneak(state):\n    state['x'] = 1\n    return None\n"
BAD_IFACE = RDOInterface([MethodSpec("sneak", mutates=False)])


def bad_rdo(path="notes/bad"):
    return RDO(URN("server", path), "note", {"x": 0}, code=BAD_CODE, interface=BAD_IFACE)


class TestPublishHook:
    def test_put_object_rejects_with_precise_diagnostic(self, ethernet_bed):
        with pytest.raises(RDOVerificationError) as excinfo:
            ethernet_bed.server.put_object(bad_rdo())
        message = str(excinfo.value)
        assert "RDO201" in message
        assert "<rdo:urn:rover:server/notes/bad>" in message  # file
        assert ":2:4:" in message  # line and column
        assert ethernet_bed.server.rdos_rejected == 1
        # Nothing was stored.
        assert ethernet_bed.server.get_object("urn:rover:server/notes/bad") is None

    def test_escape_hatch_per_call(self, ethernet_bed):
        version = ethernet_bed.server.put_object(bad_rdo(), verify=False)
        assert version == 1

    def test_clean_rdo_publishes(self, ethernet_bed):
        assert ethernet_bed.server.put_object(make_note()) == 1

    def test_ship_rejected_at_the_clients_desk(self, ethernet_bed):
        # No QRPC is queued: the diagnostic surfaces before logging.
        with pytest.raises(RDOVerificationError, match="RDO110"):
            ethernet_bed.access.ship("server", "def main():\n    return open('x')\n")
        assert ethernet_bed.access.pending_count() == 0

    def test_ship_server_side_rejection(self, ethernet_bed):
        reply = None
        with pytest.raises(RDOVerificationError, match="RDO401"):
            ethernet_bed.server._on_ship(
                {
                    "code": "def main():\n    while True:\n        pass\n",
                    "method": "main",
                    "request_id": "c/0",
                },
                ("client", 0),
            )
        assert ethernet_bed.server.rdos_rejected == 1

    def test_a_request_cannot_turn_off_the_servers_check(self, ethernet_bed):
        # Shipped code is always verified; the body's flag is ignored.
        with pytest.raises(RDOVerificationError, match="RDO401"):
            ethernet_bed.server._on_ship(
                {
                    "code": "def main():\n    while True:\n        pass\n",
                    "method": "main",
                    "request_id": "c/1",
                    "unverified": True,
                },
                ("client", 0),
            )
        assert ethernet_bed.server.rdos_rejected == 1
        assert ethernet_bed.server.ships_served == 0

    def test_ship_escape_hatch(self, ethernet_bed):
        # verify=False skips the desk check; the server still re-checks
        # and the rejection travels back as a failed reply.
        promise = ethernet_bed.access.ship(
            "server", "def main():\n    return nope()\n", verify=False
        )
        with pytest.raises(Exception):
            promise.wait(ethernet_bed.sim)


# ---------------------------------------------------------------------------
# The coherence bug RDO201 exists to catch: without the verifier, a
# hidden mutation under mutates=False silently never reaches the server.
# ---------------------------------------------------------------------------


class TestCoherenceBug:
    def test_hidden_mutation_silently_breaks_coherence(self, ethernet_bed):
        bed = ethernet_bed
        # Force the lying RDO past verification (the pre-verifier world).
        bed.server.put_object(bad_rdo(), verify=False)
        urn = "urn:rover:server/notes/bad"
        bed.access.import_(urn).wait(bed.sim)

        bed.access.invoke(urn, "sneak")
        bed.sim.run(until=bed.sim.now + 60.0)

        # The client's copy changed...
        assert bed.access.cache.peek(urn).rdo.data["x"] == 1
        # ...but was never marked tentative and no export was queued,
        # so the home server still holds the stale value: the lost
        # update the paper's tentative/export machinery exists to
        # prevent, and no runtime check can see.
        assert not bed.access.cache.peek(urn).tentative
        assert bed.access.pending_count() == 0
        assert bed.server.get_object(urn).data["x"] == 0

    def test_verifier_catches_it_at_publish_time(self, ethernet_bed):
        with pytest.raises(RDOVerificationError, match="RDO201"):
            ethernet_bed.server.put_object(bad_rdo())

    def test_a_writer_through_its_own_helper_is_refused_at_publish(self, ethernet_bed):
        touch = RDO(
            URN("server", "counters/touch"), "counter", {"n": 0},
            code=TOUCH_CODE, interface=iface(peek=False),
        )
        with pytest.raises(RDOVerificationError, match="RDO201"):
            ethernet_bed.server.put_object(touch)
        assert ethernet_bed.server.get_object("urn:rover:server/counters/touch") is None

    def test_honest_declaration_keeps_coherence(self, ethernet_bed):
        bed = ethernet_bed
        honest = RDO(
            URN("server", "notes/honest"),
            "note",
            {"x": 0},
            code=BAD_CODE,
            interface=RDOInterface([MethodSpec("sneak", mutates=True)]),
        )
        bed.server.put_object(honest)  # verifier-clean: declaration is honest
        urn = "urn:rover:server/notes/honest"
        bed.access.import_(urn).wait(bed.sim)
        bed.access.invoke(urn, "sneak")
        bed.access.drain()
        assert bed.server.get_object(urn).data["x"] == 1


# ---------------------------------------------------------------------------
# The MARSHALLABLE_TYPES mirror must stay in sync with the real codec.
# ---------------------------------------------------------------------------


class TestMarshalTableSync:
    def test_every_listed_type_round_trips(self):
        from repro.lint.rules import MARSHALLABLE_TYPES
        from repro.net.message import marshal, unmarshal

        samples = {
            type(None): None,
            bool: True,
            int: 42,
            float: 1.5,
            str: "text",
            bytes: b"raw",
            list: [1, 2],
            tuple: (1, 2),
            dict: {"k": 1},
        }
        assert set(samples) == set(MARSHALLABLE_TYPES)
        for value in samples.values():
            assert unmarshal(marshal(value)) == value

    def test_sets_really_are_unmarshallable(self):
        from repro.net.message import MarshalError, marshal

        with pytest.raises(MarshalError):
            marshal({1, 2})
