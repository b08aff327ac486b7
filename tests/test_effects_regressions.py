"""Regression tests for real hazards the effect analyzer caught.

Each test embeds the *pre-fix* shape of the code and asserts the
analyzer flags it (these failed before the corresponding fix landed),
then asserts the fixed tree no longer carries the effect.
"""

import os
import unittest

from repro.lint.contracts import Effect
from repro.lint.effects import EffectAnalyzer, analyze_paths, analyze_sources

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# The pre-fix body of NetworkScheduler.abandon_all (repro/net/scheduler.py):
# `self._active` is a set of identity-hashed QueuedMessage objects, so
# the bare iteration visits messages in per-process hash order.  The
# set-typedness is established in __init__ — a *different method* — and
# `list(...)` launders the container type, so no file-local, line-at-a-
# time scan can see it.
PRE_FIX_SCHEDULER = '''\
class QueuedMessage:
    def __init__(self, seq):
        self.seq = seq
        self.state = "queued"


class NetworkScheduler:
    def __init__(self):
        self._active = set()

    def submit(self, message):
        self._active.add(message)

    def abandon_all(self):
        count = 0
        for message in list(self._active):
            if message.state in ("queued", "inflight", "accepted"):
                message.state = "cancelled"
                count += 1
        return count
'''


class TestAbandonAllHazard(unittest.TestCase):
    def test_pre_fix_code_is_flagged_by_effect_analyzer(self):
        """The analyzer sees through __init__ -> method and list()."""
        report = analyze_sources({"repro/net/sched.py": PRE_FIX_SCHEDULER})
        flagged = {
            (f.rule, f.qualname, f.effect)
            for f in report.findings
        }
        self.assertIn(
            (
                "EFF101",
                "repro/net/sched.py:NetworkScheduler.abandon_all",
                "UNORDERED_ITER",
            ),
            flagged,
        )

    def test_fixed_tree_has_no_unordered_iteration_in_abandon_all(self):
        sources = {}
        path = os.path.join(SRC, "repro", "net", "scheduler.py")
        with open(path, encoding="utf-8") as handle:
            sources["repro/net/scheduler.py"] = handle.read()
        analyzer = EffectAnalyzer(sources)
        effects = analyzer.effects[
            "repro/net/scheduler.py:NetworkScheduler.abandon_all"
        ]
        self.assertNotIn(Effect.UNORDERED_ITER, effects)

    def test_abandon_all_cancels_in_submission_order(self):
        """Behavioral check on the real class: the cancellation sweep
        mutates message states by submission sequence, not by the hash
        order of the identity-keyed active set."""
        from repro.net.link import ETHERNET_10M
        from repro.net.scheduler import NetworkScheduler
        from repro.net.simnet import Network
        from repro.net.transport import Transport
        from repro.sim import Simulator

        sim = Simulator()
        net = Network(sim)
        client, server = net.host("c"), net.host("s")
        net.connect(client, server, ETHERNET_10M)
        tc = Transport(sim, client)
        scheduler = NetworkScheduler(sim, tc)

        messages = [
            scheduler.submit(server, "svc", {"p": payload})
            for payload in ("c", "a", "b", "e", "d")
        ]

        # wrap the (slotted) state descriptor so the order in which
        # abandon_all flips states becomes observable
        sweep = []
        cls = type(messages[0])
        slot = cls.state

        def setter(message, value):
            if value == "cancelled":
                sweep.append(message.seq)
            slot.__set__(message, value)

        cls.state = property(slot.__get__, setter)
        try:
            count = scheduler.abandon_all()
        finally:
            cls.state = slot
        self.assertEqual(count, len(messages))
        self.assertTrue(all(m.state == "cancelled" for m in messages))
        self.assertEqual(sweep, [0, 1, 2, 3, 4])


class TestHandlerContractRegression(unittest.TestCase):
    """A transitive wall-clock read two hops below a registered QRPC
    handler — the shape EFF201 exists to catch."""

    SOURCES = {
        "repro/core/srv.py": (
            "from repro.util.stamps import stamp\n"
            "class Server:\n"
            "    def __init__(self, transport):\n"
            "        transport.register('obj.put', self._on_put)\n"
            "    def _on_put(self, body):\n"
            "        return self._record(body)\n"
            "    def _record(self, body):\n"
            "        return {'body': body, 'at': stamp()}\n"
        ),
        "repro/util/stamps.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    }

    def test_witness_chain_reaches_the_primitive(self):
        report = analyze_sources(self.SOURCES)
        eff201 = [f for f in report.findings if f.rule == "EFF201"]
        self.assertEqual(len(eff201), 1)
        finding = eff201[0]
        self.assertEqual(finding.effect, "WALLCLOCK")
        hops = [hop[0] for hop in finding.chain]
        self.assertEqual(hops, [
            "repro/core/srv.py:Server._on_put",
            "repro/core/srv.py:Server._record",
            "repro/util/stamps.py:stamp",
        ])
        # the rendered diagnostic carries the full chain for the user
        rendered = report.diagnostics()[0].message
        self.assertIn("witness:", rendered)
        self.assertIn("Server._on_put -> Server._record -> stamp", rendered)

    def test_real_server_handlers_are_clean(self):
        """Every registered RoverServer handler is replay-pure in the
        committed tree (this is what EFF201 now gates in CI)."""
        report = analyze_paths([os.path.join(SRC, "repro")])
        handler_findings = [
            f for f in report.findings
            if f.rule == "EFF201" and "core/server.py" in f.qualname
        ]
        self.assertEqual(handler_findings, [])
        # and the handlers really are discovered as roots
        discovered = {
            q for q in report.replay_roots if "core/server.py" in q
        }
        self.assertGreaterEqual(len(discovered), 8)


if __name__ == "__main__":
    unittest.main()
