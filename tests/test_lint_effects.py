"""Unit tests for repro.lint.effects — the whole-program effect
analyzer and layer-contract checker.

Synthetic modules are fed through :func:`analyze_sources` (exactly the
CLI pipeline minus the filesystem), so every behavior here is the
behavior of ``python -m repro.lint src/repro``.
"""

import contextlib
import io
import os
import tempfile
import unittest

from repro.lint.cli import main
from repro.lint.contracts import Effect
from repro.lint.effects import (
    EffectAnalyzer,
    analyze_paths,
    analyze_sources,
    apply_baseline,
    load_baseline,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def effects_of(sources, qualname):
    analyzer = EffectAnalyzer(sources)
    return analyzer.effects[qualname]


def one_module(body):
    return {"repro/core/mod.py": body}


def findings_of(source, relpath="a.py"):
    """(qualname, effect) of every finding for one file's source."""
    report = analyze_sources({relpath: source})
    return {(f.qualname, f.effect) for f in report.findings}


class TestIntrinsics(unittest.TestCase):
    def test_wallclock(self):
        fx = effects_of(one_module(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.WALLCLOCK, fx)

    def test_from_import_wallclock(self):
        fx = effects_of(one_module(
            "from time import monotonic\n"
            "def f():\n"
            "    return monotonic()\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.WALLCLOCK, fx)

    def test_sleep_is_blocking_not_wallclock(self):
        fx = effects_of(one_module(
            "import time\n"
            "def f():\n"
            "    time.sleep(1)\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.BLOCKING_SLEEP, fx)
        self.assertNotIn(Effect.WALLCLOCK, fx)

    def test_unseeded_rng(self):
        fx = effects_of(one_module(
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNSEEDED_RNG, fx)

    def test_seeded_random_instance_is_fine(self):
        fx = effects_of(one_module(
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed)\n"
        ), "repro/core/mod.py:f")
        self.assertNotIn(Effect.UNSEEDED_RNG, fx)

    def test_argless_random_constructor_flagged(self):
        fx = effects_of(one_module(
            "import random\n"
            "def f():\n"
            "    return random.Random()\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNSEEDED_RNG, fx)

    def test_socket_and_fs(self):
        sources = one_module(
            "import socket\n"
            "import os\n"
            "def f():\n"
            "    return socket.socket()\n"
            "def g(path):\n"
            "    os.remove(path)\n"
            "def h(path):\n"
            "    return open(path)\n"
        )
        self.assertIn(Effect.REAL_SOCKET, effects_of(sources, "repro/core/mod.py:f"))
        self.assertIn(Effect.FS_IO, effects_of(sources, "repro/core/mod.py:g"))
        self.assertIn(Effect.FS_IO, effects_of(sources, "repro/core/mod.py:h"))

    def test_global_mutation(self):
        fx = effects_of(one_module(
            "_STATE = 0\n"
            "def f():\n"
            "    global _STATE\n"
            "    _STATE = 1\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.GLOBAL_MUTATION, fx)

    def test_global_read_is_fine(self):
        fx = effects_of(one_module(
            "_STATE = 0\n"
            "def f():\n"
            "    return _STATE\n"
        ), "repro/core/mod.py:f")
        self.assertNotIn(Effect.GLOBAL_MUTATION, fx)


class TestUnorderedIteration(unittest.TestCase):
    def test_set_literal_iteration(self):
        fx = effects_of(one_module(
            "def f():\n"
            "    out = []\n"
            "    for x in {1, 2, 3}:\n"
            "        out.append(x)\n"
            "    return out\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNORDERED_ITER, fx)

    def test_sorted_set_is_fine(self):
        fx = effects_of(one_module(
            "def f(xs):\n"
            "    return [x for x in sorted(set(xs))]\n"
        ), "repro/core/mod.py:f")
        self.assertNotIn(Effect.UNORDERED_ITER, fx)

    def test_set_comprehension_sink_is_fine(self):
        # building a set from a set cannot observe the order
        fx = effects_of(one_module(
            "def f(xs):\n"
            "    seen = set(xs)\n"
            "    return {x + 1 for x in seen}\n"
        ), "repro/core/mod.py:f")
        self.assertNotIn(Effect.UNORDERED_ITER, fx)

    def test_set_typed_attribute_across_methods(self):
        # no line-at-a-time check can see this: the
        # set-typedness is established in __init__, the iteration
        # happens in another method, and `list()` launders the type.
        fx = effects_of(one_module(
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self._active = set()\n"
            "    def drain(self):\n"
            "        out = []\n"
            "        for item in list(self._active):\n"
            "            out.append(item)\n"
            "        return out\n"
        ), "repro/core/mod.py:Tracker.drain")
        self.assertIn(Effect.UNORDERED_ITER, fx)

    def test_set_returning_function(self):
        fx = effects_of(one_module(
            "def names() -> set:\n"
            "    return {'a', 'b'}\n"
            "def f():\n"
            "    return [n for n in names()]\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNORDERED_ITER, fx)

    def test_len_and_sum_are_order_insensitive(self):
        fx = effects_of(one_module(
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    return len(s) + sum(s)\n"
        ), "repro/core/mod.py:f")
        self.assertNotIn(Effect.UNORDERED_ITER, fx)

    def test_set_difference_flagged(self):
        fx = effects_of(one_module(
            "def f(a, b):\n"
            "    for k in set(a) - set(b):\n"
            "        print(k)\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNORDERED_ITER, fx)

    def test_keys_union_flagged(self):
        fx = effects_of(one_module(
            "def f(d, e):\n"
            "    for k in d.keys() | e.keys():\n"
            "        print(k)\n"
        ), "repro/core/mod.py:f")
        self.assertIn(Effect.UNORDERED_ITER, fx)

    def test_set_union_for_loop_flagged(self):
        self.assertEqual(
            findings_of("for k in set(a) | set(b):\n    pass\n"),
            {("a.py:<module>", "UNORDERED_ITER")},
        )

    def test_triple_union_flagged(self):
        self.assertEqual(
            findings_of("for k in set(a) | set(b) | set(c):\n    pass\n"),
            {("a.py:<module>", "UNORDERED_ITER")},
        )

    def test_comprehension_flagged(self):
        self.assertEqual(
            findings_of("xs = [k for k in set(a) | set(b)]\n"),
            {("a.py:<module>", "UNORDERED_ITER")},
        )

    def test_sorted_union_is_the_fix(self):
        self.assertEqual(
            findings_of("for k in sorted(set(a) | set(b)):\n    pass\n"), set()
        )

    def test_plain_dict_iteration_not_flagged(self):
        # dicts keep insertion order; only a set operator on .keys() loses it
        source = (
            "for k in d:\n    pass\nfor k in d.items():\n    pass\n"
            "for k in d.keys():\n    pass\n"
        )
        self.assertEqual(findings_of(source), set())

    def test_integer_bitor_not_flagged(self):
        self.assertEqual(findings_of("for k in [a | b]:\n    pass\n"), set())


class TestDeterministicContract(unittest.TestCase):
    """Clock and randomness anywhere in the tree, not only in the layers
    ``sim-pure`` covers, and outside functions too."""

    def test_time_time_flagged(self):
        report = analyze_sources({"repro/sim/x.py": "import time\nt = time.time()\n"})
        [finding] = report.findings
        self.assertEqual(finding.effect, "WALLCLOCK")
        self.assertEqual(finding.evidence, (2, "time.time()"))

    def test_time_monotonic_and_sleep_flagged(self):
        source = "import time\ntime.sleep(1)\nx = time.monotonic()\n"
        self.assertEqual(findings_of(source), {
            ("a.py:<module>", "BLOCKING_SLEEP"), ("a.py:<module>", "WALLCLOCK"),
        })

    def test_datetime_now_flagged(self):
        source = "import datetime\nn = datetime.datetime.now()\n"
        self.assertEqual(findings_of(source), {("a.py:<module>", "WALLCLOCK")})

    def test_from_time_import_flagged(self):
        source = "from time import time\nT = time()\n"
        self.assertEqual(findings_of(source), {("a.py:<module>", "WALLCLOCK")})

    def test_live_tree_exempt(self):
        source = "import time\nt = time.time()\n"
        self.assertEqual(findings_of(source, "repro/live/clock.py"), set())
        # ...but the same source anywhere else is flagged.
        self.assertEqual(
            findings_of(source, "repro/net/link.py"),
            {("repro/net/link.py:<module>", "WALLCLOCK")},
        )

    def test_virtual_time_attribute_not_flagged(self):
        # sim.now / self.time are how components are *supposed* to read
        # time; only the real-clock modules trip the contract.
        self.assertEqual(findings_of("t = sim.now\nx = self.time\n"), set())

    def test_random_call_flagged(self):
        source = "import random\nx = random.random()\n"
        self.assertEqual(findings_of(source), {("a.py:<module>", "UNSEEDED_RNG")})

    def test_sim_rng_is_the_sanctioned_consumer(self):
        source = (
            "import random\n"
            "def make_rng(seed):\n"
            "    return random.Random(seed)\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        self.assertEqual(findings_of(source, "repro/sim/rng.py"), set())
        self.assertEqual(
            findings_of(source, "repro/sim/other.py"),
            {("repro/sim/other.py:draw", "UNSEEDED_RNG")},
        )

    def test_module_level_clock_read(self):
        self.assertEqual(
            findings_of("import time\nT = time.time()\n", "repro/util/x.py"),
            {("repro/util/x.py:<module>", "WALLCLOCK")},
        )

    def test_class_body_clock_read(self):
        source = "import time\nclass Config:\n    STARTED = time.time()\n"
        self.assertEqual(
            findings_of(source, "repro/util/x.py"),
            {("repro/util/x.py:<module>", "WALLCLOCK")},
        )

    def test_module_body_is_not_an_entry_point(self):
        report = analyze_sources({"repro/util/x.py": "import time\nT = time.time()\n"})
        self.assertEqual({f.rule for f in report.findings}, {"EFF101"})
        self.assertNotIn("repro/util/x.py:<module>", report.replay_roots)
        self.assertNotIn("repro/util/x.py:<module>", report.marshal_roots)


class TestPropagation(unittest.TestCase):
    def test_transitive_fixed_point(self):
        sources = one_module(
            "import time\n"
            "def deepest():\n"
            "    return time.time()\n"
            "def middle():\n"
            "    return deepest()\n"
            "def top():\n"
            "    return middle()\n"
        )
        self.assertIn(Effect.WALLCLOCK, effects_of(sources, "repro/core/mod.py:top"))

    def test_recursion_terminates(self):
        sources = one_module(
            "import time\n"
            "def a(n):\n"
            "    return b(n - 1) if n else time.time()\n"
            "def b(n):\n"
            "    return a(n)\n"
        )
        self.assertIn(Effect.WALLCLOCK, effects_of(sources, "repro/core/mod.py:b"))

    def test_cross_module_call(self):
        sources = {
            "repro/core/a.py": (
                "from repro.core.b import helper\n"
                "def api():\n"
                "    return helper()\n"
            ),
            "repro/core/b.py": (
                "import time\n"
                "def helper():\n"
                "    return time.time()\n"
            ),
        }
        self.assertIn(Effect.WALLCLOCK, effects_of(sources, "repro/core/a.py:api"))

    def test_self_method_and_subclass_union(self):
        sources = one_module(
            "import time\n"
            "class Base:\n"
            "    def tick(self):\n"
            "        return 0\n"
            "class Derived(Base):\n"
            "    def tick(self):\n"
            "        return time.time()\n"
            "class User:\n"
            "    def __init__(self, b: Base):\n"
            "        self.b = b\n"
            "    def run(self):\n"
            "        return self.b.tick()\n"
        )
        # conservative dynamic dispatch: the static type is Base, but
        # the override union pulls in Derived.tick's wall-clock read
        self.assertIn(Effect.WALLCLOCK, effects_of(sources, "repro/core/mod.py:User.run"))

    def test_super_call_resolves_to_ancestor_only(self):
        sources = one_module(
            "import time\n"
            "class Base:\n"
            "    def setup(self):\n"
            "        return 1\n"
            "class Other(Base):\n"
            "    def setup(self):\n"
            "        return time.time()\n"
            "class Child(Base):\n"
            "    def setup(self):\n"
            "        return super().setup()\n"
        )
        # super().setup() must bind to Base.setup, not union in the
        # sibling override
        self.assertNotIn(
            Effect.WALLCLOCK, effects_of(sources, "repro/core/mod.py:Child.setup")
        )

    def test_callback_reference_argument(self):
        sources = one_module(
            "import time\n"
            "class Loop:\n"
            "    def schedule(self, delay, fn):\n"
            "        self.pending = fn\n"
            "    def kick(self):\n"
            "        self.schedule(0.0, self._fire)\n"
            "    def _fire(self):\n"
            "        return time.time()\n"
        )
        self.assertIn(Effect.WALLCLOCK, effects_of(sources, "repro/core/mod.py:Loop.kick"))


class TestContracts(unittest.TestCase):
    def test_sim_pure_reports_at_frontier(self):
        report = analyze_sources({
            "repro/sim/a.py": (
                "import time\n"
                "def deepest():\n"
                "    return time.time()\n"
                "def top():\n"
                "    return deepest()\n"
            ),
        })
        flagged = {f.qualname for f in report.findings if f.rule == "EFF101"}
        # only the frontier function (where the effect is intrinsic)
        self.assertEqual(flagged, {"repro/sim/a.py:deepest"})

    def test_out_of_scope_callee_reported_at_caller(self):
        report = analyze_sources({
            "repro/core/a.py": (
                "from repro.util.clocky import now\n"
                "def api():\n"
                "    return now()\n"
            ),
            "repro/util/clocky.py": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"
            ),
        })
        flagged = {f.qualname for f in report.findings if f.contract == "sim-pure"}
        # repro/util is outside the sim-pure contract, so the in-scope
        # caller is the frontier (the read itself is `deterministic`'s)
        self.assertIn("repro/core/a.py:api", flagged)
        self.assertNotIn("repro/util/clocky.py:now", flagged)

    def test_sanctioned_clock_module_not_flagged(self):
        report = analyze_sources({
            "repro/live/clock.py": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"
            ),
        })
        self.assertEqual(report.findings, [])

    def test_registered_handler_is_replay_root(self):
        report = analyze_sources({
            "repro/core/srv.py": (
                "import time\n"
                "class Server:\n"
                "    def __init__(self, transport):\n"
                "        transport.register('svc.op', self._on_op)\n"
                "    def _on_op(self, body):\n"
                "        return self._helper(body)\n"
                "    def _helper(self, body):\n"
                "        return time.time()\n"
            ),
        })
        eff201 = [f for f in report.findings if f.rule == "EFF201"]
        self.assertTrue(eff201)
        finding = eff201[0]
        self.assertEqual(finding.qualname, "repro/core/srv.py:Server._on_op")
        chain = [hop[0] for hop in finding.chain]
        # full witness chain: handler -> helper -> primitive holder
        self.assertEqual(chain, [
            "repro/core/srv.py:Server._on_op",
            "repro/core/srv.py:Server._helper",
        ])

    def test_decorated_rule_and_override_are_roots(self):
        report = analyze_sources({
            "repro/perf/rules.py": (
                "import random\n"
                "from repro.lint.contracts import replay_pure\n"
                "class PairRule:\n"
                "    @replay_pure\n"
                "    def match(self, a, b):\n"
                "        raise NotImplementedError\n"
                "class JitterRule(PairRule):\n"
                "    def match(self, a, b):\n"
                "        return random.random()\n"
            ),
        })
        eff201 = {f.qualname for f in report.findings if f.rule == "EFF201"}
        self.assertIn("repro/perf/rules.py:JitterRule.match", eff201)

    def test_wire_methods_are_marshal_roots(self):
        report = analyze_sources({
            "repro/net/msg.py": (
                "class Envelope:\n"
                "    def __init__(self):\n"
                "        self.tags = set()\n"
                "    def to_wire(self):\n"
                "        return [t for t in self.tags]\n"
            ),
        })
        eff301 = [f for f in report.findings if f.rule == "EFF301"]
        self.assertEqual(len(eff301), 1)
        self.assertEqual(eff301[0].effect, "UNORDERED_ITER")

    def test_replay_contract_forbids_durable_log_write(self):
        report = analyze_sources({
            "repro/storage/stable_log.py": (
                "class StableLog:\n"
                "    def append(self, record):\n"
                "        pass\n"
            ),
            "repro/core/srv.py": (
                "from repro.storage.stable_log import StableLog\n"
                "class Server:\n"
                "    def __init__(self, transport):\n"
                "        self.log = StableLog()\n"
                "        transport.register('svc.op', self._on_op)\n"
                "    def _on_op(self, body):\n"
                "        self.log.append(body)\n"
            ),
        })
        effects = {f.effect for f in report.findings if f.rule == "EFF201"}
        self.assertIn("DURABLE_LOG_WRITE", effects)


class TestBaseline(unittest.TestCase):
    SOURCES = {
        "repro/sim/a.py": (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        ),
    }

    def test_matching_entry_suppresses(self):
        entries = [("EFF101", "sim-pure", "repro/sim/a.py:now", "WALLCLOCK")]
        report = analyze_sources(self.SOURCES, entries)
        self.assertEqual(report.findings, [])
        self.assertEqual(report.stale_baseline, [])

    def test_unmatched_entry_is_stale(self):
        entries = [("EFF101", "sim-pure", "repro/sim/a.py:gone", "WALLCLOCK")]
        report = analyze_sources(self.SOURCES, entries)
        self.assertEqual(len(report.findings), 1)  # the real one survives
        self.assertEqual(len(report.stale_baseline), 1)
        diags = report.diagnostics()
        self.assertIn("EFF901", {d.rule for d in diags})

    def test_load_baseline_parses_comments(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write(
                "# header comment\n"
                "\n"
                "EFF101 sim-pure repro/sim/a.py:now WALLCLOCK  # justified\n"
            )
            path = fh.name
        try:
            entries = load_baseline(path)
        finally:
            os.unlink(path)
        self.assertEqual(
            entries, [("EFF101", "sim-pure", "repro/sim/a.py:now", "WALLCLOCK")]
        )

    def test_load_baseline_rejects_malformed(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write("EFF101 too-few-fields\n")
            path = fh.name
        try:
            with self.assertRaises(ValueError):
                load_baseline(path)
        finally:
            os.unlink(path)

    def test_apply_baseline_split(self):
        report = analyze_sources(self.SOURCES)
        remaining, stale = apply_baseline(
            report.findings, [report.findings[0].key()]
        )
        self.assertEqual(remaining, [])
        self.assertEqual(stale, [])


class TestTreeGate(unittest.TestCase):
    def test_repo_tree_is_effect_clean(self):
        """The CI gate: the committed tree passes its own contracts."""
        baseline = os.path.join(SRC, "..", "lint-effects-baseline.txt")
        report = analyze_paths(
            [os.path.join(SRC, "repro")], baseline_path=baseline
        )
        self.assertEqual(
            [f.baseline_line() for f in report.findings], [],
            "effect contracts violated; run: python -m repro.lint src/repro",
        )
        self.assertEqual(report.stale_baseline, [])

    def test_src_repro_is_clean(self):
        """`python -m repro.lint src/repro` exits 0 with no diagnostics."""
        baseline = os.path.join(SRC, "..", "lint-effects-baseline.txt")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main([
                os.path.join(SRC, "repro"), "--effects-baseline", baseline,
            ])
        self.assertEqual(status, 0, out.getvalue())
        self.assertEqual(
            out.getvalue(), "repro.lint: 0 error(s), 0 warning(s)\n"
        )

    def test_analyze_paths_accepts_single_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            dirty = os.path.join(tmp, "dirty.py")
            with open(dirty, "w", encoding="utf-8") as handle:
                handle.write("import random\nx = random.random()\n")
            report = analyze_paths([dirty])
        self.assertEqual(
            [(f.relpath, f.effect) for f in report.findings],
            [("dirty.py", "UNSEEDED_RNG")],
        )

    def test_report_order_is_deterministic(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("b.py", "a.py"):
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                    handle.write("import random\nx = random.random()\n")
            paths = [f.relpath for f in analyze_paths([tmp]).findings]
        self.assertEqual(len(paths), 2)
        self.assertEqual(paths, sorted(paths))

    def test_known_roots_discovered(self):
        report = analyze_paths([os.path.join(SRC, "repro")])
        # The server's one door and the handler of every service behind it
        # (registered through ``functools.partial``, so found by their
        # ``@replay_pure``, not by a ``register(...)`` call site).
        from repro.core.server import SERVICES

        for name in ("serve", *(handler.__name__ for handler, *__ in SERVICES.values())):
            self.assertIn(f"repro/core/server.py:RoverServer.{name}", report.replay_roots)
        self.assertIn(
            "repro/obs/fleet/aggregator.py:FleetAggregator._on_telemetry",
            report.replay_roots,
        )
        self.assertIn(
            "repro/core/qrpc.py:QRPCRequest.to_wire", report.marshal_roots
        )
        self.assertIn("repro/net/message.py:marshal", report.marshal_roots)
        # The flat walkers and the one encoder entry that bypasses marshal().
        for name in ("_encode", "_decode", "_size", "Premarshalled.__init__"):
            self.assertIn(f"repro/net/message.py:{name}", report.marshal_roots)


if __name__ == "__main__":
    unittest.main()
