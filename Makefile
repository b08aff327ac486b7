PYTHON ?= python
CHAOS_SEED ?= 0

.PHONY: install test lint effects bench tables chaos check ha perf fleet speed perfbench perfbench-smoke sloc reach demo examples trace-smoke clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m repro.lint src/repro --strict-suppressions
	$(PYTHON) -m repro.lint --rdos
	$(PYTHON) -m repro.lint --effects src/repro

# Whole-program effect analysis alone (docs/LINTING.md, EFF rules).
# On violation it prints witness call chains; sanctioned escapes live
# in lint-effects-baseline.txt.
effects:
	$(PYTHON) -m repro.lint --effects src/repro --effects-json lint-effects.json

# Every experiment (shape + baseline; repro.bench.registry declares
# them, benchmarks/test_experiments.py runs them), the static T1/T2
# tables and the microbenchmarks.  `tables` renders at full scale.
bench:
	$(PYTHON) -m pytest benchmarks/

tables:
	$(PYTHON) -m repro.bench

chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_chaos_faults.py tests/test_chaos_convergence.py \
		tests/test_ha_failover.py \
		"benchmarks/test_experiments.py::test_experiment[e13]"

# Replicated home servers: failover/fencing/anti-entropy suite, the
# unavailability bound as a gate (tests/test_ha_failover.py::
# TestUnavailabilityBound: at the benchmark's shape, the longest ack gap
# across a primary kill <= lease_s + heartbeat_s + 0.1 s -- 8.1 s at the
# defaults; `make chaos` runs the same file under its seed matrix), plus
# an exhaustive pass over primary-kill x election interleavings
# (docs/ROBUSTNESS.md, "Replication and failover") -- of a burst of
# remote appends, and of the reconnect drain of a compacted,
# delta-shipped backlog.
ha:
	CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_ha_failover.py tests/test_ha_satellites.py
	$(PYTHON) -m repro.check --suite ha-failover --depth 1
	$(PYTHON) -m repro.check --suite ha-failover-features --depth 2

# Bounded interleaving model check (docs/VERIFICATION.md); < 2 min.
# On a violation it writes the minimized trace to check-counterexample.json.
check:
	$(PYTHON) -m repro.check --suite warm-import --depth 1
	$(PYTHON) -m repro.check --suite crash-during-drain --suite coalesced-drain \
		--suite delta-ship --suite conflict-export --depth 2

# Where compaction is gated: the microbenchmarks, then the keyed plan's
# two pins (tests/test_perf_compaction.py: planning one bucket equals
# planning the whole queue; queuing an operation costs the same Python
# calls behind 400 queued requests as behind 40), then E14's eight rows.
perf:
	$(PYTHON) -m pytest -q benchmarks/test_micro_primitives.py --benchmark-only
	$(PYTHON) -m pytest -q tests/test_perf_compaction.py
	$(PYTHON) -m pytest -q "benchmarks/test_experiments.py::test_experiment[e14]"

# CPU hot path: codec/group-commit/kernel suite, the frame path's call
# budgets (tests/test_speed.py, "The frame path": a frame asks its link
# and the spec twice each, a null RPC is 77 Python calls; docs/
# PERFORMANCE.md, "One frame, one choice"), determinism digest pins,
# and the E16 drain-throughput gate at CI scale (docs/PERFORMANCE.md,
# "The CPU hot path").  --host-time is the one place E16's
# calibration-normalized CPU columns are compared; tier-1 checks its
# shape and deterministic fields only.
speed:
	$(PYTHON) -m pytest -q tests/test_speed.py tests/test_determinism.py
	$(PYTHON) -m pytest -q "benchmarks/test_experiments.py::test_experiment[e16]" --host-time

# perfbench (perfbench/README.md): the command in BENCHMARK.json, once
# per listed workload -- end-to-end metrics only; add `--trace 1` by
# hand for the per-layer ledger.
PERFBENCH_WORKLOADS ?= fleet_drain warm_read mail_slowlink ha_failover

perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done

# The benchmark's own tests and self-check (~20 s); measures nothing.
# The deselected test hard-codes the E16 gate's bytes_sent/messages_sent
# as they were before PR 14 (coalesced, compressed reconnect drain)
# changed both on purpose; perfbench/ is the benchmark and a program PR
# may not edit it, so the next benchmark PR re-pins it (CHANGES.md).
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q --deselect \
		perfbench/tests/test_smoke.py::test_fleet_drain_at_the_e16_gate_size_reproduces_the_pinned_totals
	$(PYTHON) -m perfbench --selfcheck

# Fleet telemetry: unit/integration suite plus the E15 overhead +
# exactness gate at CI scale, then the operator's CLI end to end
# (docs/OBSERVABILITY.md).
fleet:
	$(PYTHON) -m pytest -q tests/test_fleet_sketch.py tests/test_fleet_pipeline.py \
		tests/test_fleet_health.py tests/test_fleet_chaos.py \
		"benchmarks/test_experiments.py::test_experiment[e15]"
	$(PYTHON) -m repro.obs.fleet --clients 20 --timeline --events --prometheus > /dev/null

# Source size, tracked beside the benchmarks (docs/PERFORMANCE.md,
# "Source size"): total lines, then the ten largest files.
sloc:
	@find src/repro -name '*.py' | xargs wc -l | sort -n | tail -11

# Which functions of src/repro does anything run?  Records every call
# (tools/reach.py; its hook makes everything several times slower, so
# this takes tens of minutes) over tier-1 and over the drivers -- the
# experiments at gate and at full scale, examples, demo, model checks,
# the perfbench workloads (one repeat each, as perfbench.runner starts
# them) -- then lists what nothing reached and what only tests/ reached.
REACH = REACH_DIR=$(CURDIR)/.reach PYTEST_PLUGINS=reach \
	PYTHONPATH=$(CURDIR)/tools:$(CURDIR)/src:$(CURDIR)
# `tables` builds E15/E16 at full scale (1,000 / 10,000 clients); `lint`,
# `ha` and `fleet` are here because CI runs them: without them all of
# repro/lint, the HA check scenarios and the fleet CLI read as unexecuted;
# `trace-smoke` is the one driver that switches the product tracer on.
REACH_DRIVERS ?= examples demo tables check lint ha fleet trace-smoke

reach:
	rm -rf .reach && mkdir .reach
	$(REACH) REACH_TAG=tests $(PYTHON) -m pytest -q tests
	$(REACH) $(PYTHON) -m pytest -q benchmarks
	$(REACH) $(MAKE) $(REACH_DRIVERS)
	@for w in $(PERFBENCH_WORKLOADS); do \
		$(REACH) $(PYTHON) -m perfbench.repeat --workload $$w --seed 7 > /dev/null || exit 1; \
	done
	$(PYTHON) tools/reach.py .reach

demo:
	$(PYTHON) -m repro

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done

# The product tracer end to end (docs/OBSERVABILITY.md): E2 with span
# recording on, exported as JSONL, plus the metrics registry's render.
TRACE_SMOKE_OUT ?= $(or $(TMPDIR),/tmp)/repro-trace-smoke-e2.jsonl

trace-smoke:
	$(PYTHON) -m repro.bench --trace-out $(TRACE_SMOKE_OUT) --metrics e2 > /dev/null
	test -s $(TRACE_SMOKE_OUT)

clean:
	rm -rf .pytest_cache .hypothesis .reach src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
