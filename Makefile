PYTHON ?= python
CHAOS_SEED ?= 0

.PHONY: install test lint bench tables chaos check ha perf frames fleet speed perfbench perfbench-smoke calls footprint sloc knobs reach demo examples trace-smoke clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The effect analysis (docs/LINTING.md, EFF rules: on violation it
# prints witness call chains; sanctioned escapes live in
# lint-effects-baseline.txt), then the example apps' published RDOs.
lint:
	$(PYTHON) -m repro.lint src/repro --effects-json lint-effects.json
	$(PYTHON) -m repro.lint --rdos

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
# remote appends, of the reconnect drain of a compacted, delta-shipped
# backlog, and of reads answered under the primary's lease through a
# zombie or killed primary ("The read path").
ha:
	CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_ha_failover.py tests/test_ha_satellites.py
	$(PYTHON) -m repro.check --suite ha-failover --depth 1
	$(PYTHON) -m repro.check --suite ha-failover-features --depth 2
	$(PYTHON) -m repro.check --suite ha-read --depth 1

# Bounded interleaving model check (docs/VERIFICATION.md); < 2 min.
# On a violation it writes the minimized trace to check-counterexample.json.
check:
	$(PYTHON) -m repro.check --suite warm-import --depth 1
	$(PYTHON) -m repro.check --suite crash-during-drain --suite coalesced-drain \
		--suite delta-ship --suite conflict-export --depth 2

# Where compaction and delta shipping are gated: the microbenchmarks,
# then the pins of compaction's two folds, the export follow-up and
# telemetry's (tests/test_perf_compaction.py: reports folded at queue
# time deliver the reporter's ground truth through drops, lost replies
# and re-ships, and none is folded twice; folding one object's backlog
# at queue time leaves what folding the whole queue would; queuing an
# invoke, an export or a report costs the same Python calls behind 400
# queued requests as behind 40), the delta's (tests/test_perf_delta.py:
# apply(diff) marshals to the new value; the diff equals the one found by
# encoding both sides), then E14's eight rows, whose folds are all export
# follow-ups.
perf:
	$(PYTHON) -m pytest -q benchmarks/test_micro_primitives.py --benchmark-only
	$(PYTHON) -m pytest -q tests/test_perf_compaction.py tests/test_perf_delta.py
	$(PYTHON) -m pytest -q "benchmarks/test_experiments.py::test_experiment[e14]"

# Every frame of E14's mail drain on CSLIP-14.4, one row each: service,
# members, raw and wire bytes, virtual send and arrival times
# (tools/frames.py; seconds).  The traffic a frame budget change moves;
# it reports and gates nothing.
frames:
	$(PYTHON) tools/frames.py

# CPU hot path: codec/group-commit/kernel suite, the codec's call
# budgets (tests/test_speed.py: marshal, unmarshal and marshalled_size
# at 2 calls each, the invoke envelope or 64 levels deep; same_encoding
# at 1 call on two 40-message folders or two values 64 deep; equivalence
# with the per-value references at every varint and depth edge), the
# frame path's (a frame asks its link twice and its spec once, a null
# RPC is 60 Python calls; docs/PERFORMANCE.md, "One frame, one choice"
# and "An event and a frame pay only for themselves"), the step
# charge's pins in the same file ("The step charge": equivalence with
# the call-based guard, a local invoke at nine calls
# for 1 or 80 iterations, the compile budget of 8 calls per load and
# the one AST walk; docs/PERFORMANCE.md, "A step is bytecode, not a
# call" and "A tree walk is one call") and the determinism digest pins.
# E16's drain gate (docs/PERFORMANCE.md, "The CPU hot path") is tier-1:
# it pins counts, its kernel events among them, and compares no time.
speed:
	$(PYTHON) -m pytest -q tests/test_speed.py tests/test_determinism.py

# perfbench (perfbench/README.md): the command in BENCHMARK.json, once
# per listed workload -- end-to-end metrics only; add `--trace 1` by
# hand for the per-layer ledger.
PERFBENCH_WORKLOADS ?= fleet_drain warm_read mail_slowlink ha_failover

perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done

# Python-level calls per operation, the count perfbench's py_calls_per_op
# reports (cProfile over the timed region, seed 7, the runner's hash
# seed), one line per workload (~2 min), with setup_s and peak_rss_mb
# from the same repeat (tools/calls.py; one sample, under cProfile, so
# noisy); it reports and gates nothing.
calls:
	@for w in $(PERFBENCH_WORKLOADS); do \
		PYTHONHASHSEED=0 PYTHONPATH=src:. $(PYTHON) tools/calls.py $$w || exit 1; \
	done

# What fleet_drain keeps: the bytes live when its timed region ends
# (seed 7, tracemalloc, set-up included), then the 20 source files
# holding the most of them (tools/calls.py --retained --by file; ~1 min
# after the count-mode repeat).  The memory ledger behind peak_rss_mb;
# it reports and gates nothing.
footprint:
	PYTHONHASHSEED=0 PYTHONPATH=src:. $(PYTHON) tools/calls.py fleet_drain --retained 20 --by file

# The benchmark's own tests and self-check (~20 s); measures nothing.
# The deselected test hard-codes the E16 gate's bytes_sent/messages_sent
# as they were before PR 14 (coalesced, compressed reconnect drain)
# changed both on purpose; perfbench/ is the benchmark and a program PR
# may not edit it, so the next benchmark PR re-pins it (CHANGES.md).
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q --deselect \
		perfbench/tests/test_smoke.py::test_fleet_drain_at_the_e16_gate_size_reproduces_the_pinned_totals
	$(PYTHON) -m perfbench --selfcheck

# Fleet telemetry: unit/integration suite, the telemetry-fold replay
# property (tests/test_perf_compaction.py), the E15 overhead +
# exactness gate at CI scale, then the operator's CLI end to end
# (docs/OBSERVABILITY.md).
fleet:
	$(PYTHON) -m pytest -q tests/test_fleet_sketch.py tests/test_fleet_pipeline.py \
		tests/test_fleet_health.py tests/test_fleet_chaos.py \
		tests/test_perf_compaction.py::test_compacted_replay_is_equivalent \
		"benchmarks/test_experiments.py::test_experiment[e15]"
	$(PYTHON) -m repro.obs.fleet --clients 20 --timeline --events --prometheus > /dev/null

# Source size, tracked beside the benchmarks (docs/PERFORMANCE.md,
# "Source size"): total lines, then the ten largest files.
sloc:
	@find src/repro -name '*.py' | xargs wc -l | sort -n | tail -11

# Options no caller sets (docs/PERFORMANCE.md, "Source size"): every
# defaulted parameter of a def under src/repro that no call under src/,
# benchmarks/, examples/ or perfbench/ passes, matched by name
# (tools/knobs.py), then the count.  It reports; it gates nothing.
knobs:
	@$(PYTHON) tools/knobs.py

# Which functions of src/repro does anything run?  Records every call
# (tools/reach.py; its hook makes everything several times slower, so
# this takes ~8 min on a 2-core container) over tier-1 and over the
# drivers -- the experiments at gate and at full scale, examples, demo,
# model checks, the perfbench workloads (one repeat each, as
# perfbench.runner starts them) -- then lists what nothing reached and
# what only tests/ reached, each def with its line span, and the lines
# per file.
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
	# What `perfbench/run.py --trace 1` runs beyond the repeats: the
	# host's reference load (repro.speed.measure.calibration_seconds).
	$(REACH) $(PYTHON) -c "from perfbench import runner; runner.calibration_s()"
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
