# Convenience targets for the GPU-ArraySort reproduction.

PYTHON ?= python

.PHONY: install check lint statan sanitize test test-resilience test-service bench bench-claims bench-smoke bench-gate bench-hotpath planner-gate radix-gate service-gate bench-service chaos-smoke chaos-gate bench-chaos fleet-smoke fleet-gate fleet-soak bench-fleet capacity-smoke capacity-gate bench-capacity perfbench report examples figures table1 clean

# Smoke benchmark artifacts are throwaway sanity outputs; they go to the
# temp dir, never the repo root (gate artifacts ARE committed).
SMOKE_DIR ?= $(if $(TMPDIR),$(TMPDIR),/tmp)

install:
	pip install -e . --no-build-isolation

# The default pre-PR gate: static analysis first (fails in seconds),
# then the test suite, the sanitized checked-build subset, then the
# radix and fleet gates re-applied to the committed benchmark artifacts
# (no re-benchmarking; seconds each).
check: lint test sanitize radix-gate fleet-gate capacity-gate

# ruff and mypy run when installed (CI installs them; a bare container
# may not have them) — statan always runs, it is stdlib-only.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "== ruff =="; ruff check src tests || exit 1; \
	else echo "== ruff == (not installed, skipped)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo "== mypy =="; mypy || exit 1; \
	else echo "== mypy == (not installed, skipped)"; fi
	@echo "== statan =="
	PYTHONPATH=src $(PYTHON) -m repro statan src benchmarks

# Project-native static analysis alone (see docs/static-analysis.md).
statan:
	PYTHONPATH=src $(PYTHON) -m repro statan src benchmarks

# Checked build: re-run the concurrent tiers (service, fleet, capacity,
# chaos) with the runtime concurrency sanitizer armed — instrumented
# locks (guarded-by + lock-order) and region epochs (stale zero-copy
# views).  Minutes, not hours; see docs/static-analysis.md.
sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/ \
		-m "service or fleet or capacity or chaos" -q

# The chaos-marked tests run as part of the default suite (they are in
# tests/), so `make test` already covers the seeded chaos smoke path.
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-resilience:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m faultinject -q

test-service:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m service -q

# Seeded small-grid chaos run: the chaos-marked tests plus one smoke
# cell of the live harness, schema-checked but not gated.  A live
# faulted/baseline p99 ratio over a few hundred requests is luck: it
# ranged 0.33-6.18 over ten live chaos-mid runs on one quiet host.  The
# SLO gate is chaos-gate, on the committed artifact.  Seconds; safe for
# every CI run.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m chaos -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --grid smoke \
		--out $(SMOKE_DIR)/BENCH_chaos_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py \
		--check-schema $(SMOKE_DIR)/BENCH_chaos_smoke.json

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-claims:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-disable -s

# Tiny grid + v2 schema self-check (incl. the planner column); seconds.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --grid smoke \
		--repeats 2 --out $(SMOKE_DIR)/BENCH_hotpath_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py \
		--check-schema $(SMOKE_DIR)/BENCH_hotpath_smoke.json

# Perf-regression gate: fails if the fused path is slower than the
# unfused path anywhere on the reference grid, if the adaptive planner
# misses the best static engine by more than 10%, or if radix loses its
# expected large-n cells.
bench-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --grid reference \
		--repeats 3 --gate --gate-planner --gate-radix \
		--out BENCH_hotpath.json

# Planner-only gate on the reference grid: the adaptive planner must be
# within 10% of the best static engine on every cell.
planner-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --grid reference \
		--repeats 3 --gate-planner

# Radix gate re-applied to the committed artifact: on every
# radix_expected cell the radix engine beat the fused serial engine by
# >= 1.5x and the adaptive planner picked radix there without a flag.
radix-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py \
		--check-radix-gate BENCH_hotpath.json

# Serving gate: the dynamically-batched SortService must deliver >= 2x
# the unbatched per-request throughput at the mid traffic cell, with
# p99 latency inside the linger + deadline budget.
service-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --grid load \
		--gate

# Full serving artifact — this is what the committed BENCH_service.json
# was produced with.
bench-service:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --grid load \
		--gate --out BENCH_service.json

# Chaos gate on the committed artifact: at the chaos-mid cell,
# quarantined rows failed only the poisoning tenant's requests, faulted
# p99 stayed within 2x the fault-free p99, and the flooding tenant
# pushed no innocent tenant's rejection rate above 5%.
chaos-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py \
		--check-gate BENCH_chaos.json

# Full chaos artifact — this is what the committed BENCH_chaos.json was
# produced with (gated live while generating).
bench-chaos:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --grid load \
		--gate --out BENCH_chaos.json

# Fleet smoke: the fleet-marked tests (router units, e2e, failover,
# metrics) plus the smoke bench grid written to the temp dir and
# schema-checked.  A minute or two; no artifact left in the repo.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m fleet -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --grid smoke \
		--linger-ms 5 --out $(SMOKE_DIR)/BENCH_fleet_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py \
		--check-schema $(SMOKE_DIR)/BENCH_fleet_smoke.json

# Fleet gate re-applied to the committed artifact (no re-benchmarking):
# >= 3x single-worker throughput at 4 workers, p99 bounded under 2x
# single-worker load, and the failover drain completed every accepted
# request byte-correctly with zero drops.
fleet-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py \
		--check-gate BENCH_fleet.json

# Fleet failover soak: tests/test_fleet_failover.py RUNS times in a row
# beside BUSY pure-Python spin processes (a loaded host is where a
# failover race shows), stopping at the first failing run.  The
# spinners are killed on any exit.  e.g. make fleet-soak RUNS=5 BUSY=0
RUNS ?= 20
BUSY ?= 2
fleet-soak:
	@pids=""; trap 'kill $$pids 2>/dev/null' EXIT; trap 'exit 130' INT TERM; \
	for i in $$(seq 1 $(BUSY)); do \
		$(PYTHON) -c 'while True: pass' & pids="$$pids $$!"; \
	done; \
	for run in $$(seq 1 $(RUNS)); do \
		echo "== fleet-soak run $$run/$(RUNS) (busy loops: $(BUSY)) =="; \
		PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_failover.py -q \
			|| { echo "fleet-soak: run $$run of $(RUNS) FAILED"; exit 1; }; \
	done; \
	echo "fleet-soak: $(RUNS) of $(RUNS) runs passed"

# Full fleet artifact — this is what the committed BENCH_fleet.json was
# produced with (gated live while generating; several minutes).
bench-fleet:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --grid load \
		--gate --out BENCH_fleet.json

# Capacity smoke: the capacity-marked tests (budget model, spill store,
# resume/kill, RLIMIT_AS ceiling) plus the smoke bench grid written to
# the temp dir and schema-checked.  A minute or so; no repo artifact.
capacity-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m capacity -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_capacity.py --grid smoke \
		--out $(SMOKE_DIR)/BENCH_capacity_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_capacity.py \
		--check-schema $(SMOKE_DIR)/BENCH_capacity_smoke.json

# Capacity gate re-applied to the committed artifact (no
# re-benchmarking): a batch >= 4x larger than its declared memory
# budget sorted byte-identically through the spill path, and the
# kill-resume cell completed from checkpoint with zero re-emitted
# chunks.
capacity-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_capacity.py \
		--check-gate BENCH_capacity.json

# Full capacity artifact — this is what the committed
# BENCH_capacity.json was produced with (gated live while generating).
bench-capacity:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_capacity.py --grid load \
		--gate --out BENCH_capacity.json

# Full artifact including the paper's Fig. 4 anchor (N=1e5, n=1000,
# float32); several minutes — this is what the committed
# BENCH_hotpath.json was produced with.
bench-hotpath:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --grid fig4 \
		--repeats 3 --gate --gate-planner --gate-radix \
		--out BENCH_hotpath.json

# The repo benchmark (BENCHMARK.json) on one workload over several
# seeds: ROADMAP gates such as "batch x_npsort <= 1.05 on three seeds".
# Prints each run's result line (the metrics JSON); perfbench removes
# its own scratch directory.  e.g. make perfbench WORKLOAD=serve SEEDS="4 5"
WORKLOAD ?= batch
SEEDS ?= 1 2 3
SECONDS ?= 25
perfbench:
	@for s in $(SEEDS); do \
		out=$$(python3 perfbench/run.py --workload $(WORKLOAD) --seed $$s \
			--seconds $(SECONDS)); status=$$?; \
		echo "$(WORKLOAD) seed $$s: $$(printf '%s\n' "$$out" | tail -n 1)"; \
		[ $$status -eq 0 ] || exit $$status; \
	done

report:
	PYTHONPATH=src $(PYTHON) -m repro report

figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

table1:
	PYTHONPATH=src $(PYTHON) -m repro table1

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
