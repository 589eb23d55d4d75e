# Convenience targets for the GPU-ArraySort reproduction.

PYTHON ?= python

# The per-driver targets come from three pattern rules (see below); GNU
# make applies no pattern rule to a .PHONY target, so they are not listed.
.PHONY: install check lint statan sanitize test test-resilience test-service bench bench-claims bench-smoke bench-gate fleet-soak perfbench report examples figures table1 clean

# Smoke benchmark artifacts are throwaway sanity outputs; they go to the
# temp dir, never the repo root (gate artifacts ARE committed).
SMOKE_DIR ?= $(if $(TMPDIR),$(TMPDIR),/tmp)

install:
	pip install -e . --no-build-isolation

# The five benchmark drivers, benchmarks/bench_<name>.py, each owning a
# committed BENCH_<name>.json.
DRIVERS = hotpath service chaos fleet capacity

# The default pre-PR gate: static analysis first (fails in seconds),
# then the test suite, the sanitized checked-build subset, then every
# driver's gates re-applied to its committed benchmark artifact (no
# re-benchmarking; seconds each).
check: lint test sanitize $(DRIVERS:%=%-gate)

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

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-claims:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-disable -s

# <driver>-gate: re-apply every gate of bench_<driver>.py to the
# committed BENCH_<driver>.json and re-validate it (no re-benchmarking).
# The gate thresholds are constants in each driver's GATES.
%-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_$*.py --check-gate BENCH_$*.json

# <driver>-smoke: the driver's marker tests (where it has a marker), then
# its smoke grid written to the temp dir and schema-checked; gates are
# not applied.  Seconds to a minute or two; no artifact left in the repo.
# The chaos smoke cell's live faulted/baseline p99 ratio is luck: it
# ranged 0.33-6.18 over ten live chaos-mid runs on one quiet host, so
# the chaos SLO gate is chaos-gate, on the committed artifact.
SMOKE_MARKER_chaos = chaos
SMOKE_MARKER_fleet = fleet
SMOKE_MARKER_capacity = capacity
SMOKE_ARGS_hotpath = --repeats 2
SMOKE_ARGS_fleet = --linger-ms 5
%-smoke:
	$(if $(SMOKE_MARKER_$*),PYTHONPATH=src $(PYTHON) -m pytest tests/ -m $(SMOKE_MARKER_$*) -q)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_$*.py --grid smoke \
		$(SMOKE_ARGS_$*) --out $(SMOKE_DIR)/BENCH_$*_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_$*.py \
		--check-schema $(SMOKE_DIR)/BENCH_$*_smoke.json

# bench-<driver>: regenerate the committed BENCH_<driver>.json, gated
# live.  Minutes each.  Only the hotpath fig4 grid carries the paper's
# Fig. 4 anchor cell (N=1e5, n=1000, float32) that
# tests/test_bench_hotpath.py pins, so only it may write BENCH_hotpath.json.
BENCH_ARGS_hotpath = --grid fig4 --repeats 3
bench-%:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_$*.py \
		$(or $(BENCH_ARGS_$*),--grid load) --gate --out BENCH_$*.json

bench-smoke: hotpath-smoke

# Perf-regression gate, live, on the hotpath reference grid: fused must
# never be slower than unfused, and radix must beat fused by 1.5x on its
# expected large-n cells.  The report goes to the temp dir, never to the
# committed artifact.
bench-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --grid reference \
		--repeats 3 --gate --out $(SMOKE_DIR)/BENCH_hotpath_reference.json

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
