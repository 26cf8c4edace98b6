# Development targets.  The repository is pure python with a src/ layout;
# everything runs against the in-tree sources via PYTHONPATH.

PYTHON ?= python
export PYTHONPATH := src

# Coverage floor CI enforces on src/repro (see `make test-cov`).
COVERAGE_FLOOR ?= 85

.PHONY: test test-fast test-cov test-quick lint docs-check bench-sweep bench-sim bench-plan bench-serve bench-net bench-store bench-obs check clean

## Run the full test suite (tier-1 verification).
test:
	$(PYTHON) -m pytest -x -q

## The tier-1 loop without the slow markers (process-pool hammers,
## multi-process byte-identity sweeps) — the quick inner-loop signal.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Tier-1 under coverage, enforcing the CI floor on src/repro.
## Requires the `coverage` package (CI installs it; the offline dev
## image may not ship it, in which case this target is CI-only).
test-cov:
	$(PYTHON) -m coverage run --source=src/repro -m pytest -q
	$(PYTHON) -m coverage report --fail-under=$(COVERAGE_FLOOR)

## Fast signal: stop at the first failure, quietest output.
test-quick:
	$(PYTHON) -m pytest -x -q tests/test_scenarios.py tests/test_plotting_cli.py tests/test_experiments.py

## Byte-compile every source tree (catches syntax/IO rot without
## third-party linters, which the offline image does not ship).
lint:
	$(PYTHON) -m compileall -q src tests tools benchmarks examples perfbench

## Execute every fenced python block in the documentation.
docs-check:
	$(PYTHON) tools/check_docs.py README.md docs/architecture.md docs/scenarios.md docs/cost-algebra.md docs/backends.md docs/planner.md docs/service.md docs/scheduler.md docs/network.md docs/store.md docs/observability.md

## The vectorized-sweep acceptance bench (bench_*.py is not collected
## by 'make test'; this target runs it explicitly).
bench-sweep:
	$(PYTHON) -m pytest -q benchmarks/bench_vectorized_sweep.py

## The simulated-sweep acceptance bench: chunked process-pool vs serial
## evaluation of a simulated-backend sweep through the task-graph
## scheduler, written to BENCH_sim.json.  Fails on a payload mismatch
## regardless of timings — CI uses it as the payload-identity gate.
bench-sim:
	$(PYTHON) tools/bench_sim_to_json.py

## The capacity-planner acceptance bench: serial vs chunked process-pool
## plan evaluation (byte-identical recommendations, including the Pareto
## frontier), written to BENCH_plan.json.  Also a CI payload-identity gate.
bench-plan:
	$(PYTHON) tools/bench_plan_to_json.py

## The evaluation-service acceptance bench: cold vs cache-hit latency
## and coalesced throughput over real HTTP, written to BENCH_serve.json.
bench-serve:
	$(PYTHON) tools/bench_serve_to_json.py

## The network-backend acceptance bench: serial vs process network
## sweeps (payload-identical) plus the fat-tree-vs-single-switch
## evaluation overhead ratio, written to BENCH_net.json.
bench-net:
	$(PYTHON) tools/bench_net_to_json.py

## The columnar-store acceptance bench: cached-hit latency vs grid size,
## delta-sweep cost vs full recompute (byte-identical payloads) and
## progressive refinement coverage, written to BENCH_store.json.
bench-store:
	$(PYTHON) tools/bench_store_to_json.py

## The telemetry-overhead acceptance bench: the sweep hot path with
## metrics hard-off (baseline), metrics on (the default), and metrics +
## tracing on, written to BENCH_obs.json.  Enforces the overhead floors
## (<= 2% always-on, <= 10% traced).
bench-obs:
	$(PYTHON) tools/bench_obs_to_json.py

## Everything CI would run.
check: lint test docs-check bench-sweep bench-sim bench-plan bench-serve bench-net bench-store bench-obs

clean:
	find . -name '__pycache__' -type d -exec rm -rf {} +
	rm -rf .pytest_cache
