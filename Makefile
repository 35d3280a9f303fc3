# Convenience targets for the reproduction workflow.

.PHONY: install test bench bench-baseline bench-compare bench-e2e \
	bench-chain bench-ablate bench-ablate-search bench-sched bench-serve serve \
	stream-sweep stream-bench experiments \
	experiments-parallel ablations ablate tune-smoke faults-sweep ci \
	examples clean

# Worker count for the parallel experiment runner (override: make N=8 ...).
N ?= 4

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

bench:
	python -m pytest benchmarks/ --benchmark-only -s

# Performance trajectory: bench-baseline writes the committed baseline
# artifact; bench-compare writes the next BENCH_<n>.json and fails on a
# >25% suite-total regression against the baseline.
bench-baseline:
	python -m repro.runtime.profiling bench --out BENCH_0.json

bench-compare:
	python -m repro.runtime.profiling bench --out auto --compare BENCH_0.json

# The seeded end-to-end benchmark (bench/): all four workloads, results
# and the machine fingerprint in bench-e2e.json.
bench-e2e:
	python -m bench.run --seed 2013 --out bench-e2e.json

# The paper chain alone, traced: prints the per-layer self-time table.
bench-chain:
	python3 bench/run.py --workload chain --seed 2013 --trace 1

# Ablation-matrix engine rows: cold wall time + warm cache-hit rate
# (BENCH_5).
bench-ablate:
	python -m repro.runtime.profiling bench --select ablation_matrix \
		--out BENCH_5.json

# Batched tune-engine rows: cold vs warm halving search plus
# population-objective throughput (BENCH_6).
bench-ablate-search:
	python -m repro.runtime.profiling bench --select ablation_search \
		--out BENCH_6.json

# Distributed work-stealing scheduler: 1-worker task timings plus the
# modelled 8-worker speedup on the fig11 10x sweep (BENCH_7).
bench-sched:
	python -m repro.runtime.profiling bench --select sched_workdir \
		--out BENCH_7.json

# Serving rows: warm p99 under 8 closed-loop clients, micro-batched vs
# unbatched, over the in-process HTTP server (BENCH_8).
bench-serve:
	python -m repro.runtime.profiling bench --select serve \
		--out BENCH_8.json

# The what-if capacity-planning service (foreground; ^C drains).
serve:
	python -m repro serve --job-dir serve-jobs

# Bounded-memory capacity sweep through the block pipeline, with
# resumable shard spills under stream-shards/.
stream-sweep:
	python -m repro stream-sweep --out stream-shards

# In-memory vs streamed wall-clock and peak-RSS comparison (BENCH_3).
stream-bench:
	python -m repro.stream.bench --out BENCH_3.json

experiments:
	python -m repro.experiments.runner

experiments-parallel:
	python -m repro experiments --parallel $(N) --cache

ablations:
	python -m repro ablations

# Declarative ablation matrix over the full default registry, with the
# importance ranking exported next to the deterministic report.
ablate:
	python -m repro ablate --matrix loo --cache \
		--report ablation-report.json --rank-out ablation-rank.json

# Constrained timer/threshold search at cell edge: successive halving
# under a next-click delay budget, with a resumable JSONL trace.
tune-smoke:
	python -m repro tune --algorithm halving --profile cell_edge \
		--budget-delay 1.2 --trials 10 --cache \
		--trace tune-trace.jsonl --report tune-report.json

faults-sweep:
	python -m repro faults-sweep --parallel $(N)

ci:
	python -m pytest -x -q
	python -m repro experiments --parallel 2 fig01 table05
	python -m repro faults-sweep --parallel 2 ideal congested

examples:
	python examples/quickstart.py
	python examples/browse_session.py
	python examples/content_tour.py
	python examples/benchmark_report.py
	python examples/reading_time_prediction.py
	python examples/capacity_planning.py
	python examples/power_trace.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache src/repro.egg-info .benchmarks
