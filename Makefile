# Convenience targets for the reproduction workflow.

.PHONY: install test loc startup bench-e2e bench-chain bench-cold \
	bench-warm bench-sweep serve stream-sweep experiments \
	experiments-parallel ablations ablate tune-smoke faults-sweep ci \
	examples clean

# Worker count for the parallel experiment runner (override: make N=8 ...).
N ?= 4

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

# Lines of Python under src/ (the size ROADMAP tracks next to wall time).
loc:
	@find src -name '*.py' | xargs cat | wc -l

# Median wall time (ms) of 5 launches each: `python -m repro --help`,
# the start-up every CLI command pays before `main`, and a sweep
# worker's import set (`repro.cli`, `repro.sched`, `repro.stream.sweep`).
startup:
	@PYTHONPATH=src python -c 'import statistics, subprocess, sys, timeit; \
	median = lambda *args: 1000 * statistics.median(timeit.repeat( \
	    lambda: subprocess.run([sys.executable, *args], \
	        stdout=subprocess.DEVNULL, check=True), number=1, repeat=5)); \
	worker = "import repro.cli, repro.sched, repro.stream.sweep"; \
	print("--help: %.0f ms" % median("-m", "repro", "--help")); \
	print("sweep worker imports: %.0f ms" % median("-c", worker))'

# The seeded end-to-end benchmark (bench/): all four workloads, results
# and the machine fingerprint in bench-e2e.json.
bench-e2e:
	python -m bench.run --seed 2013 --out bench-e2e.json

# The paper chain alone, traced: prints the per-layer self-time table.
bench-chain:
	python3 bench/run.py --workload chain --seed 2013 --trace 1

# Cold /predict requests alone, traced: DES loads, load-cache writes and
# the load hit rate per request.
bench-cold:
	python3 bench/run.py --workload predict-cold --seed 2013 --trace 1

# Warm /predict requests alone, traced: memoised page loads, so the
# capacity run and the service aggregates carry each request.
bench-warm:
	python3 bench/run.py --workload predict-warm --seed 2013 --trace 1

# The Fig. 11 sweep through two stream-sweep workers alone, traced:
# worker start-up (`sched.startup`), units, drop resolution, shards.
bench-sweep:
	python3 bench/run.py --workload sweep --seed 2013 --trace 1

# The what-if capacity-planning service (foreground; ^C drains).
serve:
	python -m repro serve --job-dir serve-jobs

# Bounded-memory capacity sweep in streamed blocks, resumable through
# the repro.sched work dir stream-work/ (rerun to resume or replay).
stream-sweep:
	python -m repro stream-sweep --work-dir stream-work

experiments:
	python -m repro experiments

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
# under a next-click delay budget.  --cache makes a rerun resume (every
# finished trial is served from the result cache); --trace writes the
# finished search's JSONL trace.
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
	rm -rf .pytest_cache src/repro.egg-info
