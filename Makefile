# Convenience targets for the reproduction repository.

.PHONY: install test test-all fuzz verify coverage bench bench-small bench-sim bench-smoke tech-smoke pareto-smoke profile-smoke char-smoke report examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Everything, including the slow sweeps and long-budget fuzz markers the
# default run deselects.
test-all:
	pytest tests/ -m ''

# Differential fuzzing: the compiled engine vs the bool reference vs the
# pure-Python oracle, plus the metamorphic relations
# (docs/VERIFICATION.md).  Seeded, so a given budget/seed pair is fully
# reproducible.  The nightly-scale invocation is:
#   python -m repro.cli verify fuzz --budget 100000
fuzz:
	PYTHONPATH=src python -m repro.cli verify fuzz --budget 5000 --seed 0

# Tier-1 tests plus a ~30 second fuzz smoke: the pre-merge gate.
verify: test
	PYTHONPATH=src python -m repro.cli verify fuzz --budget 100000 --seed 0

bench:
	pytest benchmarks/ --benchmark-only -s

bench-small:
	REPRO_BENCH_SCALE=small pytest benchmarks/ --benchmark-only -s

# Simulation kernel comparison (bool reference vs compiled engine)
# on a 16-bit multiplier; verifies bit-for-bit parity and appends the
# speedups to BENCH_simulate.json.
bench-sim:
	PYTHONPATH=src python benchmarks/bench_simulate.py

# Tiny end-to-end check of the parallel characterization path and the
# persistent cache: two CLI runs with --jobs 2; the second must be served
# entirely from disk.
bench-smoke:
	PYTHONPATH=src python scripts/bench_smoke.py

# End-to-end check of the technology calibration layer
# (docs/TECHNOLOGY.md): a PAE sweep over two module families x three
# widths x three nodes with schema validation and monotone
# energy/leakage trends, then a live-server calibration check (physical
# block with node, bit-identical normalized figures, 400 on unknown
# nodes).
tech-smoke:
	PYTHONPATH=src python scripts/tech_smoke.py

# End-to-end check of the parameterized variant sweep (docs/MODULES.md):
# a power-vs-error pareto report over two approximate adder families x
# three parameter values x two widths with schema validation, full
# combination coverage, a zero-error-anchored front, bit-identical
# degenerate collapse onto the parent, strictly monotone charge vs the
# truncation cut, and a schema-valid `report pareto --json` CLI envelope.
pareto-smoke:
	PYTHONPATH=src python scripts/pareto_smoke.py

# Tier-1 suite under pytest-cov with targeted floors on the incremental
# core and the serve layer; the global number is informational only.
# Skips cleanly when pytest-cov isn't installed (it is a test extra).
coverage:
	PYTHONPATH=src python scripts/coverage_gate.py

# End-to-end check of the tracing/profiling subsystem
# (docs/OBSERVABILITY.md): --profile produces an about://tracing-loadable
# Chrome artifact covering every layer (including --jobs 2 worker
# processes), and a traced serve request returns its span summary.
profile-smoke:
	PYTHONPATH=src python scripts/profile_smoke.py

# Cold characterization end to end through the benchmark runner: the
# char_narrow workload for ~2 s; exits 1 unless every job succeeds with
# bit-identical coefficients on every pass (benchmarks/e2e/README.md).
char-smoke:
	python3 benchmarks/e2e/run.py --workload char_narrow --seed 3 --seconds 2

report:
	python -m repro.cli reproduce -o REPORT.txt

examples:
	for f in examples/*.py; do echo "== $$f"; python "$$f"; done

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
