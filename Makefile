# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test typecheck perf-smoke perf-pairs cpu-scaling plane-layers crossover surface examples examples-check artefacts clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Strict-type the wire-contract package (matches the CI step).
typecheck:
	mypy --strict src/repro/protocol

# The repo benchmark at smoke scale + its self-test (the CI "Perf
# harness smoke" step, command for command).
perf-smoke:
	python3 perf/run.py --scale smoke
	$(PYTHON) -m pytest perf/ -q

# Alternating parent/change pairs of one workload -- the protocol behind
# every performance claim in CHANGES.md (see tools/perf_pairs.py):
#   make perf-pairs PARENT=HEAD~1 WORKLOAD=tick1000_single SEED=0 PAIRS=10
# CHANGE=<tree> pairs another tree than this one, SECONDS=<s> shortens
# each pass, LAYERS=<a,b> adds a traced pass per tree for those per_layer
# rows; each flag is passed only when set.
PARENT ?= HEAD
WORKLOAD ?= tick1000_single
SEED ?= 0
PAIRS ?= 10
perf-pairs:
	python3 tools/perf_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
	    --seed $(SEED) --pairs $(PAIRS) \
	    $(if $(CHANGE),--change $(CHANGE)) $(if $(SECONDS),--seconds $(SECONDS)) $(if $(LAYERS),--layers $(LAYERS))

# Speedup of one workload from CPU set A to CPU set B (a reading, not a
# gate; see tools/cpu_scaling.py): alternating pairs, each run pinned to
# its set, median and IQR per end-to-end metric.
#   make cpu-scaling WORKLOAD=zipf_planes_fork PAIRS=5 CPUS_A=0 CPUS_B=0-1
# CPUS_A / CPUS_B default to the lowest allowed CPU / every allowed CPU.
cpu-scaling:
	python3 tools/cpu_scaling.py --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) \
	    $(if $(CPUS_A),--cpus-a $(CPUS_A)) $(if $(CPUS_B),--cpus-b $(CPUS_B)) $(if $(SECONDS),--seconds $(SECONDS))

# Seconds per run inside the market planes (a reading, not a gate; see
# tools/plane_layers.py): the plane workloads' inline twin, median of
# RUNS runs per mechanism of boundary, the eq. 4 solve, the retry tick,
# the market tick and execution replay.
#   make plane-layers SEED=0 RUNS=5
plane-layers:
	python3 tools/plane_layers.py --seed $(SEED) $(if $(RUNS),--runs $(RUNS))

# Re-measure market_tick.SCALAR_LANES_MAX: lane book vs. scalar twin,
# microseconds by lane count, refusing and settled fraction (~10 s; the
# constant's comment quotes it).
crossover:
	python3 tools/lane_crossover.py

# Functions and classes of src/ that only tests (or nothing) reference;
# DESIGN.md §8 gives each listed entry its reason, and
# tests/test_surface.py fails until the two list the same entries.
surface:
	python3 tools/surface.py

# The five walkthroughs, end to end, each run once (the CI "Examples"
# step; ~13 s): the four deterministic ones through `examples-check`,
# then sqlite_federation, which times real queries, so it is run, not
# checked.  Like `test`, needs `make install` or PYTHONPATH=src.
examples: examples-check
	$(PYTHON) examples/sqlite_federation.py

# The four deterministic walkthroughs' stdout, diffed against
# examples/expected/.
CHECKED_EXAMPLES = quickstart overload_surge zipf_federation failure_recovery
examples-check:
	@mkdir -p build/examples
	@for name in $(CHECKED_EXAMPLES); do \
	    $(PYTHON) examples/$$name.py > build/examples/$$name.txt || exit 1; \
	    diff -u examples/expected/$$name.txt build/examples/$$name.txt || exit 1; \
	    echo "$$name: stdout matches examples/expected/$$name.txt"; \
	done

# Regenerate every paper artefact via the CLI (scaled-down), archiving
# a versioned JSON result per experiment under benchmarks/results/.
artefacts:
	$(PYTHON) -m repro run all --scale small --json

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
