PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench tier1 lint batch-parallel-smoke perfbench clean

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ -q

tier1:
	$(PYTHON) -m pytest -x -q

# Mirror of the CI batch-parallel-smoke job: drive the real CLI with
# --processes 2 vs --processes 1 and require identical reports and
# deterministic profile counter sections.
batch-parallel-smoke:
	$(PYTHON) tools/parallel_smoke.py

# Mirror of the CI perfbench job: the benchmark's self-tests, then one
# traced fresh-ilp pass; both must exit 0.  Then, on fresh-ilp,
# sharded-batch and resubmit-stream, two untraced passes under
# PYTHONHASHSEED=0 and =3 must print the same records digest, and
# `cluster build` for the three Python MOOC problems must write
# byte-identical stores under PYTHONHASHSEED 0, 1 and 3.
perfbench:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload fresh-ilp --seed 1 --seconds 10 --trace 1
	@for workload in fresh-ilp sharded-batch resubmit-stream; do \
	zero=$$(PYTHONHASHSEED=0 $(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 10 --trace 0) && \
	three=$$(PYTHONHASHSEED=3 $(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 10 --trace 0) && \
	first=$$(echo "$$zero" | grep -o 'digest=[0-9a-f]*') && \
	second=$$(echo "$$three" | grep -o 'digest=[0-9a-f]*') && \
	echo "$$workload PYTHONHASHSEED=0 $$first" && echo "$$workload PYTHONHASHSEED=3 $$second" && \
	test -n "$$first" && test "$$first" = "$$second" || \
	{ echo "$$workload records digest depends on PYTHONHASHSEED"; exit 1; }; \
	done
	@tmp=$$(mktemp -d) && for problem in derivatives oddTuples polynomials; do \
	for hashseed in 0 1 3; do \
	PYTHONHASHSEED=$$hashseed $(PYTHON) -m repro.cli cluster build --problem $$problem \
	--correct 30 --seed 7 --output $$tmp/$$problem-$$hashseed/clusters.json >/dev/null || exit 1; \
	done; \
	for hashseed in 1 3; do \
	diff -r $$tmp/$$problem-0 $$tmp/$$problem-$$hashseed >/dev/null || \
	{ echo "$$problem store bytes depend on PYTHONHASHSEED ($$hashseed)"; exit 1; }; \
	done; \
	echo "$$problem store bytes identical under PYTHONHASHSEED 0, 1 and 3"; \
	done; \
	rm -rf $$tmp

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; bytecode compile check only (CI runs ruff)"; \
	fi

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
