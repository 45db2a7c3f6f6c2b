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
# traced fresh-ilp pass; both must exit 0.
perfbench:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload fresh-ilp --seed 1 --seconds 10 --trace 1

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
