# Developer entry points.

PYTHON ?= python

.PHONY: install test bench bench-snapshot bench-engine bench-engine-check bench-tsdb bench-tsdb-check profile-engine figures docs campaign-smoke trace-smoke serve-smoke fleet-smoke fabric-smoke durable-smoke live-smoke sweeps clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) scripts/export_figures.py

docs:
	$(PYTHON) scripts/gen_counter_docs.py

campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py --workers 4

trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

fleet-smoke:
	$(PYTHON) scripts/fleet_smoke.py

fabric-smoke:
	$(PYTHON) scripts/fabric_smoke.py

durable-smoke:
	$(PYTHON) scripts/durable_smoke.py

live-smoke:
	$(PYTHON) scripts/live_smoke.py

bench-snapshot:
	$(PYTHON) scripts/bench_snapshot.py

# Re-measure the engine hot-path matrix and rewrite BENCH_engine.json.
bench-engine:
	$(PYTHON) scripts/bench_engine.py

# Regression gate: fail when the geomean sim_cycles_per_s drops >15%
# below the committed BENCH_engine.json, a cell's counter digest differs
# from the committed one, or the committed fidelity/pool floors no
# longer hold.
bench-engine-check:
	$(PYTHON) scripts/bench_engine.py --check

# cProfile top-N hotspot dump per app x node cell (add --steady for the
# warp path); the starting point for any engine perf work.
profile-engine:
	$(PYTHON) scripts/profile_engine.py

# Re-measure TSDB ingest/query rates and rewrite BENCH_tsdb.json.
bench-tsdb:
	$(PYTHON) scripts/bench_tsdb.py

# Regression gate: fail when points_per_s drops >30% below the committed
# BENCH_tsdb.json, or a retention bound breaks.
bench-tsdb-check:
	$(PYTHON) scripts/bench_tsdb.py --check

sweeps:
	$(PYTHON) scripts/sweep_local_vs_cxl.py
	$(PYTHON) scripts/sweep_interleave.py

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
