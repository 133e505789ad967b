# Align with the tier-1 command in ROADMAP.md: run against src/ directly
# so a fresh clone works without a develop install.
PYTHONPATH_SRC = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test chaos bench bench-quick docs-check examples all

install:
	python setup.py develop

test:
	$(PYTHONPATH_SRC) python -m pytest tests/

# Chaos suite: fault injection (transient errors, delays) and
# budget-governed execution, checked bit-identical to the seed path.
chaos:
	$(PYTHONPATH_SRC) python -m pytest tests/chaos -q

bench:
	$(PYTHONPATH_SRC) python -m pytest benchmarks/ --benchmark-only

# Smoke-run the A3/A4/A5/A6/A7 perf benches on tiny sizes: exercises the
# measured paths (seed / compiled kernel / bitset kernel / telemetry
# on+off / persistent store cold-vs-warm / compiled quantitative
# substrate vs object channel path) and their agreement asserts without
# recording numbers or enforcing most bars.  The A6 bench always uses
# fresh tmp store paths and asserts its cold legs saw zero hits, so a
# populated store lying around (e.g. REPRO_STORE pointing at one) can
# never accidentally warm a measurement.  This is what the CI bench-smoke
# job runs.
bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHONPATH_SRC) python -m pytest \
		benchmarks/test_a3_engine.py benchmarks/test_a3_compiled.py \
		benchmarks/test_a3_induction.py benchmarks/test_a3_budget.py \
		benchmarks/test_a4_telemetry.py benchmarks/test_a5_bitset.py \
		benchmarks/test_a6_persist.py benchmarks/test_a7_quantitative.py -q

examples:
	$(PYTHONPATH_SRC) python examples/quickstart.py
	$(PYTHONPATH_SRC) python examples/program_certifier.py
	$(PYTHONPATH_SRC) python examples/covert_channel_audit.py
	$(PYTHONPATH_SRC) python examples/verified_writers.py
	$(PYTHONPATH_SRC) python examples/confinement_service.py

docs-check:
	$(PYTHONPATH_SRC) python -m pytest --doctest-modules src/repro -q

all: test bench
