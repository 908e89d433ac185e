# Developer entry points.  `make verify` is the tier-1 gate; `make
# test-all` additionally runs the slow-marked golden regressions.

PY := PYTHONPATH=src python

.PHONY: verify test test-all bench bench-smoke lint goldens goldens-check reproduce trace-smoke chaos-smoke campaign-smoke dse-smoke fleet-smoke obs-smoke coverage clean-cache

verify: test

test:
	$(PY) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; pip install -e '.[dev]' to enable linting"; \
	fi

test-all:
	$(PY) -m pytest -x -q -m ""

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# Tiny sweep benchmark (synthetic trace; sweep results must equal
# per-config run_profile) plus the sweep equivalence suite; the CI
# companion of the full `pytest benchmarks/test_sweep_bench.py` run that
# writes BENCH_simulator.json (see docs/performance.md).
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks/test_sweep_bench.py -x -q
	$(PY) -m pytest tests/test_batchsim_equivalence.py -x -q

goldens:
	$(PY) -m repro.runtime.goldens --update

goldens-check:
	$(PY) -m repro.runtime.goldens --check

reproduce:
	$(PY) -m repro.experiments.runall --fast --jobs 4 --json report.json

# 30-second seeded chaos soak: the full service (process pools, shared
# trace store, result cache) under worker kills, shm unlinks and cache
# corruption, refereed by the differential oracle.  Fails on any
# silently wrong answer; the same --seed replays the identical fault
# schedule (see docs/testing.md).
chaos-smoke:
	$(PY) -m repro chaos --seed 42 --duration 30

# Parse $(1)/index.html with html.parser; print its size under label $(2).
check-html = $(PY) -c "from html.parser import HTMLParser; \
	html = open('$(1)/index.html').read(); \
	p = HTMLParser(); p.feed(html); p.close(); \
	print('$(2) HTML ok (%d bytes)' % len(html))"

# Resuming a finished study and re-rendering its dashboard must be
# byte-identical no-ops: $(1) is the subcommand, $(2) the out dir, $(3)
# the JSON report name.
check-resume = mkdir -p $(2).orig && cp $(2)/$(3) $(2)/index.html $(2).orig/ && \
	$(PY) -m repro $(1) resume --out $(2) >/dev/null && \
	$(PY) -m repro $(1) report --out $(2) >/dev/null && \
	cmp $(2)/$(3) $(2).orig/$(3) && cmp $(2)/index.html $(2).orig/index.html && \
	echo "$(1) resume + report are byte-identical no-ops"

# CI-sized fault-injection campaign: 16 runs of the canned MSR bit-flip
# faultload on two workers, then validate that the HTML report parses,
# and that resume + report of the finished campaign change no byte (see
# docs/campaigns.md).  Deterministic: --seed 42 replays the exact same
# faultloads and report bytes.
campaign-smoke:
	@rm -rf campaign-smoke.out campaign-smoke.out.orig
	$(PY) -m repro campaign run --spec msr_bitflip_nginx --seed 42 \
		--samples 4 --jobs 2 --out campaign-smoke.out
	$(call check-html,campaign-smoke.out,campaign)
	$(call check-resume,campaign,campaign-smoke.out,campaign_report.json)
	@rm -rf campaign-smoke.out campaign-smoke.out.orig

# CI-sized design-space exploration: the canned 2-generation x
# 8-genome nginx search (NSGA-II over deadline/strategy/offset/corner/
# IMUL depth), then validate that the Pareto dashboard parses and that
# resume + report of the finished search change no byte (see
# docs/dse.md).  Deterministic: same seed, same report bytes; finishes
# in about a second.
dse-smoke:
	@rm -rf dse-smoke.out dse-smoke.out.orig
	$(PY) -m repro dse run --search nginx_quick --out dse-smoke.out
	$(call check-html,dse-smoke.out,dse)
	$(call check-resume,dse,dse-smoke.out,dse_report.json)
	@rm -rf dse-smoke.out dse-smoke.out.orig

# Chaos-over-fleet smoke: a 3-node in-process fleet behind the
# gateway, a 200-request burst sequence (8 bursts x 25 canonical
# requests), one node killed while its requests are in flight.  The
# differential oracle referees: the gateway must reroute with zero
# wrong answers — and, since simulations are pure, zero degraded ones
# (see docs/fleet.md).  Deterministic via --seed; runs in seconds.
fleet-smoke:
	$(PY) -m repro fleet soak --seed 42 --nodes 3 --requests 25 --bursts 8

# Observability smoke: a 2-node fleet drives 50 requests while the
# scraper samples windowed metrics; asserts a stitched multi-process
# trace (gateway -> node -> worker, time-aligned, no orphan spans), a
# windowed p95 diverging from the cumulative one, a burn-rate alert
# firing then resolving, and an html.parser-valid dashboard (see
# docs/observability.md).  Exit 1 on any failed check.
obs-smoke:
	$(PY) -m repro obs smoke --out obs-smoke.out
	@rm -rf obs-smoke.out

# Tier-1 suite with line coverage (requires pytest-cov: pip install
# -e '.[dev]').  CI enforces the floor; ratchet it upward, never down.
coverage:
	$(PY) -m pytest -x -q --cov=repro --cov-report=term --cov-fail-under=78

# Run a small experiment with execution tracing on and schema-check the
# resulting Chrome trace (see docs/observability.md).
trace-smoke:
	$(PY) -m repro trace fig15_strategies --out trace-smoke.json --validate
	@rm -f trace-smoke.json

clean-cache:
	$(PY) -c "from repro.runtime.cache import ResultCache; print(ResultCache().clear(), 'entries removed')"
