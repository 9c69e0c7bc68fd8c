.PHONY: install test bench bench-quick bench-smoke bench-pruning bench-refine bench-pivot bench-scale bench-scale-smoke bench-pipeline chaos-smoke chaos-runtime trace-smoke examples lint clean

install:
	python setup.py develop

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only -q

bench-quick:
	REPRO_BENCH_SCALE=0.3 REPRO_BENCH_REPS=2 pytest benchmarks/ --benchmark-only -q

# Tiny-scale perf harness: regenerates BENCH_pruning.json and
# BENCH_endtoend.json at the repo root (machine-readable stage timings).
bench-smoke: bench-pruning
	REPRO_BENCH_SCALE=0.2 python benchmarks/bench_endtoend.py

# Pruning benchmark: the prefix join vs the reference scoring loop on
# every dataset, exiting 1 if they ever diverge.  Regenerates
# BENCH_pruning.json at the repo root.
bench-pruning:
	REPRO_BENCH_SCALE=0.3 python benchmarks/bench_pruning.py

# Refinement-engine benchmark: fast (incremental, cached) vs reference
# (full re-evaluation) PC-Refine on every dataset, asserting identical
# outputs.  Regenerates BENCH_refine.json at the repo root.
bench-refine:
	REPRO_BENCH_SCALE=0.5 python benchmarks/bench_refine.py

# Pivot-engine benchmark: fast (incremental live order, fused Equation-4
# scan) vs reference (per-round re-derivation) PC-Pivot on every dataset,
# asserting identical outputs.  Regenerates BENCH_pivot.json at the repo
# root.
bench-pivot:
	REPRO_BENCH_SCALE=1.0 python benchmarks/bench_pivot.py

# Scale benchmark: vectorized sharded pruning vs the scalar paths on the
# synthetic largescale population (10k / 100k / 1M records), asserting
# byte-identical candidate sets, plus the cluster-generation stage
# (classic vs sharded-parallel PC-Pivot, identical clusterings, crowd-
# iteration and wall-clock speedups) on tiers up to
# REPRO_BENCH_GENERATION_CAP and the refinement stage (classic vs
# sharded-parallel PC-Refine on a confused regeneration of the tier,
# refine_speedup / refine_iteration_speedup, advisory classic-parity
# flag) on tiers up to REPRO_BENCH_REFINE_CAP.  Regenerates
# BENCH_scale.json at the repo root with records/sec, pairs/sec, and
# peak-RSS meters.
bench-scale:
	python benchmarks/bench_scale.py

# 10k-only tier for CI runners (minutes, not tens of minutes).
bench-scale-smoke:
	REPRO_BENCH_SCALE_TIERS=10000 python benchmarks/bench_scale.py

# Pipelined-executor smoke: barrier vs component-streaming pipelined
# execution of the same sharded configuration under a simulated crowd
# latency model, asserting byte-identical candidate sets and final
# clusterings and reporting pipeline_makespan_speedup /
# pipeline_overlap_efficiency.  Runs a reduced 20k tier for CI runners
# (the committed BENCH_endtoend.json carries the full 100k tier);
# regenerates BENCH_endtoend.json at the repo root.
bench-pipeline:
	REPRO_BENCH_STAGES=pipelined REPRO_BENCH_PIPELINE_RECORDS=20000 \
		REPRO_BENCH_PIPELINE_WORKERS=4 \
		python benchmarks/bench_endtoend.py

# Fault-injection smoke: every pipeline family must terminate under the
# default hostile crowd (abandonment, timeouts, spammers, early quorum),
# the supervised worker pools must stay byte-identical under process
# faults (kills, delays, poison chunks) for the sharded pruning join,
# the sharded cluster-generation engine, the sharded refinement engine,
# and the component-streaming pipelined executor (also checked against
# barrier execution), and all three phase checkpoints (pruning /
# generation / refinement) must kill-resume byte-identically.
# Regenerates CHAOS_smoke.json at the repo root.
chaos-smoke:
	python -m repro chaos --dataset restaurant --scale 0.1 --seeds 5 \
		--output CHAOS_smoke.json

# Runtime-focused chaos: the process-fault matrix (worker kills / task
# delays / poison chunks on sharded 10k pruning, sharded cluster
# generation, sharded refinement, and the pipelined executor) and the
# checkpoint kill-resume
# checks for all three phases, with the crowd-side sweep cut to a
# single seed.  Writes CHAOS_runtime.json (not tracked).
chaos-runtime:
	python -m repro chaos --dataset restaurant --scale 0.1 --seeds 1 \
		--runtime-records 10000 --output CHAOS_runtime.json

# Observability smoke: one traced run end to end, then the manifest must
# validate and the trace must summarize.  Regenerates TRACE_smoke.jsonl
# and TRACE_smoke.manifest.json at the repo root.
trace-smoke:
	python -m repro run restaurant --scale 0.1 --trace TRACE_smoke.jsonl
	python -m repro trace validate TRACE_smoke.manifest.json
	python -m repro trace summarize TRACE_smoke.jsonl

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

lint:
	python -m py_compile $$(find src -name '*.py')

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
