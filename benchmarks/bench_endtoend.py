"""End-to-end benchmark: pruning + full ACD run per dataset.

Times the two phases the fast-path work targets — candidate generation
(``pruning``) and the crowd pipeline that consumes it (``acd``) — and
writes ``BENCH_endtoend.json`` at the repo root in the shared BENCH schema.

Standalone (no pytest)::

    REPRO_BENCH_SCALE=0.3 python benchmarks/bench_endtoend.py

Environment knobs:
    REPRO_BENCH_SCALE          dataset scale (default 1.0)
    REPRO_BENCH_PARALLEL       pruning worker processes (default 0)
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import (  # noqa: E402
    ACD_METHOD,
    prepare_instance,
    run_method,
)
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    write_bench_json,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SEED = 1
SETTING = "3w"
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_endtoend.json"


def main() -> int:
    runs = {}
    plain_total = 0.0
    traced_total = 0.0
    for dataset_name in DATASETS:
        timings = StageTimings()
        with timings.stage("pruning"):
            instance = prepare_instance(
                dataset_name, SETTING, scale=SCALE, seed=SEED,
                parallel=PARALLEL,
            )
        # Untimed warm-up: the first run populates the lazy answer file,
        # which would otherwise be billed to whichever stage runs first.
        run_method(ACD_METHOD, instance, seed=SEED)
        with timings.stage("acd"):
            result = run_method(ACD_METHOD, instance, seed=SEED)
        # Same run again under full observability (spans + metrics + JSONL
        # stream to disk) — the delta is the tracing overhead.
        with tempfile.TemporaryDirectory() as tmpdir:
            with timings.stage("acd_traced"):
                with ObsContext.to_path(Path(tmpdir) / "bench.trace.jsonl") as obs:
                    traced = run_method(ACD_METHOD, instance, seed=SEED,
                                        obs=obs)
        assert traced.pairs_issued == result.pairs_issued, \
            "tracing must not perturb the run"
        plain_total += timings.seconds("acd")
        traced_total += timings.seconds("acd_traced")
        timings.record_throughput("pruning_records_per_second",
                                  len(instance.record_ids), stage="pruning")
        timings.record_peak_rss()
        runs[dataset_name] = run_entry(
            timings,
            records=len(instance.record_ids),
            candidate_pairs=len(instance.candidates),
            f1=round(result.f1, 4),
            pairs_issued=result.pairs_issued,
        )
        print(
            f"{dataset_name}: pruning {timings.seconds('pruning'):.3f}s, "
            f"acd {timings.seconds('acd'):.3f}s, "
            f"traced {timings.seconds('acd_traced'):.3f}s, "
            f"F1 {result.f1:.3f}"
        )

    overhead_pct = ((traced_total - plain_total) / plain_total * 100.0
                    if plain_total > 0 else 0.0)
    print(f"trace overhead: {overhead_pct:+.2f}% "
          f"(plain {plain_total:.3f}s, traced {traced_total:.3f}s)")

    payload = bench_payload(
        "endtoend",
        config={"scale": SCALE, "seed": SEED,
                "parallel": PARALLEL, "setting": SETTING,
                "datasets": list(DATASETS)},
        runs=runs,
        derived={"trace_overhead_pct": round(overhead_pct, 2)},
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
