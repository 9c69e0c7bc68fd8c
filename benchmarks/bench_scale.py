"""Scale benchmark: the pruning and generation phases at 10k-1M records.

Runs the pruning phase over the synthetic ``largescale`` population
(:mod:`repro.datasets.largescale`) at increasing record counts, comparing
the vectorized sharded join against the scalar paths, verifying byte-
identical candidate sets wherever more than one variant runs, and writing
``BENCH_scale.json`` at the repo root in the shared BENCH schema with
records/sec, pairs/sec, and peak-RSS meters per run.

Pruning variants per tier (each capped by its env knob):

* ``vectorized``  — the production prefix engine, sharded
  (:mod:`repro.pruning.shard`); runs at every tier.
* ``scalar-join`` — the scalar prefix join, called directly (its test
  oracle, :func:`repro.pruning.prefix_join.prefix_filtered_candidates`);
  capped at ``REPRO_BENCH_SCALAR_CAP``.
* ``reference``   — the seed engine (token blocking + per-pair scoring
  loop, the original scalar reference of the pruning phase), reached by
  plain token Jaccard without set metadata; capped at
  ``REPRO_BENCH_REFERENCE_CAP``.

Generation variants per tier (capped at ``REPRO_BENCH_GENERATION_CAP``,
driven by the tier's vectorized candidate set):

* ``pivot-classic`` — the classic single-process fast PC-Pivot engine.
* ``pivot-sharded`` — per-component PC-Pivot over
  ``REPRO_BENCH_PIVOT_SHARDS`` shard tasks in
  ``REPRO_BENCH_PIVOT_PROCESSES`` supervised worker processes, plus the
  cross-shard merge (:mod:`repro.core.pivot_shard`).  The clustering
  (cluster IDs included) must match the classic run exactly; the
  crowdsourced pair count may differ (component-local Equation-4 rounds
  waste different — usually fewer — pairs than the globally-coupled
  classic rounds), and the crowd *iteration* count drops to the deepest
  component's round count because every component crowdsources its
  round-``r`` batch simultaneously.  ``generation_iteration_speedup``
  (classic iterations / sharded iterations) is the hardware-independent
  generation-phase win: in a deployed system the phase's latency is
  crowd iterations times the crowd round-trip, which dwarfs CPU.  The
  wall-clock ``generation_speedup`` additionally needs as many real
  cores as worker processes — on a single-core container the process
  fan-out is pure timesharing overhead.

Refinement variants per tier (capped at ``REPRO_BENCH_REFINE_CAP``, on a
*confused* regeneration of the tier — ``confusion=REPRO_BENCH_REFINE_CONFUSION``
gives the refine phase real over-/under-merge work; the clean default
generator produces clusterings the phase barely touches):

* ``refine-classic`` — the classic single-process fast PC-Refine engine.
* ``refine-sharded`` — per-component PC-Refine over
  ``REPRO_BENCH_REFINE_SHARDS`` shard tasks in
  ``REPRO_BENCH_REFINE_PROCESSES`` supervised worker processes, plus the
  cross-shard merged-round replay (:mod:`repro.core.refine_shard`).
  Both variants refine the same generation-phase clustering.
  ``refine_iteration_speedup`` is the crowd-latency win (sharded
  iterations = the deepest component's round count);
  ``refine_classic_identical`` records whether the sharded partition
  matched the classic engine's bit for bit (guaranteed across sharded
  configs, empirical vs classic — see ``repro/core/refine_shard.py``).

Standalone (no pytest)::

    python benchmarks/bench_scale.py                      # 10k + 100k + 1M
    REPRO_BENCH_SCALE_TIERS=10000 python benchmarks/bench_scale.py   # smoke

Environment knobs:
    REPRO_BENCH_SCALE_TIERS    comma-separated record counts
                               (default "10000,100000,1000000")
    REPRO_BENCH_SHARDS         shard count for the vectorized run (default 8)
    REPRO_BENCH_PARALLEL       worker processes for the sharded run
                               (default 0 = in-process shard loop)
    REPRO_BENCH_SCALAR_CAP     largest tier for scalar-join (default 100000)
    REPRO_BENCH_REFERENCE_CAP  largest tier for reference (default 10000)
    REPRO_BENCH_GENERATION_CAP     largest tier for the generation stage
                                   (default 100000)
    REPRO_BENCH_PIVOT_SHARDS       shard tasks for pivot-sharded (default 64)
    REPRO_BENCH_PIVOT_PROCESSES    worker processes for pivot-sharded
                                   (default min(4, CPU count); <= 1 =
                                   in-process — supervised workers only
                                   pay off with real cores, so a
                                   single-core host defaults to the
                                   in-process shard loop)
    REPRO_BENCH_REFINE_CAP         largest tier for the refinement stage
                                   (default 100000)
    REPRO_BENCH_REFINE_SHARDS      shard tasks for refine-sharded (default 64)
    REPRO_BENCH_REFINE_PROCESSES   worker processes for refine-sharded
                                   (default min(4, CPU count), as above)
    REPRO_BENCH_REFINE_CONFUSION   confusion knob for the refine-stage
                                   dataset (default 0.25)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets.largescale import BASE_RECORDS, generate_largescale  # noqa: E402
from repro.experiments.configs import PRUNING_THRESHOLD  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    write_bench_json,
)
from repro.pruning.candidate import build_candidate_set  # noqa: E402
from repro.pruning.prefix_join import prefix_filtered_candidates  # noqa: E402
from repro.similarity.composite import (  # noqa: E402
    SET_METRIC_FUNCTIONS,
    SimilarityFunction,
    jaccard_similarity_function,
)
from repro.similarity.jaccard import token_jaccard  # noqa: E402

TIERS = tuple(
    int(tier)
    for tier in os.environ.get(
        "REPRO_BENCH_SCALE_TIERS", "10000,100000,1000000"
    ).split(",")
    if tier.strip()
)
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "8"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SCALAR_CAP = int(os.environ.get("REPRO_BENCH_SCALAR_CAP", "100000"))
REFERENCE_CAP = int(os.environ.get("REPRO_BENCH_REFERENCE_CAP", "10000"))
GENERATION_CAP = int(os.environ.get("REPRO_BENCH_GENERATION_CAP", "100000"))
#: Worker processes only help with real cores to run them on; a
#: single-core host (common for CI containers) pays fork + IPC overhead
#: for zero parallelism, so the default degrades to the in-process loop.
_DEFAULT_PROCESSES = str(min(4, os.cpu_count() or 1))
PIVOT_SHARDS = int(os.environ.get("REPRO_BENCH_PIVOT_SHARDS", "64"))
PIVOT_PROCESSES = int(
    os.environ.get("REPRO_BENCH_PIVOT_PROCESSES", _DEFAULT_PROCESSES))
REFINE_CAP = int(os.environ.get("REPRO_BENCH_REFINE_CAP", "100000"))
REFINE_SHARDS = int(os.environ.get("REPRO_BENCH_REFINE_SHARDS", "64"))
REFINE_PROCESSES = int(
    os.environ.get("REPRO_BENCH_REFINE_PROCESSES", _DEFAULT_PROCESSES))
REFINE_CONFUSION = float(
    os.environ.get("REPRO_BENCH_REFINE_CONFUSION", "0.25"))
SEED = 1
OUTPUT = REPO_ROOT / "BENCH_scale.json"


def _measure(records, *, shards: int, parallel: int = 0, similarity=None):
    """One pruning run; returns (candidate_set, timings-with-meters).
    ``similarity`` defaults to the prefix-join-eligible Jaccard."""
    timings = StageTimings()
    candidates = build_candidate_set(
        records, similarity or jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, shards=shards, parallel=parallel,
        timings=timings,
    )
    _record_meters(timings, len(records), len(candidates))
    return candidates, timings


def _measure_scalar_join(records):
    """One run of the scalar prefix join; returns (pairs, scores, timings)."""
    similarity = jaccard_similarity_function()
    timings = StageTimings()
    pairs, scores = prefix_filtered_candidates(
        records, set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS["jaccard"], metric="jaccard",
        threshold=PRUNING_THRESHOLD, timings=timings,
    )
    _record_meters(timings, len(records), len(pairs))
    return pairs, scores, timings


def _record_meters(timings, records: int, pairs: int) -> None:
    timings.record_throughput("records_per_second", records)
    timings.record_throughput("pairs_per_second", pairs)
    timings.record_peak_rss()


def _measure_generation(dataset, candidates, *, shards: int = 0,
                        processes: int = 0):
    """One cluster-generation run; returns (clustering, stats, timings)."""
    from repro.core.pc_pivot import pc_pivot
    from repro.crowd.cache import AnswerFile
    from repro.crowd.oracle import CrowdOracle
    from repro.crowd.worker import WorkerPool
    from repro.experiments.configs import difficulty_model

    # A fresh pair-seeded answer file per variant: identical answers,
    # no cross-variant memo warming.
    answers = AnswerFile(
        dataset.gold,
        WorkerPool(difficulty=difficulty_model("largescale"), num_workers=3),
    )
    oracle = CrowdOracle(answers)
    timings = StageTimings()
    with timings.stage("generation"):
        clustering = pc_pivot(
            dataset.record_ids, candidates, oracle, seed=SEED,
            shards=shards, processes=processes,
        )
    timings.record_throughput("records_per_second", len(dataset.records))
    timings.record_throughput("pairs_per_second",
                              int(oracle.stats.pairs_issued))
    timings.record_peak_rss()
    return clustering, oracle.stats, timings


def _generation_stage(label, tier, dataset, candidates, runs, derived):
    """The generation tier: classic vs sharded-parallel PC-Pivot.

    Returns False when the sharded run diverges from the classic one
    (the caller fails the benchmark).
    """
    classic, classic_stats, classic_timings = _measure_generation(
        dataset, candidates)
    runs[f"{label}/pivot-classic"] = run_entry(
        classic_timings, records=tier,
        pairs_issued=int(classic_stats.pairs_issued),
        iterations=int(classic_stats.iterations),
        clusters=len(classic),
    )
    print(f"{label}/pivot-classic: {classic_timings.total:.2f}s, "
          f"{int(classic_stats.pairs_issued)} pairs, "
          f"{int(classic_stats.iterations)} crowd iterations, "
          f"peak RSS "
          f"{classic_timings.meters['peak_rss_bytes'] / 2**20:.0f} MiB")

    sharded, sharded_stats, sharded_timings = _measure_generation(
        dataset, candidates, shards=PIVOT_SHARDS, processes=PIVOT_PROCESSES)
    runs[f"{label}/pivot-sharded"] = run_entry(
        sharded_timings, records=tier,
        pairs_issued=int(sharded_stats.pairs_issued),
        iterations=int(sharded_stats.iterations),
        clusters=len(sharded),
        shards=PIVOT_SHARDS, processes=PIVOT_PROCESSES,
    )
    if sharded.to_state() != classic.to_state():
        print(f"FAIL: {label}: sharded generation clustering diverged",
              file=sys.stderr)
        return False
    speedup = classic_timings.total / max(sharded_timings.total, 1e-12)
    derived[f"{label}/generation_speedup"] = round(speedup, 2)
    # The generation phase's deployed cost is crowd latency: iterations
    # times the crowd round-trip.  Merged component rounds crowdsource
    # every component simultaneously, so the sharded iteration count is
    # the deepest component's round count — this ratio is the
    # hardware-independent phase speedup.
    iteration_speedup = classic_stats.iterations / max(
        sharded_stats.iterations, 1)
    derived[f"{label}/generation_iteration_speedup"] = round(
        iteration_speedup, 2)
    # The pair counts legitimately differ: component-local Equation-4
    # rounds waste differently than the globally-coupled classic rounds
    # (usually less).  Only the clustering is pinned across engines.
    derived[f"{label}/generation_pairs_saved"] = int(
        classic_stats.pairs_issued - sharded_stats.pairs_issued)
    print(f"{label}/pivot-sharded: {sharded_timings.total:.2f}s "
          f"({speedup:.1f}x wall, {iteration_speedup:.1f}x crowd "
          f"iterations [{int(sharded_stats.iterations)} vs "
          f"{int(classic_stats.iterations)}], identical clustering, "
          f"{int(sharded_stats.pairs_issued)} vs "
          f"{int(classic_stats.pairs_issued)} pairs)")
    return True


def _measure_refine(dataset, candidates, *, shards: int = 0,
                    processes: int = 0):
    """One refinement run from a freshly generated clustering.

    The generation phase (untimed, identical across variants: same seed,
    pair-deterministic answers) produces the starting clustering and the
    shared phase-2 answer set; only ``pc_refine`` is measured.  Returns
    (clustering, refine_iterations, refine_pairs, timings); the timings
    carry the engine's own per-stage breakdown plus an explicit
    ``total`` equal to the refine wall-clock.
    """
    from repro.core.pc_pivot import pc_pivot
    from repro.core.pc_refine import pc_refine
    from repro.crowd.cache import AnswerFile
    from repro.crowd.oracle import CrowdOracle
    from repro.crowd.worker import WorkerPool
    from repro.experiments.configs import difficulty_model

    answers = AnswerFile(
        dataset.gold,
        WorkerPool(difficulty=difficulty_model("largescale"), num_workers=3),
    )
    oracle = CrowdOracle(answers)
    clustering = pc_pivot(dataset.record_ids, candidates, oracle, seed=SEED,
                          shards=PIVOT_SHARDS)
    generation_iterations = oracle.stats.iterations
    generation_pairs = oracle.stats.pairs_issued

    timings = StageTimings()
    with timings.stage("refine"):
        clustering = pc_refine(
            clustering, candidates, oracle,
            num_records=len(dataset.records),
            shards=shards, processes=processes, timings=timings,
        )
    # The engine's sub-stages (refine.free, refine.evaluate, ... or
    # refine.partition, refine.workers, refine.replay) accumulated into
    # the same StageTimings; pin the explicit total to the refine
    # wall-clock so the breakdown does not double-count it.
    timings.add("total", timings.seconds("refine"))
    refine_pairs = int(oracle.stats.pairs_issued - generation_pairs)
    timings.record_throughput("pairs_per_second", refine_pairs,
                              stage="refine")
    timings.record_peak_rss()
    return (clustering, int(oracle.stats.iterations - generation_iterations),
            refine_pairs, timings)


def _refine_stage(label, tier, runs, derived):
    """The refinement tier: classic vs sharded-parallel PC-Refine.

    Regenerates the tier with the ``confusion`` knob (the clean dataset
    leaves the refine phase nothing to do) and prunes it, then refines
    the same generation clustering under both engines.  Returns False
    only on an internal benchmark failure; a sharded-vs-classic
    partition difference is recorded (``refine_classic_identical``),
    not failed — cross-*config* identity is the guaranteed contract and
    the test suites pin it, classic parity is empirical.
    """
    dataset = generate_largescale(scale=tier / BASE_RECORDS, seed=SEED,
                                  confusion=REFINE_CONFUSION)
    candidates, _ = _measure(
        dataset.records, shards=SHARDS, parallel=PARALLEL,
    )

    classic, classic_iters, classic_pairs, classic_timings = _measure_refine(
        dataset, candidates)
    runs[f"{label}/refine-classic"] = run_entry(
        classic_timings, records=tier, candidate_pairs=len(candidates),
        pairs_issued=classic_pairs, iterations=classic_iters,
        clusters=len(classic),
    )
    print(f"{label}/refine-classic: "
          f"{classic_timings.seconds('refine'):.2f}s, "
          f"{classic_pairs} pairs, {classic_iters} crowd iterations, "
          f"{len(classic)} clusters")

    sharded, sharded_iters, sharded_pairs, sharded_timings = _measure_refine(
        dataset, candidates, shards=REFINE_SHARDS,
        processes=REFINE_PROCESSES)
    runs[f"{label}/refine-sharded"] = run_entry(
        sharded_timings, records=tier, candidate_pairs=len(candidates),
        pairs_issued=sharded_pairs, iterations=sharded_iters,
        clusters=len(sharded),
        shards=REFINE_SHARDS, processes=REFINE_PROCESSES,
    )
    identical = sharded.to_state() == classic.to_state()
    speedup = (classic_timings.seconds("refine")
               / max(sharded_timings.seconds("refine"), 1e-12))
    derived[f"{label}/refine_speedup"] = round(speedup, 2)
    # As with generation, the deployed cost of the phase is crowd
    # latency: merged component rounds crowdsource every component's
    # round-r batch simultaneously, so the sharded iteration count is
    # the deepest component's round count.
    iteration_speedup = classic_iters / max(sharded_iters, 1)
    derived[f"{label}/refine_iteration_speedup"] = round(
        iteration_speedup, 2)
    derived[f"{label}/refine_classic_identical"] = identical
    print(f"{label}/refine-sharded: "
          f"{sharded_timings.seconds('refine'):.2f}s "
          f"({speedup:.1f}x wall, {iteration_speedup:.1f}x crowd "
          f"iterations [{sharded_iters} vs {classic_iters}], "
          f"{'identical' if identical else 'DIVERGED'} clustering, "
          f"{sharded_pairs} vs {classic_pairs} pairs)")
    if not identical:
        print(f"note: {label}: sharded refine partition differs from "
              "classic (allowed — classic parity is empirical; "
              "cross-config identity is covered by the test suites)")
    return True


def main() -> int:
    runs = {}
    derived = {}
    for tier in TIERS:
        label = f"{tier // 1000}k" if tier < 1_000_000 else f"{tier // 1_000_000}M"
        dataset = generate_largescale(scale=tier / BASE_RECORDS, seed=SEED)
        assert len(dataset.records) == tier

        vec, vec_timings = _measure(
            dataset.records, shards=SHARDS, parallel=PARALLEL,
        )
        runs[f"{label}/vectorized"] = run_entry(
            vec_timings, records=tier, pairs=len(vec),
            shards=SHARDS, parallel=PARALLEL,
        )
        print(f"{label}/vectorized: {vec_timings.total:.2f}s, "
              f"{len(vec)} pairs, "
              f"{vec_timings.meters['records_per_second']:.0f} rec/s, "
              f"peak RSS {vec_timings.meters['peak_rss_bytes'] / 2**20:.0f} MiB")

        if tier <= SCALAR_CAP:
            # Unsharded single-shard vectorized run: shard-count invariance
            # at real scale (cheap — same kernel, no partitioning).
            one, one_timings = _measure(dataset.records, shards=1)
            runs[f"{label}/vectorized-1shard"] = run_entry(
                one_timings, records=tier, pairs=len(one), shards=1,
            )
            if (one.pairs, one.machine_scores) != (vec.pairs, vec.machine_scores):
                print(f"FAIL: {label}: shard counts disagree", file=sys.stderr)
                return 1

            scalar_pairs, scalar_scores, scalar_timings = _measure_scalar_join(
                dataset.records)
            runs[f"{label}/scalar-join"] = run_entry(
                scalar_timings, records=tier, pairs=len(scalar_pairs),
            )
            if (tuple(scalar_pairs), scalar_scores) != (vec.pairs,
                                                        vec.machine_scores):
                print(f"FAIL: {label}: scalar join disagrees",
                      file=sys.stderr)
                return 1
            speedup = scalar_timings.total / max(vec_timings.total, 1e-12)
            derived[f"{label}/speedup_vs_scalar_join"] = round(speedup, 2)
            print(f"{label}/scalar-join: {scalar_timings.total:.2f}s "
                  f"({speedup:.1f}x, identical)")

        if tier <= REFERENCE_CAP:
            reference, ref_timings = _measure(
                dataset.records, shards=0,
                similarity=SimilarityFunction("jaccard", token_jaccard),
            )
            runs[f"{label}/reference"] = run_entry(
                ref_timings, records=tier, pairs=len(reference),
            )
            if (reference.pairs, reference.machine_scores) != (
                    vec.pairs, vec.machine_scores):
                print(f"FAIL: {label}: reference engine disagrees",
                      file=sys.stderr)
                return 1
            speedup = ref_timings.total / max(vec_timings.total, 1e-12)
            derived[f"{label}/speedup_vs_reference"] = round(speedup, 2)
            print(f"{label}/reference: {ref_timings.total:.2f}s "
                  f"({speedup:.1f}x, identical)")

        if tier <= GENERATION_CAP:
            if not _generation_stage(label, tier, dataset, vec, runs,
                                     derived):
                return 1

        if tier <= REFINE_CAP:
            if not _refine_stage(label, tier, runs, derived):
                return 1

    payload = bench_payload(
        "scale",
        config={
            "tiers": list(TIERS), "seed": SEED, "shards": SHARDS,
            "parallel": PARALLEL, "threshold": PRUNING_THRESHOLD,
            "scalar_cap": SCALAR_CAP, "reference_cap": REFERENCE_CAP,
            "generation_cap": GENERATION_CAP,
            "pivot_shards": PIVOT_SHARDS,
            "pivot_processes": PIVOT_PROCESSES,
            "refine_cap": REFINE_CAP,
            "refine_shards": REFINE_SHARDS,
            "refine_processes": REFINE_PROCESSES,
            "refine_confusion": REFINE_CONFUSION,
            "dataset": "largescale", "metric": "jaccard",
        },
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
