"""Workloads, measurement loop and output check of the repository benchmark.

Every workload runs ACD from generated records to the final clustering
through the package's public entry points (``registry.generate``,
``build_candidate_set``, ``run_acd``, ``pc_pivot``, ``pc_refine``,
``run_pipeline``) and adds no instrumentation inside ``src/``.

Inputs.  A workload's record set is generated from :data:`DATASET_SEED`,
as the paper evaluates on fixed datasets, and ``--seed`` picks the random
pivot permutations ACD draws (the paper's randomness).  Regenerating the
Paper dataset per seed moves ACD time by 3x (2.1-6.7 s over 12 generator
seeds, candidate sets 23.9k-34.4k pairs), which no gate of at most 25 %
could absorb.  ACD's own spread over permutations is still about 10 % in
pairs issued on ``paper-dense``, so that workload runs several
permutations per repetition and reports their mean, as the paper reports
the mean over repeated runs.

Variants.  ``plain`` is what a user runs: ``build_candidate_set`` then
``run_acd`` (or one ``run_pipeline`` call).  ``traced`` makes the same
calls with the benchmark's spans around each layer; it calls ``pc_pivot``
then ``pc_refine`` on one ``CrowdOracle`` exactly as ``run_acd`` does, so
the phases split from outside.  ``obs`` is ``plain`` with an in-memory
``ObsContext`` attached.  End-to-end metrics come from ``plain`` alone;
the traced run interleaves all three.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.acd import run_acd
from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.pc_pivot import DEFAULT_EPSILON, PCPivotDiagnostics, pc_pivot
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    pc_refine,
)
from repro.crowd.cache import AnswerFile
from repro.crowd.latency import LatencyModel
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.eval.metrics import pairwise_scores
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.obs import ObsContext
from repro.pruning.candidate import CandidateSet, build_candidate_set
from repro.runtime.pipeline import run_pipeline
from repro.similarity.composite import jaccard_similarity_function

from perfbench.spans import CrowdProxy, SpanRecorder

#: Generator seed of every workload's record set (see module docstring).
DATASET_SEED = 1
#: The paper's 3-worker crowd setting.
NUM_WORKERS = 3
PAIRS_PER_HIT = 20
#: Worker processes of the parallel workloads (the 2-core host's nproc).
PROCESSES = 2
#: Shard counts ``shards="auto"`` resolves to at 50k records, so the
#: barrier workload runs the configuration the pipeline's own auto
#: pruning picks.
PRUNING_SHARDS = 8
PHASE_SHARDS = 64
#: Set-up time sampled after each repetition (at least one set-up);
#: ``setup_s`` is the median over the run.
SETUP_SLICE = 0.2
#: Repetitions a run makes even when one repetition outlasts ``--seconds``.
#: Serial workloads run at least two permutations per repetition, so with
#: :class:`CpuRotation` each repetition covers both CPUs of a 2-CPU host.
MIN_REPS = {False: 2, True: 1}


class CpuRotation:
    """Pins an in-process workload to each allowed CPU in turn.

    On a shared host the CPUs of one machine can run at very different
    speeds for minutes at a time; a serial run left on whichever CPU the
    scheduler picked would report that CPU's speed.  Rotating set-up
    samples and pipeline runs over all CPUs makes every run see all of
    them.  ``close`` restores the original affinity.
    """

    def __init__(self, enabled: bool):
        self._cpus = (sorted(os.sched_getaffinity(0))
                      if enabled and hasattr(os, "sched_setaffinity")
                      else [])
        self._turn = 0

    def next(self) -> None:
        if len(self._cpus) > 1:
            cpu = self._cpus[self._turn % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})
            self._turn += 1

    def close(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, self._cpus)


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the execution path it drives.

    Attributes:
        mode: ``serial`` (in-process ``run_acd``), ``barrier`` (sharded
            phases on worker processes) or ``streamed`` (``run_pipeline``).
        permutations: ACD runs per repetition, each with its own pivot
            permutation; metrics are their mean.
    """

    name: str
    dataset: str
    scale: float
    mode: str
    permutations: int = 1
    confusion: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-dense", "paper", 0.5, "serial", permutations=8),
    Workload("restaurant-sparse", "restaurant", 5.0, "serial",
             permutations=2),
    Workload("largescale-barrier", "largescale", 5.0, "barrier",
             permutations=2, confusion=0.25),
    Workload("largescale-streamed", "largescale", 5.0, "streamed",
             permutations=2, confusion=0.25),
)}

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "pairs_issued": "count", "crowd_iterations": "count",
    "crowd_cost_cents": "cents", "crowd_hours": "h", "f1": "ratio",
    "success_share": "ratio",
}

#: Per-layer metrics (``--trace 1``) and their units.  A layer's time is
#: reported as its self time's share of the traced wall time: a layer off
#: a workload's path then reads 0 %, not a constant 0 s.
PER_LAYER_UNITS = {
    "datasets.generate_s": "s",
    "pruning.share_pct": "%", "pruning.candidate_pairs": "count",
    "pc_pivot.share_pct": "%",
    "pc_pivot.rounds": "count", "pc_pivot.pairs_issued": "count",
    "pc_pivot.predicted_waste": "count",
    "pc_refine.share_pct": "%",
    "pc_refine.rounds": "count", "pc_refine.pairs_issued": "count",
    "pc_refine.operation_evaluations": "count",
    "pc_refine.cache_lookups": "count", "pc_refine.cache_hits": "count",
    "pc_refine.cache_hit_rate": "ratio",
    "pc_refine.free_operations": "count",
    "crowd.share_pct": "%", "crowd.answer_calls": "count",
    "crowd.answer_s": "s", "crowd.answers_memoized": "count",
    "runtime.share_pct": "%", "runtime.tasks": "count",
    "runtime.task_retries": "count", "runtime.worker_crashes": "count",
    "runtime.degraded_serial": "count",
    "obs.overhead_pct": "%", "trace.overhead_pct": "%",
    "trace.wall_s": "s", "trace.self_s": "s",
}

#: Metrics that are a pure function of the inputs: gated exactly
#: (``perfbench/compare.py``), never by a noise bound.
EXACT_METRICS = frozenset({
    "pairs_issued", "crowd_iterations", "crowd_cost_cents", "crowd_hours",
    "f1", "pruning.candidate_pairs", "pc_pivot.rounds",
    "pc_pivot.pairs_issued", "pc_pivot.predicted_waste", "pc_refine.rounds",
    "pc_refine.pairs_issued", "pc_refine.operation_evaluations",
    "pc_refine.cache_lookups", "pc_refine.cache_hits",
    "pc_refine.cache_hit_rate", "pc_refine.free_operations",
    "crowd.answer_calls", "crowd.answers_memoized", "runtime.tasks",
})


@dataclass
class Instance:
    """A workload's generated inputs and its simulated crowd."""

    records: list
    record_ids: List[int]
    gold: object
    pool: WorkerPool

    def answers(self) -> AnswerFile:
        """An empty answer file: every pipeline run pays for its answers."""
        return AnswerFile(self.gold, self.pool)


@dataclass
class Outcome:
    """What one ACD pipeline run produced, reduced to what is checked."""

    digest: str
    clustering: Clustering
    stats: CrowdStats
    candidate_pairs: int
    generation: Dict[str, float]
    pivot: Optional[PCPivotDiagnostics]
    refine: Optional[PCRefineDiagnostics]
    runtime: Dict[str, int]


def permutation_seeds(workload: Workload, seed: int) -> List[int]:
    """The pivot-permutation seeds one repetition runs, derived from
    ``seed``."""
    return [seed * workload.permutations + index
            for index in range(workload.permutations)]


def set_up(workload: Workload) -> Tuple[Instance, float]:
    """Generate the records and build the crowd; returns the instance and
    the generation time alone."""
    kwargs = ({} if workload.confusion is None
              else {"confusion": workload.confusion})
    start = time.perf_counter()
    dataset = generate(workload.dataset, scale=workload.scale,
                       seed=DATASET_SEED, **kwargs)
    generated = time.perf_counter() - start
    pool = WorkerPool(difficulty=difficulty_model(workload.dataset),
                      num_workers=NUM_WORKERS)
    return Instance(dataset.records, dataset.record_ids, dataset.gold,
                    pool), generated


# ----------------------------------------------------------------------
# One pipeline run per variant.  Each returns (seconds, outcome builder):
# the digest is computed after the clock stops.
# ----------------------------------------------------------------------

def _prune(instance: Instance, workload: Workload, obs=None) -> CandidateSet:
    sharded = workload.mode != "serial"
    return build_candidate_set(
        instance.records, jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD,
        shards=PRUNING_SHARDS if sharded else 0,
        parallel=PROCESSES if sharded else 0, obs=obs,
    )


def _phase_shards(workload: Workload) -> Tuple[int, int]:
    return ((PHASE_SHARDS, PROCESSES) if workload.mode == "barrier"
            else (0, 0))


def _streamed(instance: Instance, answers, seed: int, obs=None):
    return run_pipeline(
        answers, records=instance.records,
        similarity=jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, workers=PROCESSES, seed=seed, obs=obs,
    )


def run_plain(instance: Instance, workload: Workload, seed: int,
              obs: Optional[ObsContext] = None):
    """``build_candidate_set`` + ``run_acd``, or one ``run_pipeline``."""
    answers = instance.answers()
    start = time.perf_counter()
    if workload.mode == "streamed":
        piped = _streamed(instance, answers, seed, obs)
        elapsed = time.perf_counter() - start
        return elapsed, lambda: _piped_outcome(piped)
    candidates = _prune(instance, workload, obs)
    shards, processes = _phase_shards(workload)
    result = run_acd(
        instance.record_ids, candidates, answers, seed=seed, obs=obs,
        pairs_per_hit=PAIRS_PER_HIT,
        pivot_shards=shards, pivot_processes=processes,
        refine_shards=shards, refine_processes=processes,
    )
    elapsed = time.perf_counter() - start
    return elapsed, lambda: _outcome(
        candidates, result.clustering, result.stats,
        result.generation_stats, result.pivot_diagnostics,
        result.refine_diagnostics, {})


def _piped_outcome(piped) -> Outcome:
    result = piped.result
    return _outcome(piped.candidates, result.clustering, result.stats,
                    result.generation_stats, result.pivot_diagnostics,
                    result.refine_diagnostics, piped.report.as_dict())


def run_traced(instance: Instance, workload: Workload, seed: int,
               recorder: SpanRecorder, run: int):
    """The plain calls with a span around each layer, answered through a
    :class:`CrowdProxy` (worker processes fork the bare source)."""
    answers = CrowdProxy(instance.answers(), recorder)
    start = time.perf_counter()
    with recorder.span("pipeline", run):
        if workload.mode == "streamed":
            with recorder.span("run_pipeline", run):
                piped = _streamed(instance, answers, seed)
        else:
            with recorder.span("pruning", run):
                candidates = _prune(instance, workload)
            shards, processes = _phase_shards(workload)
            stats = CrowdStats(pairs_per_hit=PAIRS_PER_HIT,
                               num_workers=answers.num_workers)
            oracle = CrowdOracle(answers, stats=stats)
            pivot = PCPivotDiagnostics()
            with recorder.span("pc_pivot", run):
                clustering = pc_pivot(
                    instance.record_ids, candidates, oracle,
                    epsilon=DEFAULT_EPSILON, seed=seed, diagnostics=pivot,
                    shards=shards, processes=processes,
                )
            generation = stats.snapshot()
            refine = PCRefineDiagnostics()
            with recorder.span("pc_refine", run):
                clustering = pc_refine(
                    clustering, candidates, oracle,
                    num_records=len(instance.record_ids),
                    threshold_divisor=DEFAULT_THRESHOLD_DIVISOR,
                    num_buckets=DEFAULT_NUM_BUCKETS, diagnostics=refine,
                    shards=shards, processes=processes,
                )
    elapsed = time.perf_counter() - start
    if workload.mode == "streamed":
        return elapsed, lambda: _piped_outcome(piped)
    return elapsed, lambda: _outcome(candidates, clustering, stats,
                                     generation, pivot, refine, {})


def _outcome(candidates: CandidateSet, clustering: Clustering,
             stats: CrowdStats, generation, pivot, refine,
             runtime: Dict[str, int]) -> Outcome:
    scored = [[a, b, candidates.machine_scores[(a, b)]]
              for a, b in candidates.pairs]
    blob = json.dumps([scored, clustering.to_state(), stats.to_state()],
                      sort_keys=True).encode()
    return Outcome(hashlib.sha256(blob).hexdigest(), clustering, stats,
                   len(candidates), dict(generation), pivot, refine,
                   runtime)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------

class OutputMismatch(Exception):
    """A repetition's output failed the benchmark's check."""


def check_outcome(outcome: Outcome, record_ids: Sequence[int]) -> None:
    """The clustering partitions R and the cost counters add up."""
    seen: set = set()
    for _, members in outcome.clustering.to_state()["clusters"]:
        if not members:
            raise OutputMismatch("empty cluster")
        for record in members:
            if record in seen:
                raise OutputMismatch(f"record {record} in two clusters")
            seen.add(record)
    if seen != set(record_ids):
        raise OutputMismatch(
            f"clustering covers {len(seen)} records, R has "
            f"{len(set(record_ids))}")
    stats = outcome.stats
    if (stats.pairs_issued != sum(stats.batch_sizes)
            or stats.iterations != len(stats.batch_sizes)):
        raise OutputMismatch("crowd counters disagree with batch sizes")


def rep_digest(outcomes: Sequence[Outcome]) -> str:
    return hashlib.sha256(
        "".join(o.digest for o in outcomes).encode()).hexdigest()


# ----------------------------------------------------------------------
# The measured run
# ----------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _summary(values: Sequence[float]) -> Dict[str, float]:
    return {"median": _median(values), "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values)}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            spans_path: Optional[Path] = None, log=sys.stderr) -> Dict:
    """Run one workload for about ``seconds`` and return the result.

    Returns a dict with the result line's keys (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus ``detail``: sample counts, timing
    spreads, the output digest, the exact counts and, when traced,
    whether the layer shares fit within the wall time.
    """
    # Parallel workloads need every CPU for their worker processes.
    cpus = CpuRotation(workload.mode == "serial")
    try:
        return _measure(workload, seed, seconds, trace, spans_path, log,
                        cpus)
    finally:
        cpus.close()


def _measure(workload: Workload, seed: int, seconds: float, trace: bool,
             spans_path: Optional[Path], log, cpus: CpuRotation) -> Dict:
    setup_times: List[float] = []
    generate_times: List[float] = []

    def sample_setup(budget: float) -> Instance:
        """Set up at least once and until ``budget`` seconds are spent.

        Called before the first repetition and after each one, so the
        set-up median covers the same stretch of host time as the
        repetitions do.
        """
        spent = 0.0
        while True:
            cpus.next()
            start = time.perf_counter()
            fresh, generated = set_up(workload)
            fresh.answers()  # each pipeline builds one; count its cost here
            setup_times.append(time.perf_counter() - start)
            generate_times.append(generated)
            spent += setup_times[-1]
            if spent >= budget:
                return fresh

    instance = sample_setup(0.0)
    seeds = permutation_seeds(workload, seed)
    reference: Optional[str] = None
    # An untimed first run: the first pipeline in a process runs slower
    # (heap growth, lazy imports), which would skew a short run.
    try:
        if workload.mode == "streamed":
            # The pipeline's contract: byte-identical to barrier execution.
            barrier = dataclasses.replace(workload, mode="barrier")
            reference = rep_digest([run_plain(instance, barrier, s)[1]()
                                    for s in seeds])
        else:
            run_plain(instance, workload, seeds[0])
    except Exception:  # the repetitions below fail and are counted
        traceback.print_exc(file=log)
        if workload.mode == "streamed":
            reference = "no barrier reference"

    recorder = SpanRecorder()
    runners: Dict[str, Callable[[int, int], tuple]] = {
        "plain": lambda s, run: run_plain(instance, workload, s),
    }
    if trace:
        runners["traced"] = lambda s, run: run_traced(
            instance, workload, s, recorder, run)
        runners["obs"] = lambda s, run: run_plain(instance, workload, s,
                                                  obs=ObsContext())
    variants = list(runners)
    times: Dict[str, List[float]] = {v: [] for v in variants}
    # Per repetition, each variant's time over the plain variant's: the
    # variants alternate pipeline by pipeline, so host drift cancels.
    ratios: Dict[str, List[float]] = {v: [] for v in variants}
    traced_runs: List[int] = []
    first: Optional[List[Outcome]] = None
    attempted = failed = reps = 0
    started = time.perf_counter()
    while True:
        totals = dict.fromkeys(variants, 0.0)
        outcomes: Dict[str, List[Outcome]] = {v: [] for v in variants}
        broken = set()
        for index, s in enumerate(seeds):
            cpus.next()  # the variants of one pipeline share a CPU
            shift = (reps + index) % len(variants)
            for variant in variants[shift:] + variants[:shift]:
                if variant in broken:
                    continue
                try:
                    elapsed, build = runners[variant](s, reps)
                    totals[variant] += elapsed
                    outcomes[variant].append(build())
                except Exception:  # a failing repetition is counted
                    broken.add(variant)
                    traceback.print_exc(file=log)
        for variant in variants:
            attempted += 1
            if variant in broken:
                failed += 1
                continue
            try:
                for outcome in outcomes[variant]:
                    check_outcome(outcome, instance.record_ids)
                digest = rep_digest(outcomes[variant])
                if reference is None:
                    reference = digest
                if digest != reference:
                    raise OutputMismatch(
                        f"{variant} repetition {reps} digest {digest[:12]} "
                        f"!= reference {reference[:12]}")
            except OutputMismatch:
                broken.add(variant)
                failed += 1
                traceback.print_exc(file=log)
                continue
            times[variant].append(totals[variant])
            if "plain" not in broken:
                ratios[variant].append(totals[variant] / totals["plain"])
            if first is None:
                first = outcomes[variant]
            if variant == "traced":
                traced_runs.append(reps)
        reps += 1
        sample_setup(SETUP_SLICE)
        elapsed = time.perf_counter() - started
        if (reps >= MIN_REPS[trace]
                and elapsed + elapsed / reps > seconds):
            break

    if spans_path is not None and trace:
        recorder.write(spans_path)

    metrics: Dict[str, float] = {}
    detail: Dict[str, object] = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "permutation_seeds": seeds, "digest": reference,
        "timings": {}, "exact": {},
    }
    per_run = len(seeds)
    if first is not None:
        if trace:
            metrics.update(_layer_metrics(
                instance, first, times, ratios, recorder, traced_runs,
                generate_times, per_run, detail))
        else:
            wall = [t / per_run for t in times["plain"]]
            metrics.update(_end_to_end_metrics(
                instance, first, wall, setup_times, attempted, failed))
            detail["timings"] = {"wall_s": _summary(wall),
                                 "setup_s": _summary(setup_times)}
        detail["exact"] = {k: v for k, v in metrics.items()
                           if k in EXACT_METRICS}
    return {
        "correct": first is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _end_to_end_metrics(instance: Instance, outcomes: List[Outcome],
                        wall: List[float], setup_times: List[float],
                        attempted: int, failed: int) -> Dict[str, float]:
    latency = LatencyModel()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": _median(wall),
        "setup_s": _median(setup_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "pairs_issued": _mean([o.stats.pairs_issued for o in outcomes]),
        "crowd_iterations": _mean([o.stats.iterations for o in outcomes]),
        "crowd_cost_cents": _mean(
            [o.stats.monetary_cost_cents for o in outcomes]),
        "crowd_hours": _mean(
            [latency.total_seconds(o.stats.batch_sizes) / 3600.0
             for o in outcomes]),
        "f1": _mean([pairwise_scores(o.clustering, instance.gold).f1
                     for o in outcomes]),
        "success_share": 1.0 - failed / attempted,
    }


def _layer_metrics(instance: Instance,
                   outcomes: List[Outcome], times: Dict[str, List[float]],
                   ratios: Dict[str, List[float]], recorder: SpanRecorder,
                   traced_runs: List[int],
                   generate_times: List[float], per_run: int,
                   detail: Dict[str, object]) -> Dict[str, float]:
    layers = [recorder.layer_times(run) for run in traced_runs]

    def overhead(variant: str) -> float:
        return (100.0 * (_median(ratios[variant]) - 1.0)
                if ratios[variant] else 0.0)

    def crowd(run: Dict[str, Dict[str, float]], key: str) -> float:
        return sum(entry[key] for entry in run.values()) / per_run

    def counts(read: Callable[[Outcome], float]) -> float:
        return _mean([read(o) for o in outcomes])

    def refine_cache(o: Outcome, key: str) -> float:
        cache = (o.refine.evaluation_cache if o.refine is not None
                 else None) or {}
        return cache.get(key, 0)

    # Self time of each layer as a share of its traced repetition's wall
    # time; the shares of one repetition add up to at most 100 %.
    shares = []
    for run, total in zip(layers, times["traced"]):
        row = {name: 100.0 * run.get(span, {}).get("self_s", 0.0) / total
               for name, span in (("pruning", "pruning"),
                                  ("pc_pivot", "pc_pivot"),
                                  ("pc_refine", "pc_refine"),
                                  ("runtime", "run_pipeline"),
                                  ("benchmark", "pipeline"))}
        row["crowd"] = 100.0 * sum(e["crowd_s"] for e in run.values()) / total
        shares.append(row)
    detail["self_within_wall"] = all(
        sum(row.values()) <= 100.0 + 1e-6 for row in shares)

    def share(name: str) -> float:
        return _median([row[name] for row in shares])

    lookups = counts(lambda o: refine_cache(o, "lookups"))
    hits = counts(lambda o: refine_cache(o, "hits"))
    metrics = {
        "datasets.generate_s": _median(generate_times),
        "pruning.share_pct": share("pruning"),
        "pruning.candidate_pairs": counts(lambda o: o.candidate_pairs),
        "pc_pivot.share_pct": share("pc_pivot"),
        "pc_pivot.rounds": counts(
            lambda o: o.pivot.rounds if o.pivot else 0),
        "pc_pivot.pairs_issued": counts(
            lambda o: o.generation["pairs_issued"]),
        "pc_pivot.predicted_waste": counts(
            lambda o: o.pivot.total_predicted_waste if o.pivot else 0),
        "pc_refine.share_pct": share("pc_refine"),
        "pc_refine.rounds": counts(
            lambda o: o.refine.rounds if o.refine else 0),
        "pc_refine.pairs_issued": counts(
            lambda o: o.stats.pairs_issued - o.generation["pairs_issued"]),
        "pc_refine.operation_evaluations": counts(
            lambda o: o.refine.operation_evaluations if o.refine else 0),
        "pc_refine.cache_lookups": lookups,
        "pc_refine.cache_hits": hits,
        "pc_refine.cache_hit_rate": hits / lookups if lookups else 0.0,
        "pc_refine.free_operations": counts(
            lambda o: o.refine.free_operations_applied if o.refine else 0),
        "crowd.share_pct": share("crowd"),
        "crowd.answer_calls": (crowd(layers[0], "crowd_calls")
                               if layers else 0.0),
        "crowd.answer_s": _median([crowd(run, "crowd_s") for run in layers]),
        "crowd.answers_memoized": (crowd(layers[0], "crowd_memoized")
                                   if layers else 0.0),
        "runtime.share_pct": share("runtime"),
        "runtime.tasks": counts(lambda o: o.runtime.get("tasks", 0)),
        "runtime.task_retries": counts(
            lambda o: o.runtime.get("task_retries", 0)),
        "runtime.worker_crashes": counts(
            lambda o: o.runtime.get("worker_crashes", 0)),
        "runtime.degraded_serial": counts(
            lambda o: o.runtime.get("degraded_serial", 0)),
        "obs.overhead_pct": overhead("obs"),
        "trace.overhead_pct": overhead("traced"),
        "trace.wall_s": _median([t / per_run for t in times["traced"]]),
        "trace.self_s": _median([run["pipeline"]["self_s"] / per_run
                                 for run in layers]),
    }
    detail["timings"] = {
        variant: _summary([t / per_run for t in values])
        for variant, values in times.items()}
    return metrics
