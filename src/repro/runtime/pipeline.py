"""Records in, clustering out: the three ACD phases on worker processes.

:func:`run_pipeline` is a short composition of the barrier engines.
Pruning runs first, as :func:`~repro.pruning.candidate.build_candidate_set`
with ``shards="auto"`` (the tier heuristic of
:mod:`repro.runtime.autoshard`).  Then :func:`~repro.core.acd.run_acd`
runs sharded PC-Pivot and sharded PC-Refine, each with
:data:`~repro.runtime.autoshard.AUTO_PIVOT_SHARDS` /
:data:`~repro.runtime.autoshard.AUTO_REFINE_SHARDS` phase shards.  Every
phase runs on its own supervised pool of ``workers`` processes.  The
result is therefore byte-identical to calling those two functions with
the same arguments.

The paper's latency is its number of crowd rounds (Sections 4.2 and
5.4), and the phase barriers do not change that number: the sharded
phases already run their rounds concurrently across components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.acd import ACDResult, run_acd
from repro.core.pivot_shard import require_pair_deterministic
from repro.obs import ObsContext
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    build_candidate_set,
)
from repro.runtime.autoshard import AUTO_PIVOT_SHARDS, AUTO_REFINE_SHARDS
from repro.runtime.supervisor import RuntimeReport, collect_reports


@dataclass
class PipelineResult:
    """Everything a :func:`run_pipeline` call produces.

    Attributes:
        candidates: The pruning phase's candidate set.
        result: The :class:`~repro.core.acd.ACDResult`.
        report: The summed :class:`RuntimeReport` of every supervised
            pool the run started (pruning, pivot and refine shards).
    """

    candidates: CandidateSet
    result: ACDResult
    report: RuntimeReport


def run_pipeline(
    answers,
    *,
    records: Sequence,
    similarity,
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 0,
    seed: Optional[int] = None,
    obs: Optional[ObsContext] = None,
) -> PipelineResult:
    """Prune ``records``, then run sharded ACD over the survivors.

    Args:
        answers: A pair-deterministic crowd answer source (the sharded
            phases resolve pairs in worker processes).
        records: The record set ``R``.
        similarity: Machine similarity function for pruning.
        threshold: Pruning threshold τ.
        workers: Worker processes of each phase's pool (``<= 1`` runs
            the shard tasks in-process).
        seed: Seed for the pivot permutation.
        obs: Optional :class:`~repro.obs.ObsContext`, passed to both
            calls.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    # Checked here too, so a bad source fails before pruning is paid for.
    require_pair_deterministic(answers, "generation")
    with collect_reports() as report:
        candidates = build_candidate_set(
            records, similarity, threshold=threshold, shards="auto",
            parallel=workers, obs=obs,
        )
        result = run_acd(
            [record.record_id for record in records], candidates, answers,
            seed=seed, obs=obs,
            pivot_shards=AUTO_PIVOT_SHARDS, pivot_processes=workers,
            refine_shards=AUTO_REFINE_SHARDS, refine_processes=workers,
        )
    return PipelineResult(candidates=candidates, result=result,
                          report=report)
