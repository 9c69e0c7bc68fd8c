"""The pruning phase: build the candidate set ``S``.

Phase 1 of ACD (Section 3): score record pairs with a machine similarity
``f`` and keep pairs with ``f > τ`` (paper: Jaccard, τ = 0.3).  The result is
a :class:`CandidateSet` carrying both the surviving pairs and their machine
scores — the scores feed the refinement phase's histogram estimator and
several baselines' pair orderings.

Engines
-------
``build_candidate_set`` picks one of two ways of producing ``S`` from its
input; no caller can force the choice:

* ``prefix`` — the length-, prefix- and position-filtered set-similarity
  join, vectorized and sharded by blocking key (:mod:`repro.pruning.shard`;
  unsharded means one shard).  It runs whenever it provably produces the
  :class:`CandidateSet` the reference loop would: the similarity carries
  set metadata, no external ``candidate_pairs`` are given, and token
  blocking (when on) matches the metric's set domain.
* ``reference`` — the seed implementation: enumerate candidate pairs
  (token blocking / all pairs / caller-supplied) and score each one.  It
  is the production path for every other input (Jaro-Winkler, Soft
  TF-IDF, field similarities, custom blockers); the opt-in ``parallel=N``
  knob fans its scoring loop out to worker processes
  (:mod:`repro.pruning.parallel`).

The scalar prefix join of :mod:`repro.pruning.prefix_join` is the test
oracle of the ``prefix`` engine.  Shard counts only move wall-clock and
memory; every count produces a byte-identical candidate set.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datasets.schema import Record, canonical_pair
from repro.obs import maybe_span
from repro.perf.timing import StageTimings
from repro.pruning.blocking import all_pairs, token_blocking_pairs
from repro.similarity.composite import SET_METRIC_FUNCTIONS, SimilarityFunction

Pair = Tuple[int, int]

DEFAULT_THRESHOLD = 0.3


@dataclass(frozen=True)
class CandidateSet:
    """The pruning phase's output: pairs with machine score above τ.

    Attributes:
        pairs: Canonical pairs, sorted for determinism.
        machine_scores: Machine similarity ``f`` for every pair in ``pairs``.
        threshold: The τ used to build this set.
    """

    pairs: Tuple[Pair, ...]
    machine_scores: Dict[Pair, float]
    threshold: float

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return canonical_pair(*pair) in self.machine_scores

    def score(self, record_a: int, record_b: int) -> float:
        """Machine score of a pair; 0.0 if the pair was pruned.

        The paper defines ``f_c = 0`` for pruned pairs; returning 0 for the
        machine score mirrors that convention for estimation purposes.
        """
        return self.machine_scores.get(canonical_pair(record_a, record_b), 0.0)

    def sorted_by_score(self, descending: bool = True) -> List[Pair]:
        """Pairs ordered by machine score (TransM issues pairs this way)."""
        return sorted(
            self.pairs,
            key=lambda pair: (self.machine_scores[pair], pair),
            reverse=descending,
        )


def _prefix_join_eligible(
    similarity: SimilarityFunction,
    candidate_pairs: Optional[Iterable[Pair]],
    use_token_blocking: bool,
) -> bool:
    """Whether the prefix join provably reproduces the reference output.

    Caller-supplied pairs restrict scoring arbitrarily — never joinable.
    With token blocking on, the join is equivalent only when the metric
    compares *word-token* sets (the blocking domain); with blocking off the
    join matches all-pairs on any set domain once empty-set pairs are added.
    """
    if candidate_pairs is not None or similarity.set_metric is None:
        return False
    if use_token_blocking:
        return similarity.set_domain == "word"
    return True


def build_candidate_set(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float = DEFAULT_THRESHOLD,
    candidate_pairs: Optional[Iterable[Pair]] = None,
    use_token_blocking: bool = True,
    parallel: int = 0,
    shards: int = 0,
    timings: Optional[StageTimings] = None,
    obs=None,
    supervisor_policy=None,
    fault_plan=None,
) -> CandidateSet:
    """Run the pruning phase.

    Args:
        records: The record set ``R``.
        similarity: Machine similarity function ``f``.
        threshold: τ; pairs with ``f > τ`` survive.
        candidate_pairs: Optionally restrict scoring to these pairs
            (e.g. from a custom blocker).  When ``None``, uses token
            blocking (exact for token-overlap metrics) or all pairs.
        use_token_blocking: Whether to use the token-blocking pre-filter when
            ``candidate_pairs`` is not given.  Disable for similarity metrics
            that can score > τ with zero shared word tokens (e.g. q-gram or
            edit-distance metrics).
        parallel: Worker processes; for the reference loop this fans out
            the scoring loop, for the sharded prefix join it runs shards in
            parallel (needs ``shards`` > 1 to matter there).  Which of the
            two runs follows from the inputs (see module docstring).
        shards: Blocking-key shards for the prefix join (0/1 = unsharded).
            Any value yields byte-identical output; > 1 is a scale knob.
        timings: Optional :class:`~repro.perf.timing.StageTimings`; records
            ``blocking`` and ``scoring`` stage wall-clock.
        obs: Optional :class:`~repro.obs.ObsContext`; the phase runs inside
            a ``pruning`` span and reports record / survivor gauges.  The
            prefix engine also sets the span's ``generated_pairs`` and
            ``verified_pairs`` work counters.
        supervisor_policy: Optional
            :class:`~repro.runtime.supervisor.SupervisorPolicy` tuning the
            fault handling of parallel execution (both the chunked
            reference scorer and the sharded join).
        fault_plan: Optional
            :class:`~repro.runtime.faults.ProcessFaultPlan` injecting
            deterministic process faults into the worker pool (chaos
            testing only; output stays byte-identical).

    Returns:
        The :class:`CandidateSet` ``S``.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    chosen = ("prefix" if _prefix_join_eligible(
        similarity, candidate_pairs, use_token_blocking) else "reference")
    if isinstance(shards, str):
        from repro.runtime.autoshard import resolve_auto_shards

        shards = resolve_auto_shards("pruning", records=len(records),
                                     requested=shards, obs=obs)
        if chosen == "reference":
            # The heuristic never forces sharding onto the reference path.
            shards = 0
    if shards < 0:
        raise ValueError(f"shards must be >= 0, got {shards}")
    if chosen == "reference" and shards > 1:
        raise ValueError(
            "shards > 1 applies only to the prefix join; this input "
            "takes the reference loop "
            f"(similarity={similarity.name!r})"
        )
    with maybe_span(obs, "pruning", engine=chosen,
                    records=len(records), threshold=threshold,
                    shards=max(shards, 1) if chosen == "prefix" else 0) as span:
        if chosen == "prefix":
            counters: Dict[str, int] = {}
            surviving, scores = _run_sharded_join(
                records, similarity, threshold,
                include_empty_pairs=not use_token_blocking,
                num_shards=max(shards, 1),
                processes=parallel,
                timings=timings,
                obs=obs,
                supervisor_policy=supervisor_policy,
                fault_plan=fault_plan,
                counters=counters,
            )
            for name, value in counters.items():
                span.set_attr(name, value)
        else:
            surviving, scores = _run_reference(
                records, similarity, threshold, candidate_pairs,
                use_token_blocking, parallel, timings, obs,
                supervisor_policy, fault_plan,
            )
        if obs is not None:
            span.set_attr("candidate_pairs", len(surviving))
            obs.metrics.gauge(
                "pruning_records", help="Records entering the pruning phase"
            ).set(len(records))
            obs.metrics.gauge(
                "pruning_candidate_pairs",
                help="Pairs surviving the machine-similarity threshold",
            ).set(len(surviving))
    return CandidateSet(pairs=tuple(surviving), machine_scores=scores,
                        threshold=threshold)


@contextmanager
def _stage(timings: Optional[StageTimings], name: str) -> Iterator[None]:
    """Record a stage when a timer is attached; free otherwise."""
    if timings is None:
        yield
    else:
        with timings.stage(name):
            yield


def _run_sharded_join(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float,
    include_empty_pairs: bool,
    num_shards: int,
    processes: int,
    timings: Optional[StageTimings],
    obs,
    supervisor_policy=None,
    fault_plan=None,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    from repro.pruning.shard import sharded_prefix_filtered_candidates

    assert similarity.set_metric is not None
    surviving, scores = sharded_prefix_filtered_candidates(
        records,
        set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS[similarity.set_metric],
        metric=similarity.set_metric,
        threshold=threshold,
        num_shards=num_shards,
        processes=processes,
        include_empty_pairs=include_empty_pairs,
        timings=timings,
        obs=obs,
        supervisor_policy=supervisor_policy,
        fault_plan=fault_plan,
        counters=counters,
    )
    # Keep later phases' memoized reads warm, as the reference loop would.
    similarity.seed_cache(scores)
    return surviving, scores


def _run_reference(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float,
    candidate_pairs: Optional[Iterable[Pair]],
    use_token_blocking: bool,
    parallel: int,
    timings: Optional[StageTimings],
    obs=None,
    supervisor_policy=None,
    fault_plan=None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    by_id = {record.record_id: record for record in records}
    # Caller-supplied pair streams may repeat pairs (in either order); the
    # internal blockers already emit each pair exactly once.
    needs_dedupe = candidate_pairs is not None
    if candidate_pairs is None:
        if use_token_blocking:
            candidate_pairs = token_blocking_pairs(records)
        else:
            candidate_pairs = all_pairs(records)

    if parallel > 1 or timings is not None:
        # Materialize the pair stream so blocking and scoring time apart
        # (and so chunks can be fanned out to workers).
        with _stage(timings, "blocking"):
            unique = _canonical_unique(candidate_pairs, needs_dedupe)
        with _stage(timings, "scoring"):
            if parallel > 1:
                from repro.pruning.parallel import score_pairs_parallel

                scores = score_pairs_parallel(
                    unique,
                    texts={rid: record.text for rid, record in by_id.items()},
                    metric=similarity.text_similarity,
                    threshold=threshold,
                    processes=parallel,
                    obs=obs,
                    policy=supervisor_policy,
                    fault_plan=fault_plan,
                )
                similarity.seed_cache(scores)
            else:
                scores = {}
                for pair in unique:
                    score = similarity(by_id[pair[0]], by_id[pair[1]])
                    if score > threshold:
                        scores[pair] = score
            surviving = sorted(scores)
        return surviving, scores

    surviving = []
    scores: Dict[Pair, float] = {}
    # Track *all* scored pairs, not just survivors: a duplicate of a
    # sub-threshold pair must not be scored twice.
    scored: Set[Pair] = set()
    for raw_pair in candidate_pairs:
        pair = canonical_pair(*raw_pair) if needs_dedupe else raw_pair
        if needs_dedupe:
            if pair in scored:
                continue
            scored.add(pair)
        score = similarity(by_id[pair[0]], by_id[pair[1]])
        if score > threshold:
            surviving.append(pair)
            scores[pair] = score
    surviving.sort()
    return surviving, scores


def _canonical_unique(pairs: Iterable[Pair], needs_dedupe: bool) -> List[Pair]:
    """Canonicalize and (when necessary) deduplicate a pair stream,
    preserving first-seen order."""
    if not needs_dedupe:
        return list(pairs)
    seen: Set[Pair] = set()
    unique: List[Pair] = []
    for raw_pair in pairs:
        pair = canonical_pair(*raw_pair)
        if pair not in seen:
            seen.add(pair)
            unique.append(pair)
    return unique
