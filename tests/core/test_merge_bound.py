"""The count bound on merges.

A merge of clusters A and B with ``x`` crossing candidate edges has
benefit at most ``2x - |A||B|`` (Eq. 6: every candidate term is <= 1,
every pruned term is exactly -1), so the fast refine engine never
evaluates a merge with ``2x - |A||B| <= -1``.  The bound must be sound,
must agree between its two counting paths, and must not move a single
refinement decision: fast and reference engines stay identical on
instances where it fires often."""

import random as random_module

import pytest

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge, OperationEvaluator
from repro.core.pc_refine import PCRefineDiagnostics
from repro.core.refine import (
    OperationCache,
    _operations_touching,
    apply_free_operations,
    build_estimator,
    merge_is_hopeless,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from repro.obs import ObsContext
from tests.conftest import make_candidates
from tests.core.test_refine_engines import (
    CROWD_REFINE,
    PC_REFINE,
    _collected_events,
)


def bound_state(seed):
    """Clusters of 3-8 records over a candidate graph of density ~0.2 with
    partial crowd knowledge: many cluster pairs share only a few candidate
    edges, so the bound fires.  Returns a factory for identically
    initialized oracles."""
    rng = random_module.Random(seed)
    sizes = [rng.randint(3, 8) for _ in range(rng.randint(3, 5))]
    num_records = sum(sizes)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.2:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    known = [pair for pair in candidates.pairs if rng.random() < 0.5]

    def fresh_oracle():
        oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
        if known:
            oracle.ask_batch(known)
        return oracle

    records = list(range(num_records))
    rng.shuffle(records)
    clusters = []
    for size in sizes:
        clusters.append(records[:size])
        records = records[size:]
    return Clustering(clusters), candidates, fresh_oracle


def _rejected_by_cache(cache):
    kept = set(cache.unordered_operations(True))
    return [operation for operation in cache.operations()
            if operation not in kept]


def _rejected_by_touching(cache, clustering):
    size = clustering.size
    return [
        operation for operation, crossing in _operations_touching(
            clustering, cache.neighbors, clustering.cluster_ids)
        if isinstance(operation, Merge)
        and merge_is_hopeless(crossing, size(operation.cluster_a),
                              size(operation.cluster_b))
    ]


def _check_soundness(seed):
    """Mutate one instance step by step; at every step each rejected
    merge must be provably negative.  Returns the rejections seen."""
    rng = random_module.Random(seed * 31 + 5)
    clustering, candidates, fresh_oracle = bound_state(seed)
    oracle = fresh_oracle()
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    rejected_total = 0
    for _ in range(6):
        operations = cache.operations()
        assert (sorted(cache.unordered_operations(False), key=repr)
                == sorted(operations, key=repr))
        rejected = _rejected_by_cache(cache)
        assert (sorted(_rejected_by_touching(cache, clustering), key=repr)
                == sorted(rejected, key=repr))
        evaluator = OperationEvaluator(clustering, candidates, oracle,
                                       estimator)
        for operation in rejected:
            assert evaluator.estimated_benefit(operation) <= -1 + 1e-9
            exact = evaluator.exact_benefit(operation)
            assert exact is None or exact <= -1
        rejected_total += len(rejected)

        unknown = [pair for pair in candidates.pairs
                   if not oracle.knows(*pair)]
        if unknown:
            answers = oracle.ask_batch(
                rng.sample(unknown, min(len(unknown), 4)))
            for pair, crowd_score in answers.items():
                estimator.add_sample(pair, candidates.machine_scores[pair],
                                     crowd_score)
        if operations:
            cache.apply(rng.choice(operations))
    return rejected_total


def test_rejected_merges_are_provably_negative():
    rejected = sum(_check_soundness(seed) for seed in range(20))
    assert rejected > 0  # the bound fired, so the check is not vacuous


@pytest.mark.parametrize("seed", range(12))
def test_pc_refine_engines_agree_where_the_bound_fires(seed):
    clustering, candidates, fresh_oracle = bound_state(seed)
    outcomes = {}
    for engine, run in PC_REFINE.items():
        oracle = fresh_oracle()
        diagnostics = PCRefineDiagnostics()
        obs = ObsContext()
        with obs.span("refinement"):
            refined = run(clustering.copy(), candidates, oracle,
                          diagnostics=diagnostics, obs=obs)
        refined.check_invariants()
        outcomes[engine] = (
            refined.to_state(),
            oracle.stats.pairs_issued,
            oracle.stats.iterations,
            diagnostics.batch_sizes,
            diagnostics.operations_packed,
            diagnostics.operations_applied,
            diagnostics.free_operations_applied,
            _collected_events(obs),
        )
    assert outcomes["fast"] == outcomes["reference"]


@pytest.mark.parametrize("seed", range(12))
def test_crowd_refine_engines_agree_where_the_bound_fires(seed):
    clustering, candidates, fresh_oracle = bound_state(seed)
    outcomes = {}
    for engine, run in CROWD_REFINE.items():
        oracle = fresh_oracle()
        obs = ObsContext()
        with obs.span("refinement"):
            refined = run(clustering.copy(), candidates, oracle, obs=obs)
        refined.check_invariants()
        outcomes[engine] = (
            refined.as_sets(),
            oracle.stats.pairs_issued,
            oracle.stats.iterations,
            _collected_events(obs),
        )
    assert outcomes["fast"] == outcomes["reference"]


def _answered_pruned_state():
    """Two pairs of records joined by one candidate edge, with every
    pruned cross pair already answered as a match: the merge's true
    benefit is +4 although the count bound (2 - 4 = -2) would reject it."""
    clustering = Clustering([[0, 1], [2, 3]])
    candidates = make_candidates({(0, 1): 0.9, (2, 3): 0.9, (1, 2): 0.8})
    oracle = CrowdOracle(ScriptedAnswers(
        {(0, 1): 1.0, (2, 3): 1.0, (1, 2): 1.0, (0, 2): 1.0, (0, 3): 1.0,
         (1, 3): 1.0}, num_workers=3,
    ))
    return clustering, candidates, oracle


def test_answered_pruned_pairs_switch_the_bound_off():
    clustering, candidates, oracle = _answered_pruned_state()
    oracle.ask_batch([(0, 1), (2, 3), (1, 2)])
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    assert evaluations.pruned_pairs_unanswered
    assert _rejected_by_cache(cache) == [Merge(0, 1)]

    # A pruned pair joins A mid-run: the premise no longer holds.
    oracle.ask_batch([(0, 2), (0, 3), (1, 3)])
    assert not evaluations.pruned_pairs_unanswered
    assert apply_free_operations(clustering, candidates, oracle, estimator,
                                 cache=cache, evaluations=evaluations) == 1
    assert clustering.as_sets() == [frozenset({0, 1, 2, 3})]


def test_engines_agree_when_pruned_pairs_are_answered():
    clustering, candidates, _ = _answered_pruned_state()
    outcomes = {}
    for engine, run in PC_REFINE.items():
        _, _, oracle = _answered_pruned_state()
        oracle.ask_batch([(0, 2), (0, 3), (1, 3), (1, 2)])
        refined = run(clustering.copy(), candidates, oracle)
        outcomes[engine] = refined.as_sets()
    assert outcomes["fast"] == outcomes["reference"]
    assert outcomes["fast"] == [frozenset({0, 1, 2, 3})]
