"""The EvaluationCache must serve exactly the values a fresh
OperationEvaluator derives — across arbitrary interleavings of applied
operations, fresh crowd answers, and histogram samples — while
invalidating only the entries those deltas actually touched."""

import random as random_module

import pytest

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge, OperationEvaluator, Split
from repro.core.refine import (
    ClusterVersionTracker,
    build_estimator,
    enumerate_operations,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates


def random_cache_state(seed):
    """A random clustering over a random candidate graph with *partial*
    crowd knowledge, so both exact and estimated benefits have work."""
    rng = random_module.Random(seed)
    num_records = rng.randint(4, 16)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.45:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
    known = [pair for pair in candidates.pairs if rng.random() < 0.5]
    if known:
        oracle.ask_batch(known)
    records = list(range(num_records))
    rng.shuffle(records)
    clusters = []
    while records:
        take = min(len(records), rng.randint(1, 4))
        clusters.append(records[:take])
        records = records[take:]
    clustering = Clustering(clusters)
    estimator = build_estimator(candidates, oracle)
    return clustering, candidates, oracle, estimator


def assert_matches_evaluator(cache, evaluator, clustering, candidates):
    for operation in enumerate_operations(clustering, candidates):
        assert (cache.relevant_pairs(operation)
                == evaluator.relevant_pairs(operation))
        assert cache.cost(operation) == evaluator.cost(operation)
        assert (cache.unknown_pairs(operation)
                == evaluator.unknown_pairs(operation))
        # Benefits must be byte-identical, not approximately equal — the
        # refinement loops break ties on exact float comparisons.
        assert (cache.exact_benefit(operation)
                == evaluator.exact_benefit(operation))
        assert (cache.estimated_benefit(operation)
                == evaluator.estimated_benefit(operation))
        ratio, cost = cache.ratio_and_cost(operation)
        assert cost == evaluator.cost(operation)
        if cost > 0:
            assert ratio == evaluator.estimated_benefit(operation) / cost
        else:
            assert ratio is None


@pytest.mark.parametrize("seed", range(10))
def test_cache_matches_evaluator_across_deltas(seed):
    rng = random_module.Random(seed * 991 + 3)
    clustering, candidates, oracle, estimator = random_cache_state(seed)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)

    for _ in range(10):
        assert_matches_evaluator(cache, evaluator, clustering, candidates)
        operations = enumerate_operations(clustering, candidates)
        unknown = [pair for pair in candidates.pairs
                   if not oracle.knows(*pair)]
        roll = rng.random()
        if roll < 0.4 and operations:
            tracker.apply(clustering, rng.choice(operations))
        elif roll < 0.7 and unknown:
            answers = oracle.ask_batch([rng.choice(unknown)])
            for pair, crowd_score in answers.items():
                estimator.add_sample(
                    pair, candidates.machine_scores[pair], crowd_score
                )
        elif candidates.pairs:
            pair = rng.choice(list(candidates.pairs))
            estimator.add_sample(pair, candidates.machine_scores[pair],
                                 rng.choice((0.0, 1 / 3, 2 / 3, 1.0)))


def small_state():
    """Three clusters, one known pair, two unknown pairs.

    Merge(c0, c1) needs unknown (1, 2); Merge(c1, c2) needs unknown (2, 3);
    Split(1, c0) needs only the known (0, 1).
    """
    clustering = Clustering()
    c0 = clustering.add_cluster([0, 1])
    c1 = clustering.add_cluster([2])
    c2 = clustering.add_cluster([3])
    candidates = make_candidates({(0, 1): 0.8, (1, 2): 0.6, (2, 3): 0.4})
    oracle = CrowdOracle(ScriptedAnswers(
        {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 1.0}, num_workers=3
    ))
    oracle.ask_batch([(0, 1)])
    estimator = build_estimator(candidates, oracle)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    return clustering, candidates, oracle, estimator, tracker, cache, (c0, c1, c2)


def test_cluster_change_forces_rebuild():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    assert cache.cost(merge) == 1
    assert cache.stats.evaluations == 1
    cache.cost(merge)
    assert cache.stats.hits == 1

    tracker.apply(clustering, Split(1, c0))  # c0 shrinks to {0}
    assert cache.cost(merge) == 0  # only the pruned (0, 2) remains relevant
    assert cache.stats.evaluations == 2
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert cache.relevant_pairs(merge) == evaluator.relevant_pairs(merge)
    assert cache.exact_benefit(merge) == evaluator.exact_benefit(merge)


def test_answer_delta_refreshes_only_affected_entries():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, c2 = ids
    merge01 = Merge(c0, c1)
    merge12 = Merge(c1, c2)
    assert cache.cost(merge01) == 1
    assert cache.cost(merge12) == 1
    assert cache.drain_dirty_operations() == set()

    oracle.ask_batch([(1, 2)])
    assert cache.drain_dirty_operations() == {merge01}

    evaluations_before = cache.stats.evaluations
    assert cache.cost(merge01) == 0
    assert cache.exact_benefit(merge01) is not None
    assert cache.stats.evaluations == evaluations_before  # refresh, no rebuild
    assert cache.stats.refreshes >= 1

    hits_before = cache.stats.hits
    assert cache.cost(merge12) == 1  # untouched entry stays a pure hit
    assert cache.stats.hits == hits_before + 1


def test_estimate_delta_refreshes_estimated_values():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    before = cache.estimated_benefit(merge)

    # The histogram holds only (0.8 -> 1.0), so estimate(0.6) is 1.0; the
    # new sample splits the bucket and moves estimate(0.6) to 0.0.
    estimator.add_sample((7, 8), 0.7, 0.0)
    assert cache.drain_dirty_operations() == {merge}

    # Exact-only accessors ignore estimate staleness (still pure hits).
    hits_before = cache.stats.hits
    assert cache.cost(merge) == 1
    assert cache.stats.hits == hits_before + 1

    refreshes_before = cache.stats.refreshes
    after = cache.estimated_benefit(merge)
    assert cache.stats.refreshes == refreshes_before + 1
    assert after != before
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert after == evaluator.estimated_benefit(merge)


def test_unchanged_estimates_invalidate_nothing():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    cache.estimated_benefit(merge)

    epoch_before = estimator.epoch
    # Re-adding an existing sample bumps the epoch but leaves every bucket
    # (and hence every estimate) identical.
    estimator.add_sample((0, 1), 0.8, 1.0)
    assert estimator.epoch > epoch_before
    assert cache.drain_dirty_operations() == set()

    hits_before = cache.stats.hits
    cache.estimated_benefit(merge)
    assert cache.stats.hits == hits_before + 1


def test_stats_accounting():
    _, _, _, _, _, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    assert cache.stats.lookups == 0
    assert cache.stats.hit_rate == 0.0

    cache.cost(merge)
    cache.cost(merge)
    stats = cache.stats
    assert (stats.lookups, stats.evaluations, stats.hits,
            stats.refreshes) == (2, 1, 1, 0)
    payload = stats.as_dict()
    assert payload["hit_rate"] == 0.5
    assert payload["lookups"] == 2


# ---------------------------------------------------------------------------
# Answer invalidation: each entry records the answer epoch it was built at,
# and a fresh answer (a, b) can only dirty Split(a, C) / Split(b, C) when a
# and b share cluster C, else Merge(C_a, C_b).
# ---------------------------------------------------------------------------


def test_entry_built_after_an_answer_is_neither_dirty_nor_refreshed():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    # The answer lands before the entry exists and before any sync.
    oracle.ask_batch([(1, 2)])
    assert cache.cost(merge) == 0  # the build already sees the answer
    assert cache.stats.evaluations == 1

    assert cache.drain_dirty_operations() == set()
    refreshes_before = cache.stats.refreshes
    hits_before = cache.stats.hits
    assert cache.exact_benefit(merge) is not None
    assert cache.stats.refreshes == refreshes_before
    assert cache.stats.hits == hits_before + 1
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert cache.exact_benefit(merge) == evaluator.exact_benefit(merge)


def test_same_cluster_answer_dirties_exactly_the_two_splits():
    clustering = Clustering()
    big = clustering.add_cluster([0, 1, 2])
    lone = clustering.add_cluster([3])
    candidates = make_candidates(
        {(0, 1): 0.7, (0, 2): 0.6, (1, 2): 0.5, (1, 3): 0.4}
    )
    oracle = CrowdOracle(ScriptedAnswers(
        {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 1.0, (1, 3): 0.0}, num_workers=3
    ))
    oracle.ask_batch([(0, 2)])
    estimator = build_estimator(candidates, oracle)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    operations = enumerate_operations(clustering, candidates)
    assert Merge(big, lone) in operations
    for operation in operations:
        cache.cost(operation)
    assert cache.drain_dirty_operations() == set()

    oracle.ask_batch([(0, 1)])
    assert cache.drain_dirty_operations() == {Split(0, big), Split(1, big)}
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    for operation in operations:
        assert cache.cost(operation) == evaluator.cost(operation)


def _current_unknowns(cache, tracker):
    """Brute force: each current entry's unknown pairs, read off the
    entries themselves."""
    return {
        operation: {entry.pairs[index] for index in entry.unknown_indices}
        for operation, entry in cache._entries.items()
        if tracker.is_current(entry.snapshot)
    }


def _check_dirty_sets(seed):
    """Drive one random interleaving; returns how many dirty operations
    the brute force expected in total."""
    rng = random_module.Random(seed * 7919 + 11)
    clustering, candidates, oracle, estimator = random_cache_state(seed)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    checked = 0
    for _ in range(12):
        # Look up a random share of the live operations: builds, hits and
        # refreshes of entries dirtied in earlier steps.
        operations = enumerate_operations(clustering, candidates)
        for operation in operations:
            if rng.random() < 0.6:
                cache.cost(operation)
        cache.drain_dirty_operations()
        held = _current_unknowns(cache, tracker)

        # Interleave fresh answers with applied operations.  The estimator
        # stays put, so every dirty mark must come from an answer.
        cursor = oracle.answer_epoch
        for _ in range(rng.randint(1, 4)):
            unknown = [pair for pair in candidates.pairs
                       if not oracle.knows(*pair)]
            operations = enumerate_operations(clustering, candidates)
            if rng.random() < 0.6 and unknown:
                oracle.ask_batch(rng.sample(unknown,
                                            min(len(unknown),
                                                rng.randint(1, 3))))
            elif operations:
                tracker.apply(clustering, rng.choice(operations))
        fresh = set(oracle.answers_since(cursor))

        expected = {
            operation for operation, unknown in held.items()
            if unknown & fresh
            and tracker.is_current(cache._entries[operation].snapshot)
        }
        assert cache.drain_dirty_operations() == expected
        checked += len(expected)
        evaluator = OperationEvaluator(clustering, candidates, oracle,
                                       estimator)
        assert_matches_evaluator(cache, evaluator, clustering, candidates)
    return checked


def test_dirty_set_matches_brute_force_across_interleavings():
    checked = sum(_check_dirty_sets(seed) for seed in range(12))
    assert checked > 0  # the comparison is not vacuous
