"""Equivalence of the fast-path pruning engines with the reference loop.

The prefix join runs whenever the similarity carries set metadata; the
reference loop is reached by stripping that metadata
(:func:`tests.conftest.reference_similarity`), which keeps the metric's
scores and changes only the path.

The prefix-filtered join and the parallel pair scorer are optimizations,
not approximations: for every supported configuration they must produce a
byte-identical :class:`CandidateSet` (same pairs, same float scores) as the
seed's enumerate-and-score loop.  These tests pin that down on the three
paper datasets, on randomized synthetic records, and on the τ edge cases
(score == τ excluded; empty-token records).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import generate
from repro.datasets.schema import Record
from repro.pruning.candidate import build_candidate_set
from repro.pruning.parallel import score_pairs_parallel
from repro.pruning.prefix_join import prefix_length
from repro.obs import ObsContext
from repro.similarity.composite import (
    SimilarityFunction,
    cosine_set_similarity_function,
    dice_similarity_function,
    jaccard_similarity_function,
    jaro_winkler_similarity_function,
    overlap_similarity_function,
    qgram_similarity_function,
)
from repro.similarity.jaccard import token_jaccard
from tests.conftest import reference_similarity

DATASETS = ("paper", "restaurant", "product")

SET_FACTORIES = (
    jaccard_similarity_function,
    cosine_set_similarity_function,
    dice_similarity_function,
    overlap_similarity_function,
)


def recs(*texts):
    return [Record(record_id=i, text=t) for i, t in enumerate(texts)]


def assert_identical(left, right):
    assert left.pairs == right.pairs
    assert left.machine_scores == right.machine_scores
    assert left.threshold == right.threshold


class TestPrefixJoinOnDatasets:
    """Acceptance criterion: identical CandidateSet on all three datasets."""

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_identical_to_seed_reference(self, dataset_name):
        records = generate(dataset_name, scale=0.15, seed=3).records
        reference = build_candidate_set(records, reference_similarity(),
                                        threshold=0.3)
        joined = build_candidate_set(records, jaccard_similarity_function(),
                                     threshold=0.3)
        assert_identical(reference, joined)

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_auto_selects_join_and_matches(self, dataset_name):
        records = generate(dataset_name, scale=0.1, seed=5).records
        auto = build_candidate_set(records, jaccard_similarity_function())
        reference = build_candidate_set(records, reference_similarity())
        assert_identical(reference, auto)


short_texts = st.lists(
    st.text(alphabet="abcdefg ", min_size=0, max_size=24),
    min_size=2, max_size=16,
)


class TestPrefixJoinRandomized:
    @settings(max_examples=60, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1 / 3, 0.9]),
           factory_index=st.integers(min_value=0,
                                     max_value=len(SET_FACTORIES) - 1),
           blocking=st.booleans())
    def test_matches_reference_on_random_records(self, texts, threshold,
                                                 factory_index, blocking):
        records = recs(*texts)
        factory = SET_FACTORIES[factory_index]
        reference = build_candidate_set(
            records, reference_similarity(factory()), threshold=threshold,
            use_token_blocking=blocking,
        )
        joined = build_candidate_set(
            records, factory(), threshold=threshold,
            use_token_blocking=blocking,
        )
        assert_identical(reference, joined)

    @settings(max_examples=30, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.2, 0.5]))
    def test_qgram_join_matches_all_pairs_reference(self, texts, threshold):
        records = recs(*texts)
        reference = build_candidate_set(
            records, reference_similarity(qgram_similarity_function()),
            threshold=threshold, use_token_blocking=False,
        )
        joined = build_candidate_set(
            records, qgram_similarity_function(), threshold=threshold,
            use_token_blocking=False,
        )
        assert_identical(reference, joined)


class TestThresholdEdgeCases:
    def test_score_equal_to_threshold_excluded(self):
        # {a,b} vs {b,c}: jaccard exactly 1/3 — must be pruned at τ=1/3 by
        # both engines (the paper's condition is strict: f > τ).
        records = recs("a b", "b c")
        for similarity in (reference_similarity(),
                           jaccard_similarity_function()):
            result = build_candidate_set(records, similarity,
                                         threshold=1 / 3)
            assert (0, 1) not in result, similarity

    def test_empty_records_with_blocking(self):
        # Token blocking never pairs empty-token records; the join must not
        # re-introduce them.
        records = recs("", "", "a b")
        for similarity in (reference_similarity(),
                           jaccard_similarity_function()):
            result = build_candidate_set(records, similarity)
            assert (0, 1) not in result, similarity

    def test_empty_records_without_blocking(self):
        # All-pairs scoring gives two empty records jaccard 1.0 > τ; the
        # join must reproduce that too.
        records = recs("", "", "a b")
        reference = build_candidate_set(
            records, reference_similarity(), use_token_blocking=False,
        )
        joined = build_candidate_set(
            records, jaccard_similarity_function(), use_token_blocking=False,
        )
        assert (0, 1) in reference and reference.machine_scores[(0, 1)] == 1.0
        assert_identical(reference, joined)

    def test_threshold_zero_keeps_any_overlap(self):
        records = recs("a b c d e f g", "g z")
        reference = build_candidate_set(records, reference_similarity(),
                                        threshold=0.0)
        joined = build_candidate_set(records, jaccard_similarity_function(),
                                     threshold=0.0)
        assert (0, 1) in joined
        assert_identical(reference, joined)


class TestEngineSelection:
    @pytest.mark.parametrize("similarity, kwargs, engine", [
        pytest.param(jaccard_similarity_function, {}, "prefix",
                     id="set-metric"),
        pytest.param(jaro_winkler_similarity_function, {}, "reference",
                     id="non-set-metric"),
        pytest.param(jaccard_similarity_function,
                     {"candidate_pairs": [(0, 1)]}, "reference",
                     id="external-pairs"),
        # Token blocking's word-token domain doesn't match q-gram sets; the
        # reference loop is the only faithful path under blocking.
        pytest.param(qgram_similarity_function,
                     {"use_token_blocking": True}, "reference",
                     id="qgram-under-token-blocking"),
    ])
    def test_engine_follows_the_input(self, similarity, kwargs, engine):
        obs = ObsContext()
        build_candidate_set(recs("a b", "a c"), similarity(), obs=obs,
                            **kwargs)
        (span,) = [root for root in obs.tracer.roots
                   if root.name == "pruning"]
        assert span.attrs["engine"] == engine

    def test_unknown_engine_rejected(self):
        """No caller can force the choice: there is no engine selector."""
        with pytest.raises(TypeError, match="engine"):
            build_candidate_set(recs("a", "b"), jaccard_similarity_function(),
                                engine="reference")

    def test_auto_falls_back_for_external_pairs(self):
        records = recs("a b", "a b", "a b")
        result = build_candidate_set(records, jaccard_similarity_function(),
                                     candidate_pairs=[(0, 1)])
        assert set(result.pairs) == {(0, 1)}


class TestPrefixLength:
    def test_jaccard_prefix_shrinks_with_threshold(self):
        assert prefix_length("jaccard", 0.0, 10) == 10
        assert prefix_length("jaccard", 0.9, 10) == 2
        assert prefix_length("overlap", 0.9, 10) == 10  # no bound

    def test_at_least_one_token_probed(self):
        assert prefix_length("jaccard", 0.99, 1) == 1


class TestParallelScorer:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_parallel_matches_serial_on_datasets(self, dataset_name):
        records = generate(dataset_name, scale=0.1, seed=7).records
        serial = build_candidate_set(records, reference_similarity())
        parallel = build_candidate_set(records, reference_similarity(),
                                       parallel=2)
        assert_identical(serial, parallel)

    def test_score_pairs_parallel_matches_direct_loop(self):
        records = recs("a b c", "a b d", "x y", "a y")
        texts = {r.record_id: r.text for r in records}
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        expected = {
            pair: token_jaccard(texts[pair[0]], texts[pair[1]])
            for pair in pairs
        }
        expected = {p: min(1.0, max(0.0, s))
                    for p, s in expected.items() if s > 0.3}
        scored = score_pairs_parallel(pairs, texts, token_jaccard,
                                      threshold=0.3, processes=2)
        assert scored == expected

    def test_serial_fallback_for_single_process(self):
        records = recs("a b", "a b")
        texts = {r.record_id: r.text for r in records}
        scored = score_pairs_parallel([(0, 1)], texts, token_jaccard,
                                      threshold=0.3, processes=1)
        assert scored == {(0, 1): 1.0}


class TestDuplicatePairScoring:
    """External candidate_pairs streams may repeat pairs; every pair must be
    scored exactly once — including sub-threshold ones (seed bug)."""

    class CountingSimilarity(SimilarityFunction):
        def __init__(self, score):
            super().__init__("count", lambda a, b: score)
            self.calls = 0

        def __call__(self, record_a, record_b):
            self.calls += 1
            return super().__call__(record_a, record_b)

    def test_sub_threshold_duplicate_not_rescored(self):
        records = recs("x", "y")
        similarity = self.CountingSimilarity(0.1)  # below τ
        result = build_candidate_set(
            records, similarity, threshold=0.3,
            candidate_pairs=[(0, 1), (1, 0), (0, 1)],
        )
        assert similarity.calls == 1
        assert len(result) == 0

    def test_surviving_duplicate_emitted_once(self):
        records = recs("x", "y")
        similarity = self.CountingSimilarity(0.9)
        result = build_candidate_set(
            records, similarity, threshold=0.3,
            candidate_pairs=[(1, 0), (0, 1)],
        )
        assert similarity.calls == 1
        assert result.pairs == ((0, 1),)
