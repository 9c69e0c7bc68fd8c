"""Byte-identity of the sharded vectorized join with the scalar prefix join.

Sharding, vectorization and the positional filter are throughput
optimizations, not approximations: for every metric, shard count and
process count the sharded join must return exactly the pairs and float
scores of :func:`~repro.pruning.prefix_join.prefix_filtered_candidates`
(itself pinned to the seed reference loop by ``test_fastpath_equivalence``).
These tests also cover the ``build_candidate_set`` routing (``shards``
knob), the join's work counters, and the never-silent serial fallback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import generate
from repro.datasets.schema import Record
from repro.obs import ObsContext
from repro.pruning import shard
from repro.pruning.candidate import build_candidate_set
from repro.pruning.prefix_join import (
    PREFIX_METRICS,
    prefix_filtered_candidates,
    required_overlap,
)
from repro.runtime import supervisor
from repro.runtime.supervisor import ParallelFallbackWarning
from repro.similarity.composite import (
    SET_METRIC_FUNCTIONS,
    cosine_set_similarity_function,
    dice_similarity_function,
    jaccard_similarity_function,
    overlap_similarity_function,
    qgram_similarity_function,
)
from repro.similarity.jaccard import token_jaccard
from tests.conftest import reference_similarity

SET_FACTORIES = {
    "jaccard": jaccard_similarity_function,
    "cosine": cosine_set_similarity_function,
    "dice": dice_similarity_function,
    "overlap": overlap_similarity_function,
}


def recs(*texts):
    return [Record(record_id=i, text=t) for i, t in enumerate(texts)]


def join_args(metric, factory=None):
    similarity = (factory or SET_FACTORIES[metric])()
    return dict(
        set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS[metric],
        metric=metric,
    )


def assert_same_join(records, metric, threshold, *, include_empty_pairs=False,
                     shard_counts=(1, 2, 3, 5, 8)):
    """The scalar unsharded join vs the sharded join at every shard count."""
    expected_pairs, expected_scores = prefix_filtered_candidates(
        records, threshold=threshold,
        include_empty_pairs=include_empty_pairs, **join_args(metric),
    )
    for num_shards in shard_counts:
        pairs, scores = shard.sharded_prefix_filtered_candidates(
            records, threshold=threshold, num_shards=num_shards,
            include_empty_pairs=include_empty_pairs, **join_args(metric),
        )
        assert pairs == expected_pairs, (metric, num_shards)
        assert scores == expected_scores, (metric, num_shards)


class TestShardedJoinOnDatasets:
    @pytest.mark.parametrize("metric", PREFIX_METRICS)
    def test_paper_dataset_all_shard_counts(self, metric):
        records = generate("paper", scale=0.15, seed=3).records
        assert_same_join(records, metric, threshold=0.3,
                         shard_counts=(1, 3, 8))

    @pytest.mark.parametrize("dataset_name", ("restaurant", "product"))
    def test_other_datasets(self, dataset_name):
        records = generate(dataset_name, scale=0.1, seed=5).records
        assert_same_join(records, "jaccard", threshold=0.3,
                         shard_counts=(1, 5))

    def test_include_empty_pairs(self):
        records = recs("", "", "a b", "a b c", "")
        assert_same_join(records, "jaccard", threshold=0.3,
                         include_empty_pairs=True, shard_counts=(1, 2, 4))


short_texts = st.lists(
    st.text(alphabet="abcdefg ", min_size=0, max_size=24),
    min_size=2, max_size=14,
)


class TestShardedJoinRandomized:
    @settings(max_examples=40, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 0.9]),
           metric=st.sampled_from(PREFIX_METRICS),
           num_shards=st.sampled_from([1, 2, 3, 7]),
           include_empty=st.booleans())
    def test_matches_scalar_join(self, texts, threshold, metric, num_shards,
                                 include_empty):
        assert_same_join(recs(*texts), metric, threshold,
                         include_empty_pairs=include_empty,
                         shard_counts=(num_shards,))

    @settings(max_examples=20, deadline=None)
    @given(texts=short_texts, block=st.sampled_from([1, 7, 64]))
    def test_pair_block_size_invariant(self, texts, block):
        # Tiny pair blocks exercise the batch boundaries; output must not
        # depend on the block size.
        records = recs(*texts)
        expected = shard.sharded_prefix_filtered_candidates(
            records, threshold=0.3, num_shards=2, **join_args("jaccard"),
        )
        got = shard.sharded_prefix_filtered_candidates(
            records, threshold=0.3, num_shards=2, pair_block_size=block,
            **join_args("jaccard"),
        )
        assert got == expected


class TestPositionalFilter:
    """The PPJoin positional filter drops only pairs that cannot pass."""

    # (metric, |x|, |y|, overlap): the overlap is the smallest integer
    # above the required overlap α, which itself is not an integer.
    BOUNDARY = (
        ("jaccard", 10, 10, 5),
        ("cosine", 4, 9, 2),
        ("dice", 10, 11, 4),
        ("overlap", 11, 12, 4),
    )

    @pytest.mark.parametrize("metric,size_x,size_y,overlap", BOUNDARY)
    def test_pair_at_the_positional_bound_survives(self, metric, size_x,
                                                   size_y, overlap):
        alpha = required_overlap(metric, 0.3, size_x, size_y)
        assert overlap - 1 < alpha < overlap
        shared = [f"s{i}" for i in range(overlap)]
        # With two records, the shared tokens (document frequency 2) come
        # after every unshared one in canonical order: the first shared
        # token leaves exactly `overlap` tokens in each row from it on.
        records = recs(
            " ".join([f"x{i}" for i in range(size_x - overlap)] + shared),
            " ".join([f"y{i}" for i in range(size_y - overlap)] + shared),
        )
        pairs, _ = prefix_filtered_candidates(records, threshold=0.3,
                                              **join_args(metric))
        assert pairs == [(0, 1)]
        assert_same_join(records, metric, 0.3, shard_counts=(1, 2, 3))

    def test_filter_cuts_generated_and_verified_pairs(self):
        records = generate("restaurant", scale=1.0, seed=1).records
        obs = ObsContext()
        build_candidate_set(records, jaccard_similarity_function(),
                            threshold=0.3, obs=obs)
        (span,) = [root for root in obs.tracer.roots
                   if root.name == "pruning"]
        generated = span.attrs["generated_pairs"]
        verified = span.attrs["verified_pairs"]

        # Without the positional filter every predecessor pair passing the
        # partner-size filter is generated.
        similarity = jaccard_similarity_function()
        sets = {record.record_id: similarity.set_of(record)
                for record in records}
        plan = shard._build_plan(sets, [rid for rid in sets if sets[rid]],
                                 "jaccard", 0.3)
        counts = plan.encoded.counts
        size_eligible = 0
        for element in range(len(plan.elem_k)):
            start = plan.elem_grp_start[element]
            lefts = plan.rows_sorted[start:start + plan.elem_k[element]]
            size_eligible += int(
                (counts[lefts] >= plan.need[plan.elem_row[element]]).sum())
        assert 0 < verified < generated < size_eligible


class TestForkParallelism:
    def test_fork_processes_match_in_process(self):
        records = generate("paper", scale=0.15, seed=3).records
        serial = shard.sharded_prefix_filtered_candidates(
            records, threshold=0.3, num_shards=4, **join_args("jaccard"),
        )
        forked = shard.sharded_prefix_filtered_candidates(
            records, threshold=0.3, num_shards=4, processes=2,
            **join_args("jaccard"),
        )
        assert forked == serial

    def test_fallback_warns_and_emits_event(self, monkeypatch):
        monkeypatch.setattr(supervisor, "fork_available", lambda: False)
        events = []

        class FakeObs:
            def event(self, name, **fields):
                events.append((name, fields))

        records = recs("a b c", "a b d", "b c d")
        with pytest.warns(ParallelFallbackWarning):
            pairs, scores = shard.sharded_prefix_filtered_candidates(
                records, threshold=0.1, num_shards=2, processes=2,
                obs=FakeObs(), **join_args("jaccard"),
            )
        expected_pairs, expected_scores = prefix_filtered_candidates(
            records, threshold=0.1, **join_args("jaccard"),
        )
        assert pairs == expected_pairs and scores == expected_scores
        assert any(name == "pruning.parallel_fallback" for name, _ in events)


class TestBuildCandidateSetRouting:
    def test_shards_and_backends_match_reference(self):
        records = generate("restaurant", scale=0.1, seed=7).records
        reference = build_candidate_set(
            records, reference_similarity(), threshold=0.3,
        )
        for kwargs in (
            dict(shards=3),
            dict(),
            dict(shards=2),
            dict(shards=4),
        ):
            result = build_candidate_set(
                records, jaccard_similarity_function(),
                threshold=0.3, **kwargs,
            )
            assert result.pairs == reference.pairs, kwargs
            assert result.machine_scores == reference.machine_scores, kwargs

    def test_qgram_sharded_matches_reference(self):
        records = generate("restaurant", scale=0.08, seed=2).records
        reference = build_candidate_set(
            records, reference_similarity(qgram_similarity_function()),
            threshold=0.2, use_token_blocking=False,
        )
        sharded = build_candidate_set(
            records, qgram_similarity_function(), threshold=0.2,
            use_token_blocking=False, shards=3,
        )
        assert sharded.pairs == reference.pairs
        assert sharded.machine_scores == reference.machine_scores

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            build_candidate_set(recs("a", "b"), jaccard_similarity_function(),
                                shards=-1)

    def test_reference_engine_rejects_shards(self):
        with pytest.raises(ValueError, match="reference loop"):
            build_candidate_set(recs("a", "b"), reference_similarity(),
                                shards=2)

    def test_unknown_backend_rejected(self):
        """There is one verification kernel: no backend selector."""
        for value in ("auto", "vectorized", "scalar", "simd"):
            with pytest.raises(TypeError, match="kernel_backend"):
                build_candidate_set(recs("a", "b"),
                                    jaccard_similarity_function(),
                                    kernel_backend=value)


class TestShardedJoinValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            shard.sharded_prefix_filtered_candidates(
                recs("a", "b"), set_of=lambda r: frozenset(),
                set_function=lambda a, b: 0.0, metric="levenshtein",
                threshold=0.3,
            )

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard.sharded_prefix_filtered_candidates(
                recs("a", "b"), threshold=0.3, num_shards=0,
                **join_args("jaccard"),
            )

    def test_threshold_equal_score_excluded(self):
        # Strict f > τ, as in the paper: jaccard({a,b},{b,c}) == 1/3.
        pairs, _ = shard.sharded_prefix_filtered_candidates(
            recs("a b", "b c"), threshold=1 / 3, num_shards=2,
            **join_args("jaccard"),
        )
        assert (0, 1) not in pairs


def test_reference_text_metric_never_routes_to_shards():
    # A plain text metric has no set metadata; the auto engine must fall
    # back to the reference loop even when shards are requested... which is
    # exactly the reference+shards conflict, so it must raise instead of
    # silently ignoring the knob.
    from repro.similarity.composite import SimilarityFunction

    similarity = SimilarityFunction("jaccard", token_jaccard)
    with pytest.raises(ValueError):
        build_candidate_set(recs("a b", "a c"), similarity, shards=2)
