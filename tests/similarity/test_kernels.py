"""Vectorized kernel equivalence: numpy batch scores vs scalar metrics.

The vectorized kernel is an optimization, not an approximation — for the
four set metrics it must be *bit-for-bit* equal to the scalar functions
(``token_jaccard``, ``qgram_jaccard``, ``token_cosine``, ...), including
the empty-set conventions and [0, 1] clamping.  These tests pin that down
with hypothesis on random and adversarial inputs (empty fields, unicode,
duplicate tokens) and check the interning layer reproduces the scalar
join's canonical token order exactly.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.prefix_join import canonical_token_order
from repro.similarity.hybrid import token_cosine, token_dice, token_overlap
from repro.similarity.jaccard import qgram_jaccard, token_jaccard
from repro.similarity.kernels import (
    EncodedRecords,
    TokenVocabulary,
    batch_text_scores,
    unique_sorted,
)
from repro.similarity.tokenize import token_set

# Random text: lowercase words plus unicode (accents, CJK) and repeats.
words = st.text(alphabet=string.ascii_lowercase + " ", max_size=40)
unicode_words = st.text(
    alphabet=string.ascii_lowercase + " éüßñ東京",
    max_size=40,
)

SCALAR_TEXT_METRICS = {
    "jaccard": token_jaccard,
    "cosine": token_cosine,
    "dice": token_dice,
    "overlap": token_overlap,
}

ADVERSARIAL = [
    "",                        # empty field
    " ",                       # whitespace-only (empty token set)
    "a",
    "a a a a",                 # duplicate tokens collapse to one
    "the the quick quick brown",
    "café crème brûlée",       # unicode accents
    "東京 大阪 café",            # CJK + accents
    "x" * 60,                  # one long token
    "a b c d e f g h i j k l m n o p",
]


@pytest.mark.parametrize("metric", sorted(SCALAR_TEXT_METRICS))
def test_adversarial_pairs_bit_identical(metric):
    scalar = SCALAR_TEXT_METRICS[metric]
    pairs = [(a, b) for a in ADVERSARIAL for b in ADVERSARIAL]
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    batch = batch_text_scores(lefts, rights, metric=metric, domain="word")
    for (a, b), got in zip(pairs, batch):
        want = min(1.0, max(0.0, scalar(a, b)))
        assert got == want and repr(got) == repr(want), (metric, a, b)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=20))
@settings(max_examples=100)
def test_word_jaccard_bit_identical(pairs):
    batch = batch_text_scores([a for a, _ in pairs], [b for _, b in pairs],
                              metric="jaccard", domain="word")
    for (a, b), got in zip(pairs, batch):
        assert got == token_jaccard(a, b)


@given(st.lists(st.tuples(unicode_words, unicode_words),
                min_size=1, max_size=12))
@settings(max_examples=60)
def test_unicode_all_metrics_bit_identical(pairs):
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    for metric, scalar in SCALAR_TEXT_METRICS.items():
        batch = batch_text_scores(lefts, rights, metric=metric, domain="word")
        for (a, b), got in zip(pairs, batch):
            want = min(1.0, max(0.0, scalar(a, b)))
            assert got == want, (metric, a, b)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=12))
@settings(max_examples=60)
def test_qgram_jaccard_bit_identical(pairs):
    batch = batch_text_scores([a for a, _ in pairs], [b for _, b in pairs],
                              metric="jaccard", domain="qgram", q=3)
    for (a, b), got in zip(pairs, batch):
        assert got == qgram_jaccard(a, b, q=3)


@given(st.lists(words, min_size=1, max_size=25))
@settings(max_examples=60)
def test_vocabulary_matches_canonical_token_order(texts):
    sets = [token_set(text) for text in texts]
    vocab = TokenVocabulary.build(sets)
    order = canonical_token_order(sets)
    tokens = sorted(order, key=order.__getitem__)
    assert tokens == sorted(vocab.rank_of, key=vocab.rank_of.__getitem__)
    # Encoded rank arrays sorted ascending == the scalar join's sorted
    # token lists, token for token.
    for token_subset in sets:
        ranks = vocab.encode(token_subset)
        decoded = [tokens[rank] for rank in ranks.tolist()]
        assert decoded == sorted(token_subset, key=order.__getitem__)


@given(st.lists(words, min_size=1, max_size=15))
@settings(max_examples=40)
def test_encoded_records_roundtrip(texts):
    sets = {i: token_set(text) for i, text in enumerate(texts)}
    encoded = EncodedRecords.from_sets(sets, ids=list(sets))
    assert len(encoded) == len(texts)
    vocab = TokenVocabulary.build(sets.values())
    for row, record_id in enumerate(sets):
        start = int(encoded.starts[row])
        count = int(encoded.counts[row])
        ranks = encoded.flat[start:start + count].tolist()
        assert ranks == sorted(vocab.rank_of[t] for t in sets[record_id])
        assert count == len(sets[record_id])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
                max_size=50))
def test_unique_sorted_matches_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    expected = np.unique(keys)
    got = unique_sorted(keys)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


def test_batch_text_scores_validates():
    with pytest.raises(ValueError, match="aligned"):
        batch_text_scores(["a"], [])
    with pytest.raises(ValueError, match="metric"):
        batch_text_scores(["a"], ["b"], metric="euclid")
    with pytest.raises(ValueError, match="domain"):
        batch_text_scores(["a"], ["b"], domain="chars")
