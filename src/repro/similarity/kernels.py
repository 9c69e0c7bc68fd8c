"""Vectorized similarity kernels: batch set-metric scoring over int-id arrays.

The scalar set metrics (:func:`~repro.similarity.jaccard.jaccard` and
friends) compare two Python frozensets per call; at 100k-1M records the
per-pair interpreter overhead is the pruning phase's wall.  This module
provides the batch counterpart: token sets are *interned* once into dense
integer ids in a shared :class:`TokenVocabulary`, every record becomes a
sorted ``int32`` array in one flat CSR store (:class:`EncodedRecords`), and
whole blocks of candidate pairs are scored with a handful of numpy
operations instead of one Python call each.

Equivalence contract: for every supported metric the vectorized scores are
**bit-for-bit identical** to the scalar ones.  Intersection and set sizes
are exact integers; each batch formula performs the same IEEE-754 double
operations in the same order as its scalar twin (e.g. Jaccard divides the
exact intersection by the exact union — both integers below 2^53 — so both
paths produce the same correctly rounded quotient).  The empty-set
conventions also match: empty vs empty scores 1.0, empty vs non-empty 0.0.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

#: Metrics with a batch implementation (the prefix-join family).
VECTORIZED_METRICS = ("jaccard", "cosine", "dice", "overlap")


def unique_sorted(keys: "_np.ndarray") -> "_np.ndarray":
    """Sort ``keys`` in place and return its distinct values, ascending.

    The same result as ``np.unique(keys)`` for a 1-D array, without the
    hash-table path recent numpy takes there, which is many times slower
    than a sort on the join's int64 pair keys.
    """
    keys.sort()
    if len(keys) < 2:
        return keys
    distinct = _np.empty(len(keys), dtype=bool)
    distinct[0] = True
    _np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]


class TokenVocabulary:
    """Interning table: token string -> dense integer *rank*.

    Ranks follow the prefix join's canonical total order — ascending
    document frequency, ties broken lexicographically (see
    :func:`repro.pruning.prefix_join.canonical_token_order`) — so sorting a
    record's rank array ascending reproduces exactly the canonically
    ordered token list the scalar join builds, and ``ranks < size`` prefixes
    coincide token-for-token.
    """

    def __init__(self, rank_of: Dict[str, int]):
        self.rank_of = rank_of

    def __len__(self) -> int:
        return len(self.rank_of)

    def __contains__(self, token: str) -> bool:
        return token in self.rank_of

    @staticmethod
    def build(sets: Iterable[FrozenSet[str]]) -> "TokenVocabulary":
        """Intern every token of ``sets`` in canonical (df, token) order."""
        frequency: Counter = Counter()
        for token_set in sets:
            frequency.update(token_set)
        # Sorting (count, token) tuples directly avoids a per-element key
        # call; tuple order == the canonical (df, token) order.
        ordered = sorted((count, token) for token, count in frequency.items())
        return TokenVocabulary(
            {token: rank for rank, (_, token) in enumerate(ordered)}
        )

    def encode(self, token_set: FrozenSet[str]) -> "_np.ndarray":
        """One set as a sorted (= canonically ordered) ``int32`` rank array."""
        ranks = _np.fromiter(
            (self.rank_of[token] for token in token_set),
            dtype=_np.int32, count=len(token_set),
        )
        ranks.sort()
        return ranks


class EncodedRecords:
    """A record population as one flat CSR token-rank store.

    Attributes:
        ids: ``int64[n]`` record ids, in the caller's row order.
        flat: ``int32[total]`` concatenated per-record rank arrays, each
            sorted ascending (canonical order).
        starts: ``int64[n]`` offset of each row's slice in ``flat``.
        counts: ``int64[n]`` per-row set sizes.
        vocab_size: Number of distinct tokens (key-packing modulus).
    """

    def __init__(self, ids, flat, starts, counts, vocab_size: int):
        self.ids = ids
        self.flat = flat
        self.starts = starts
        self.counts = counts
        self.vocab_size = int(vocab_size)

    def __len__(self) -> int:
        return len(self.ids)

    @staticmethod
    def from_sets(
        sets: Mapping[int, FrozenSet[str]],
        ids: Sequence[int],
        vocab: Optional[TokenVocabulary] = None,
    ) -> "EncodedRecords":
        """Encode ``sets`` (restricted to ``ids``, in that row order)."""
        if vocab is None:
            vocab = TokenVocabulary.build([sets[record_id] for record_id in ids])
        counts = _np.fromiter((len(sets[record_id]) for record_id in ids),
                              dtype=_np.int64, count=len(ids))
        starts = _np.concatenate(([0], _np.cumsum(counts)[:-1])) if len(ids) \
            else _np.zeros(0, dtype=_np.int64)
        total = int(counts.sum())
        rank_of = vocab.rank_of
        # Bulk-intern every token, then sort within rows in one pass by
        # packing (row, rank) into a single sortable key — far cheaper
        # than a per-record fromiter + sort loop.
        flat64 = _np.fromiter(
            (rank_of[token] for record_id in ids for token in sets[record_id]),
            dtype=_np.int64, count=total,
        )
        vocab_size = max(len(vocab), 1)
        row_of = _np.repeat(_np.arange(len(ids), dtype=_np.int64), counts)
        keys = row_of * _np.int64(vocab_size) + flat64
        keys.sort()
        flat = (keys % _np.int64(vocab_size)).astype(_np.int32)
        return EncodedRecords(
            ids=_np.asarray(ids, dtype=_np.int64),
            flat=flat, starts=starts.astype(_np.int64), counts=counts,
            vocab_size=len(vocab),
        )

    def gather(self, rows: "_np.ndarray") -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Concatenated token ranks of ``rows`` plus each token's local
        row index — the CSR gather feeding the batch intersection.

        Returns ``(tokens, owner)`` where ``owner[i]`` is the position in
        ``rows`` that ``tokens[i]`` came from.
        """
        counts = self.counts[rows]
        total = int(counts.sum())
        owner = _np.repeat(_np.arange(len(rows), dtype=_np.int64), counts)
        if total == 0:
            return self.flat[:0], owner
        # Source indices walk each row's flat slice consecutively, jumping
        # to the next row's start at each boundary.  One cumsum over a
        # mostly-ones step array beats the repeat/arange formulation —
        # ragged repeats are the slow primitive at this volume.  Zero-count
        # rows contribute no boundary, so drop them before differencing.
        nz = _np.flatnonzero(counts)
        row_starts = self.starts[rows[nz]]
        sizes = counts[nz]
        steps = _np.ones(total, dtype=_np.int64)
        steps[0] = row_starts[0]
        if len(nz) > 1:
            boundaries = _np.cumsum(sizes)[:-1]
            steps[boundaries] = row_starts[1:] - row_starts[:-1] - (sizes[:-1] - 1)
        src = _np.cumsum(steps)
        return self.flat[src], owner


def batch_intersection_sizes(
    encoded: EncodedRecords,
    left_rows: "_np.ndarray",
    right_rows: "_np.ndarray",
) -> "_np.ndarray":
    """Exact ``|A ∩ B|`` for each row pair, as ``int64[npairs]``.

    Concatenates both rows' (internally duplicate-free) token ranks per
    pair, packs ``(pair, token)`` into one int64 key, sorts, and counts
    adjacent duplicates — a token seen twice under one pair is exactly a
    token present in both sets.
    """
    npairs = len(left_rows)
    if npairs == 0:
        return _np.zeros(0, dtype=_np.int64)
    pair_of = _np.empty(npairs * 2, dtype=_np.int64)
    pair_of[0::2] = _np.arange(npairs, dtype=_np.int64)
    pair_of[1::2] = pair_of[0::2]
    rows = _np.empty(npairs * 2, dtype=left_rows.dtype)
    rows[0::2] = left_rows
    rows[1::2] = right_rows
    tokens, owner = encoded.gather(rows)
    # owner indexes the interleaved rows array; owner // 2 is the pair.
    keys = (owner // 2) * _np.int64(max(encoded.vocab_size, 1)) + tokens
    keys.sort()
    duplicate = keys[1:] == keys[:-1]
    hit_pairs = keys[:-1][duplicate] // _np.int64(max(encoded.vocab_size, 1))
    return _np.bincount(hit_pairs, minlength=npairs).astype(_np.int64)


def batch_set_scores(
    metric: str,
    intersections: "_np.ndarray",
    left_sizes: "_np.ndarray",
    right_sizes: "_np.ndarray",
) -> "_np.ndarray":
    """Batch twin of the scalar set metrics, bit-for-bit.

    Args:
        metric: One of :data:`VECTORIZED_METRICS`.
        intersections: Exact ``|A ∩ B|`` per pair.
        left_sizes: ``|A|`` per pair.
        right_sizes: ``|B|`` per pair.

    Returns:
        ``float64[npairs]`` scores, including the scalar empty-set
        conventions (1.0 for empty vs empty, 0.0 for empty vs non-empty).
    """
    if metric not in VECTORIZED_METRICS:
        raise ValueError(
            f"metric must be one of {VECTORIZED_METRICS}, got {metric!r}"
        )
    inter = intersections.astype(_np.float64)
    size_a = left_sizes.astype(_np.int64)
    size_b = right_sizes.astype(_np.int64)
    both_empty = (size_a == 0) & (size_b == 0)
    one_empty = ((size_a == 0) | (size_b == 0)) & ~both_empty
    # Guard the denominators so fully-empty pairs never divide by zero;
    # their scores are overwritten by the convention masks below.
    if metric == "jaccard":
        union = size_a + size_b - intersections
        scores = inter / _np.maximum(union, 1)
    elif metric == "cosine":
        # Scalar: intersection / (len_a * len_b) ** 0.5.  Both CPython's
        # float ** 0.5 and numpy's power call the platform's correctly
        # rounded pow/sqrt, so the doubles agree bit-for-bit.
        product = (size_a * size_b).astype(_np.float64)
        scores = inter / _np.power(_np.maximum(product, 1.0), 0.5)
    elif metric == "dice":
        scores = 2.0 * inter / _np.maximum(size_a + size_b, 1)
    else:  # overlap
        scores = inter / _np.maximum(_np.minimum(size_a, size_b), 1)
    scores[both_empty] = 1.0
    scores[one_empty] = 0.0
    return scores


def score_encoded_pairs(
    metric: str,
    encoded: EncodedRecords,
    left_rows: "_np.ndarray",
    right_rows: "_np.ndarray",
) -> "_np.ndarray":
    """Clamped batch scores for row pairs of one :class:`EncodedRecords`.

    The [0, 1] clamp mirrors the scalar verification loop's
    ``min(1.0, max(0.0, score))``; for these metrics it never changes a
    value (scores are already in range) so the clamp is equality-safe.
    """
    intersections = batch_intersection_sizes(encoded, left_rows, right_rows)
    scores = batch_set_scores(
        metric, intersections,
        encoded.counts[left_rows], encoded.counts[right_rows],
    )
    return _np.clip(scores, 0.0, 1.0)


def batch_text_scores(
    texts_a: Sequence[str],
    texts_b: Sequence[str],
    metric: str = "jaccard",
    domain: str = "word",
    q: int = 3,
) -> List[float]:
    """Batch-score aligned text pairs; the test-facing convenience API.

    Bit-for-bit equivalent to calling the scalar text metric per pair —
    ``token_jaccard`` (``metric="jaccard", domain="word"``),
    ``qgram_jaccard`` (``domain="qgram"``), ``token_cosine``
    (``metric="cosine"``), and so on.

    Args:
        texts_a: Left texts.
        texts_b: Right texts (same length).
        metric: One of :data:`VECTORIZED_METRICS`.
        domain: ``"word"`` (word tokens) or ``"qgram"`` (padded q-grams).
        q: Gram length for the q-gram domain.
    """
    if len(texts_a) != len(texts_b):
        raise ValueError(
            f"aligned text batches required: {len(texts_a)} vs {len(texts_b)}"
        )
    from repro.similarity.tokenize import qgram_set, token_set

    if domain == "word":
        set_of = token_set
    elif domain == "qgram":
        def set_of(text: str) -> FrozenSet[str]:
            return qgram_set(text, q=q)
    else:
        raise ValueError(f"domain must be 'word' or 'qgram', got {domain!r}")

    npairs = len(texts_a)
    sets: Dict[int, FrozenSet[str]] = {}
    for index in range(npairs):
        sets[2 * index] = set_of(texts_a[index])
        sets[2 * index + 1] = set_of(texts_b[index])
    encoded = EncodedRecords.from_sets(sets, ids=list(range(2 * npairs)))
    left = _np.arange(npairs, dtype=_np.int64) * 2
    right = left + 1
    intersections = batch_intersection_sizes(encoded, left, right)
    scores = batch_set_scores(
        metric, intersections, encoded.counts[left], encoded.counts[right]
    )
    return [float(score) for score in scores]
