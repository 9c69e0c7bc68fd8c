"""Length- and prefix-filtered set-similarity join (PPJoin/AllPairs style).

The reference pruning path *emits everything*: token blocking yields every
pair sharing at least one token, and the score loop evaluates each one.  For
a τ-thresholded set metric almost all of those evaluations are wasted — the
classic prefix-filter family (Chaudhuri et al. 2006; Bayardo et al. 2007;
Xiao et al. 2008) proves that a pair can pass the threshold only if the two
records share a token inside a short *prefix* of their canonically-ordered
token lists, and only if their set sizes are compatible.

This module implements that join for the four plain set-overlap metrics the
library ships (Jaccard, set cosine/Ochiai, Dice, overlap coefficient) and
guarantees **bit-identical output** to the reference path:

* candidate *generation* uses conservative filters (never drops a pair whose
  true score can exceed τ; float bounds are relaxed by an epsilon), and
* candidate *verification* calls the exact same set function on the exact
  same frozensets the reference metric compares, with the same clamping —
  so surviving pairs and their scores match the reference float-for-float.

Records whose set is empty never share a token, mirroring token blocking
(which never pairs them).  The all-pairs reference, by contrast, scores
empty-vs-empty as 1.0; ``include_empty_pairs=True`` reproduces that.

This module is the *scalar reference* of the join family — one record at a
time, Python frozensets, exact per-pair verification — and serves as the
test oracle of the production join in :mod:`repro.pruning.shard`, which runs
the same candidate rule over interned int-id arrays in shards, adds the
PPJoin positional filter (Xiao et al. 2008), and verifies in numpy batches.
The two are survivor- and score-identical; the production join verifies
fewer candidates.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.datasets.schema import Record, canonical_pair
from repro.perf.timing import StageTimings

Pair = Tuple[int, int]
SetFunction = Callable[[FrozenSet[str], FrozenSet[str]], float]

#: Float-safety slack: all generation bounds are relaxed by this much, so a
#: borderline pair is verified (cheap) rather than wrongly filtered.
EPS = 1e-9

#: Metrics with real prefix/length filters.  The overlap coefficient is
#: join-able but admits no prefix shortening (a one-token partner can satisfy
#: any τ), so it degrades to a full-index scan with exact verification.
PREFIX_METRICS = ("jaccard", "cosine", "dice", "overlap")


def partner_size_need(metric: str, threshold: float, size: int) -> float:
    """Lower bound on the overlap any τ-passing partner must share with a
    record of ``size`` tokens, minimized over all eligible partner sizes —
    which is also a lower bound on an eligible partner's set size (the
    partner must be strictly larger than this in exact arithmetic).

    Derivations (strict score > τ throughout):
      jaccard: i > τ(l_a+l_b)/(1+τ) >= τ·l   (partner no smaller than τ·l)
      cosine:  i > τ·sqrt(l_a·l_b)   >= τ²·l
      dice:    i > τ(l_a+l_b)/2      >= τ/(2-τ)·l
      overlap: i > τ·min(l_a,l_b)    >= τ·1   (no useful bound)

    Shared with the sharded vectorized join (:mod:`repro.pruning.shard`),
    which must apply the *same* float bound to stay survivor-identical.
    """
    if metric == "jaccard":
        return threshold * size
    if metric == "cosine":
        return threshold * threshold * size
    if metric == "dice":
        return threshold / (2.0 - threshold) * size
    if metric == "overlap":
        return 0.0
    raise ValueError(f"unknown prefix-join metric {metric!r}")


def required_overlap(metric: str, threshold: float, smaller, larger):
    """The overlap ``α`` a pair of set sizes ``smaller <= larger`` must
    strictly exceed to score above τ (the left column of the derivations
    in :func:`partner_size_need`).

    Plain float algebra, so it evaluates elementwise on numpy size arrays
    as well as on ints; the vectorized join's positional filter compares
    it (relaxed by :data:`EPS`) against an upper bound on the overlap.
    """
    if metric == "jaccard":
        return threshold / (1.0 + threshold) * (smaller + larger)
    if metric == "cosine":
        return threshold * (smaller * larger) ** 0.5
    if metric == "dice":
        return threshold * (smaller + larger) / 2.0
    if metric == "overlap":
        return threshold * smaller
    raise ValueError(f"unknown prefix-join metric {metric!r}")


def prefix_length(metric: str, threshold: float, size: int) -> int:
    """Number of leading (canonically ordered) tokens that must be indexed
    so that no τ-passing pair is missed.  Always in [1, size] for size >= 1.
    """
    if size == 0:
        return 0
    # Smallest integer overlap strictly above the bound; the epsilon only
    # ever lengthens the prefix (safe direction).
    required = math.floor(partner_size_need(metric, threshold, size) - EPS) + 1
    return max(1, min(size, size - required + 1))


def canonical_token_order(
    sets: Sequence[FrozenSet[str]],
) -> Dict[str, Tuple[int, str]]:
    """A global total order over tokens: ascending document frequency, ties
    broken lexicographically.  Rare-first ordering keeps prefixes selective
    and posting lists short."""
    frequency: Counter = Counter()
    for token_set in sets:
        frequency.update(token_set)
    return {token: (count, token) for token, count in frequency.items()}


def prefix_filtered_candidates(
    records: Sequence[Record],
    set_of: Callable[[Record], FrozenSet[str]],
    set_function: SetFunction,
    metric: str,
    threshold: float,
    include_empty_pairs: bool = False,
    timings: Optional[StageTimings] = None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    """Run the join; returns ``(sorted surviving pairs, pair -> score)``.

    Args:
        records: The record set ``R``.
        set_of: Maps a record to the frozenset the metric compares (cached
            word tokens or q-grams — see ``SimilarityFunction.set_of``).
        set_function: The exact set metric (e.g. ``jaccard``); used verbatim
            for verification so scores match the reference bit-for-bit.
        metric: One of :data:`PREFIX_METRICS` (selects the filter algebra).
        threshold: τ; pairs with score strictly above τ survive.
        include_empty_pairs: Also emit pairs of records with *empty* sets
            (scored by ``set_function(∅, ∅)``) — matches the all-pairs
            reference instead of the token-blocking reference.
        timings: Optional stage timer; records ``blocking`` (ordering,
            prefix index, candidate generation) and ``scoring``
            (exact verification).
    """
    if metric not in PREFIX_METRICS:
        raise ValueError(f"unknown prefix-join metric {metric!r}")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    timings = timings if timings is not None else StageTimings()

    with timings.stage("blocking"):
        sets: Dict[int, FrozenSet[str]] = {
            record.record_id: set_of(record) for record in records
        }
        nonempty = [record_id for record_id, s in sets.items() if s]
        empty = [record_id for record_id, s in sets.items() if not s]

        order = canonical_token_order([sets[record_id] for record_id in nonempty])
        sorted_tokens: Dict[int, List[str]] = {
            record_id: sorted(sets[record_id], key=order.__getitem__)
            for record_id in nonempty
        }
        # Process records in ascending set size (ties by id) so each probe
        # only ever meets partners that are no larger than itself.
        by_size = sorted(nonempty, key=lambda rid: (len(sets[rid]), rid))

        index: Dict[str, List[int]] = {}
        candidate_pairs: List[Pair] = []
        for record_id in by_size:
            tokens = sorted_tokens[record_id]
            size = len(tokens)
            size_need = partner_size_need(metric, threshold, size) - EPS
            probed: Dict[int, None] = {}
            prefix = tokens[:prefix_length(metric, threshold, size)]
            for token in prefix:
                for other_id in index.get(token, ()):
                    if other_id in probed:
                        continue
                    probed[other_id] = None
                    if len(sets[other_id]) < size_need:
                        continue  # too small for any τ-passing overlap
                    candidate_pairs.append(canonical_pair(other_id, record_id))
            for token in prefix:
                index.setdefault(token, []).append(record_id)

    surviving: List[Pair] = []
    scores: Dict[Pair, float] = {}
    with timings.stage("scoring"):
        for pair in candidate_pairs:
            score = set_function(sets[pair[0]], sets[pair[1]])
            score = min(1.0, max(0.0, score))
            if score > threshold:
                surviving.append(pair)
                scores[pair] = score
        if include_empty_pairs and len(empty) >= 2:
            empty_score = min(1.0, max(0.0, set_function(frozenset(),
                                                         frozenset())))
            if empty_score > threshold:
                ordered = sorted(empty)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1:]:
                        pair = (a, b)
                        surviving.append(pair)
                        scores[pair] = empty_score
        surviving.sort()
    return surviving, scores
