"""Sharded, vectorized prefix-filtered similarity join — the production
pruning path for every set metric.

The scalar join (:mod:`repro.pruning.prefix_join`, the test oracle)
processes one record at a time over Python frozensets; at 100k-1M records
both its candidate-generation probe loop and its per-pair verification are
interpreter-bound.  This module runs the *same* join — same canonical token
order, same prefix lengths, same partner-size bound, same exact scores —
over interned int-rank arrays (:mod:`repro.similarity.kernels`),
partitioned into **shards by blocking key** and verified in numpy blocks.
Unsharded means one shard.

Algorithm
---------
1. Token sets are interned into a :class:`~repro.similarity.kernels.TokenVocabulary`
   whose dense ranks follow the canonical (document frequency, token) order,
   and flattened into one CSR :class:`~repro.similarity.kernels.EncodedRecords`
   store, rows sorted by the scalar join's processing order (set size, id).
2. The *prefix incidence* list — one ``(token rank, row, position)`` entry
   per prefix token per record — is built and sorted token-major.  Every
   entry whose group (posting list of one token) has at least one earlier
   entry is an *element*: it will pair with each of its predecessors, which
   is precisely the scalar join's probe/index rule (a pair is generated iff
   the two prefixes share a token).
3. Elements are partitioned into shards with
   :func:`repro.pruning.blocking.shard_of_token` (round-robin over the
   canonical rank).  Each shard generates its pair blocks with numpy
   (predecessor expansion) and applies two filters to every generated
   (left, right) element: the partner-size filter, and the PPJoin
   *positional filter* (Xiao et al. 2008) — with the shared token at
   positions ``i`` and ``j`` of rows ``x`` and ``y``, at most
   ``min(|x|-i, |y|-j)`` tokens can still be shared, so the element is kept
   only if that exceeds the overlap ``α(|x|, |y|)`` a τ-passing pair needs
   (:func:`~repro.pruning.prefix_join.required_overlap`, relaxed by
   ``EPS``).  Surviving pair keys are deduplicated by an in-place sort and
   verified by the batch kernel.
4. The cross-shard merge unions the per-shard ``{pair: score}`` survivor
   maps.  A pair straddling shards (shared prefix tokens assigned to
   different shards) is verified in each, with bit-identical scores, so the
   union is order-independent; the merged map is emitted in sorted pair
   order, making the output deterministic for every shard count.

The positional filter is exact per element.  Canonical order is shared by
both rows, so a pair's *first* shared token sits at the smallest position
in each, every shared token lies at or after it, and the bound it gives is
an upper bound on the true overlap: a pair that passes τ always keeps the
element of its first shared token.  That token is in both prefixes (any
shared prefix token comes no earlier), so the shard owning it still
generates the pair, whatever the shard count.  Elements of later shared
tokens have no larger bounds and may be dropped; that costs nothing.

Shards run either in-process (deterministic loop) or in parallel worker
processes using the same ``fork``-pool pattern as
:mod:`repro.pruning.parallel` — state is published in a module global
captured at fork time, workers are pure, results are merged in shard order.
The worker pool is the supervised pool of
:mod:`repro.runtime.supervisor`: a crashed shard worker is detected and
its shard retried with backoff, and shards whose retries exhaust degrade
to in-process execution — the join completes with identical output under
any schedule of worker failures.  On platforms without ``fork`` the pool
runs the shards in-process and reports it via
:func:`repro.runtime.supervisor.notify_parallel_fallback`
(``pruning.parallel_fallback`` event + ``ParallelFallbackWarning``).

Equivalence contract: for every shard count, the surviving pair list and
``{pair: score}`` map are byte-identical to
:func:`repro.pruning.prefix_join.prefix_filtered_candidates` — no
τ-passing pair is filtered (argument above), and verification computes the
same IEEE-754 doubles (see :mod:`repro.similarity.kernels`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.datasets.schema import Record
from repro.perf.timing import StageTimings
from repro.pruning.blocking import shard_of_token
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import SupervisorPolicy, supervised_map
from repro.pruning.prefix_join import (
    EPS,
    PREFIX_METRICS,
    partner_size_need,
    prefix_length,
    required_overlap,
)
from repro.similarity.kernels import (
    EncodedRecords,
    TokenVocabulary,
    score_encoded_pairs,
    unique_sorted,
)

Pair = Tuple[int, int]
SetFunction = Callable[[FrozenSet[str], FrozenSet[str]], float]

#: Upper bound on generated (pre-filter) pairs materialized per numpy block.
#: Bounds peak memory at roughly ``block * avg_tokens_per_pair * 8`` bytes
#: during verification, independent of the total candidate volume.
DEFAULT_PAIR_BLOCK_SIZE = 1 << 19

#: Worker payload captured at fork time (start method "fork" only).
_SHARD_STATE: Dict[str, object] = {}


class _JoinPlan:
    """Everything a shard worker needs, built once in the parent.

    All arrays index *rows* (positions in the size-ordered record list),
    not record ids; ``ids[row]`` maps back at emission time.  The posting
    arrays (``rows_sorted``, ``pos_sorted``) hold every prefix incidence
    entry token-major; the ``elem_*`` arrays hold the elements (entries
    with at least one predecessor in their posting list).  ``*_pos`` is
    the token's ``int32`` position inside its row.
    """

    def __init__(self, encoded: EncodedRecords, rows_sorted, pos_sorted,
                 elem_row, elem_pos, elem_k, elem_grp_start, elem_token,
                 need):
        self.encoded = encoded
        self.rows_sorted = rows_sorted
        self.pos_sorted = pos_sorted
        self.elem_row = elem_row
        self.elem_pos = elem_pos
        self.elem_k = elem_k
        self.elem_grp_start = elem_grp_start
        self.elem_token = elem_token
        self.need = need


def _build_plan(
    sets: Dict[int, FrozenSet[str]],
    nonempty: List[int],
    metric: str,
    threshold: float,
) -> _JoinPlan:
    """Intern, encode, and lay out the prefix incidence for the join."""
    ordered_ids = sorted(nonempty, key=lambda rid: (len(sets[rid]), rid))
    vocab = TokenVocabulary.build([sets[rid] for rid in ordered_ids])
    encoded = EncodedRecords.from_sets(sets, ordered_ids, vocab)

    sizes = encoded.counts
    # Per-size memos keep the float bounds literally identical to the
    # scalar join's per-record computations.
    prefix_of_size: Dict[int, int] = {}
    need_of_size: Dict[int, float] = {}
    for size in set(sizes.tolist()):
        prefix_of_size[size] = prefix_length(metric, threshold, size)
        need_of_size[size] = partner_size_need(metric, threshold, size) - EPS
    size_list = sizes.tolist()
    pcounts = _np.fromiter((prefix_of_size[size] for size in size_list),
                           dtype=_np.int64, count=len(size_list))
    need = _np.fromiter((need_of_size[size] for size in size_list),
                        dtype=_np.float64, count=len(size_list))

    # Prefix incidence: the first prefix_len ranks of each row (rows are
    # stored canonically sorted, so slicing the head IS the prefix).
    total = int(pcounts.sum())
    nrows = len(encoded)
    first_out = _np.repeat(_np.cumsum(pcounts) - pcounts, pcounts)
    within = _np.arange(total, dtype=_np.int64) - first_out
    src = _np.repeat(encoded.starts, pcounts) + within
    inc_tokens = encoded.flat[src]
    inc_rows = _np.repeat(_np.arange(nrows, dtype=_np.int64), pcounts)

    # Token-major, row-minor order: stable sort preserves the ascending
    # row (= processing) order inside each posting list.
    order = _np.argsort(inc_tokens, kind="stable")
    tokens_sorted = inc_tokens[order]
    rows_sorted = inc_rows[order]
    pos_sorted = within[order].astype(_np.int32)

    # Each incidence entry with k predecessors in its posting contributes
    # k candidate pairs; k == 0 entries (posting heads) contribute none.
    if total:
        new_group = _np.empty(total, dtype=bool)
        new_group[0] = True
        _np.not_equal(tokens_sorted[1:], tokens_sorted[:-1], out=new_group[1:])
        group_index = _np.cumsum(new_group) - 1
        group_start = _np.flatnonzero(new_group)
        elem_grp_start = group_start[group_index]
        elem_k = _np.arange(total, dtype=_np.int64) - elem_grp_start
    else:
        elem_grp_start = _np.zeros(0, dtype=_np.int64)
        elem_k = _np.zeros(0, dtype=_np.int64)
    active = elem_k > 0
    return _JoinPlan(
        encoded=encoded,
        rows_sorted=rows_sorted,
        pos_sorted=pos_sorted,
        elem_row=rows_sorted[active],
        elem_pos=pos_sorted[active],
        elem_k=elem_k[active],
        elem_grp_start=elem_grp_start[active],
        elem_token=tokens_sorted[active],
        need=need,
    )


def record_shard_touch_masks(plan: _JoinPlan,
                             num_shards: int) -> Dict[int, int]:
    """Per-record bitmask of pruning shards that can emit incident pairs.

    The join generates a pair only from a prefix token present in *both*
    records' prefixes, and :func:`_join_shard` assigns that token's pairs
    to shard ``token % num_shards``.  Record ``r``'s touch set is
    therefore ``{token % num_shards for token in prefix(r) if token's
    prefix posting has >= 2 records}``: a token appearing in only one
    record's prefix can never pair it with anything, so it is dropped —
    in practice most prefix tokens are such singletons (prefix filtering
    deliberately picks the rarest tokens), and dropping them is what
    makes the masks narrow enough for components to seal while later
    shards still run.  (The partner-size and positional filters only
    *remove* pairs, so the mask stays a safe over-approximation.)
    Records with empty token sets — or whose prefix tokens are all
    singletons — are absent from the result; callers treat them as mask
    ``0`` (sealed immediately, which is exact: no future edge can touch
    them).

    The pipelined executor ORs these masks over union-find components to
    decide when a component is *sealed* (see
    :class:`repro.pruning.components.IncrementalComponents`).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    # The members of the plan's shared postings (>= 2 entries) are its
    # elements plus each such posting's head entry.
    shard = plan.elem_token.astype(_np.int64) % num_shards
    packed = unique_sorted(_np.concatenate((
        plan.elem_row * num_shards + shard,
        plan.rows_sorted[plan.elem_grp_start] * num_shards + shard,
    )))
    ids = plan.encoded.ids.tolist()
    masks: Dict[int, int] = {}
    for key in packed.tolist():
        row, shard_index = divmod(key, num_shards)
        record_id = ids[row]
        masks[record_id] = masks.get(record_id, 0) | (1 << shard_index)
    return masks


def _process_element_batch(
    plan: _JoinPlan,
    element_indices,
    metric: str,
    threshold: float,
    survivors: Dict[Pair, float],
) -> Tuple[int, int]:
    """Expand one element batch into pairs, filter, verify, accumulate.

    Returns ``(generated, verified)``: the pairs passing both generation
    filters, and the distinct pairs among them that were verified.
    """
    k = plan.elem_k[element_indices]
    total = int(k.sum())
    if total == 0:
        return 0, 0
    # Predecessor expansion: element e (row r at posting offset k_e) pairs
    # with the k_e earlier entries of its posting list.
    right_row = _np.repeat(plan.elem_row[element_indices], k)
    right_pos = _np.repeat(plan.elem_pos[element_indices], k)
    first = _np.cumsum(k) - k
    within = _np.arange(total, dtype=_np.int64) - _np.repeat(first, k)
    left_entry = _np.repeat(plan.elem_grp_start[element_indices], k) + within
    left_row = plan.rows_sorted[left_entry]
    left_pos = plan.pos_sorted[left_entry]

    counts = plan.encoded.counts
    left_size = counts[left_row]
    right_size = counts[right_row]
    # Partner-size filter — the probing (later, right) record's bound
    # applied to the indexed (earlier, left) record, as in the scalar join.
    keep = left_size >= plan.need[right_row]
    # Positional filter: from the shared token on, at most
    # min(|x| - i, |y| - j) tokens can be shared.  Rows are processed in
    # size order, so the left row is never the larger one.
    keep &= (_np.minimum(left_size - left_pos, right_size - right_pos)
             > required_overlap(metric, threshold, left_size, right_size)
             - EPS)
    left_row = left_row[keep]
    right_row = right_row[keep]
    generated = len(left_row)
    if generated == 0:
        return 0, 0

    # Deduplicate pairs generated from several shared prefix tokens.
    nrows = _np.int64(len(plan.encoded))
    packed = unique_sorted(left_row * nrows + right_row)
    left_row = packed // nrows
    right_row = packed % nrows

    ids = plan.encoded.ids
    scores = score_encoded_pairs(metric, plan.encoded, left_row, right_row)
    passing = scores > threshold
    left_ids = ids[left_row[passing]]
    right_ids = ids[right_row[passing]]
    low = _np.minimum(left_ids, right_ids)
    high = _np.maximum(left_ids, right_ids)
    survivors.update(zip(
        zip(low.tolist(), high.tolist()),
        scores[passing].tolist(),
    ))
    return generated, len(packed)


def _join_shard(
    plan: _JoinPlan,
    shard_index: int,
    num_shards: int,
    metric: str,
    threshold: float,
    pair_block_size: int,
) -> Tuple[Dict[Pair, float], int, int]:
    """Run one shard's generation + verification.

    Returns ``(survivors, generated, verified)`` — the shard's survivor
    map and its pair counters (see :func:`_process_element_batch`).
    """
    if num_shards > 1:
        # Vectorized form of blocking.shard_of_token over the element list.
        mine = _np.flatnonzero(plan.elem_token % num_shards == shard_index)
    else:
        mine = _np.arange(len(plan.elem_k), dtype=_np.int64)
    survivors: Dict[Pair, float] = {}
    generated = verified = 0
    pair_counts = _np.cumsum(plan.elem_k[mine])
    start = 0
    while start < len(mine):
        consumed = pair_counts[start - 1] if start else 0
        stop = int(_np.searchsorted(pair_counts, consumed + pair_block_size,
                                    side="left")) + 1
        stop = min(max(stop, start + 1), len(mine))
        batch_generated, batch_verified = _process_element_batch(
            plan, mine[start:stop], metric, threshold, survivors,
        )
        generated += batch_generated
        verified += batch_verified
        start = stop
    return survivors, generated, verified


def _run_shard_worker(shard_index: int) -> Tuple[Dict[Pair, float], int, int]:
    """Pool entry point: reads the fork-time snapshot in _SHARD_STATE."""
    return _join_shard(
        _SHARD_STATE["plan"],  # type: ignore[arg-type]
        shard_index,
        _SHARD_STATE["num_shards"],  # type: ignore[arg-type]
        _SHARD_STATE["metric"],  # type: ignore[arg-type]
        _SHARD_STATE["threshold"],  # type: ignore[arg-type]
        _SHARD_STATE["pair_block_size"],  # type: ignore[arg-type]
    )


def sharded_prefix_filtered_candidates(
    records: Sequence[Record],
    set_of: Callable[[Record], FrozenSet[str]],
    set_function: SetFunction,
    metric: str,
    threshold: float,
    num_shards: int = 1,
    processes: int = 0,
    include_empty_pairs: bool = False,
    timings: Optional[StageTimings] = None,
    obs=None,
    pair_block_size: int = DEFAULT_PAIR_BLOCK_SIZE,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    """Run the sharded vectorized join; same contract (and output, byte for
    byte) as :func:`repro.pruning.prefix_join.prefix_filtered_candidates`.

    Args:
        records: The record set ``R``.
        set_of: Maps a record to the frozenset the metric compares.
        set_function: The exact scalar set metric: scores the empty-set
            pairs of ``include_empty_pairs``, and is the equivalence
            reference of the batch kernel.
        metric: One of :data:`~repro.pruning.prefix_join.PREFIX_METRICS`.
        threshold: τ; pairs with score strictly above τ survive.
        num_shards: Blocking-key shards (>= 1).  Output is identical for
            every value; larger counts bound per-task memory and enable
            process parallelism.
        processes: Worker processes for the shard loop; <= 1 (or a single
            shard) runs in-process.  Requires the ``fork`` start method —
            without it the join falls back to the in-process loop and
            emits the ``pruning.parallel_fallback`` warning event.
        include_empty_pairs: Also emit pairs of records with empty sets,
            matching the all-pairs reference (same as the scalar join).
        timings: Optional stage timer; ``blocking`` covers interning,
            encoding, and incidence layout, ``scoring`` covers shard
            execution, verification, and the cross-shard merge.
        obs: Optional :class:`~repro.obs.ObsContext` (fallback events and
            the supervised pool's ``runtime.*`` fault events).
        pair_block_size: Generated pairs per numpy block (memory bound).
        supervisor_policy: Fault-handling knobs of the shard worker pool
            (retries, backoff, straggler deadline); defaults to
            :class:`~repro.runtime.supervisor.SupervisorPolicy`.
        fault_plan: Deterministic process-fault injection (chaos testing
            only); task index = shard index.
        counters: Optional dict receiving the join's deterministic work
            counts, summed over shards: ``generated_pairs`` (pairs passing
            the size and positional filters) and ``verified_pairs`` (the
            distinct pairs among them scored per pair block).
    """
    if metric not in PREFIX_METRICS:
        raise ValueError(f"unknown prefix-join metric {metric!r}")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if pair_block_size < 1:
        raise ValueError(f"pair_block_size must be >= 1, got {pair_block_size}")
    timings = timings if timings is not None else StageTimings()

    with timings.stage("blocking"):
        sets: Dict[int, FrozenSet[str]] = {
            record.record_id: set_of(record) for record in records
        }
        nonempty = [record_id for record_id, s in sets.items() if s]
        empty = [record_id for record_id, s in sets.items() if not s]
        plan = _build_plan(sets, nonempty, metric, threshold)

    with timings.stage("scoring"):
        merged: Dict[Pair, float] = {}
        generated = verified = 0
        for shard_survivors, shard_generated, shard_verified in _execute_shards(
            plan, num_shards, processes, metric, threshold,
            pair_block_size, obs, supervisor_policy, fault_plan,
        ):
            merged.update(shard_survivors)
            generated += shard_generated
            verified += shard_verified
        if counters is not None:
            counters.update(generated_pairs=generated,
                            verified_pairs=verified)

        if include_empty_pairs and len(empty) >= 2:
            empty_score = min(1.0, max(0.0, set_function(frozenset(),
                                                         frozenset())))
            if empty_score > threshold:
                ordered = sorted(empty)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1:]:
                        merged[(a, b)] = empty_score

        surviving = sorted(merged)
        scores = {pair: merged[pair] for pair in surviving}
    return surviving, scores


def _execute_shards(
    plan: _JoinPlan,
    num_shards: int,
    processes: int,
    metric: str,
    threshold: float,
    pair_block_size: int,
    obs,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> List[Tuple[Dict[Pair, float], int, int]]:
    """All shards' :func:`_join_shard` results, in shard order (parallel
    when asked)."""
    _SHARD_STATE.update(
        plan=plan, num_shards=num_shards, metric=metric, threshold=threshold,
        pair_block_size=pair_block_size,
    )
    try:
        shard_results, _ = supervised_map(
            _run_shard_worker, range(num_shards),
            # An empty plan joins nothing: not worth forking for.
            max(1, processes) if len(plan.elem_k) > 0 else 1,
            policy=supervisor_policy, obs=obs, fault_plan=fault_plan,
            label="pruning.shard_join",
        )
        return shard_results
    finally:
        _SHARD_STATE.clear()
