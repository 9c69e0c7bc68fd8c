"""Incremental benefit/cost evaluation for the refinement phase.

:class:`~repro.core.operations.OperationEvaluator` re-derives an
operation's relevant pairs, cost, and benefits from scratch on every call —
correct, but the refinement loops (Algorithms 4-5) ask for the same values
thousands of times while only a handful of clusters change per iteration.
:class:`EvaluationCache` memoizes each operation's evaluation as an
*entry*: the relevant pairs (built canonical from sorted member views),
one confidence slot per pair, and the positions and machine scores of the
still-unknown candidate pairs.  A build classifies every pair with two
dict lookups — the oracle's read-only answer map ``A``, then the machine
scores of ``S`` (absent from both means pruned, ``f_c = 0``).

Three signals invalidate entries:

* **Cluster versions** — an entry snapshots its touched clusters'
  :class:`~repro.core.refine.ClusterVersionTracker` versions; an applied
  operation bumps only the clusters it changed, and an entry whose
  snapshot is stale is rebuilt on its next lookup.
* **Oracle answer epoch** — every entry records the ``answer_epoch`` it
  was built at.  The cache reads the oracle's append-only answer log
  through a cursor and maps each fresh candidate answer ``(a, b)`` to the
  only operations that can hold it as an unknown pair: ``Split(a, C)`` and
  ``Split(b, C)`` when both records sit in cluster ``C``, otherwise
  ``Merge(C_a, C_b)``.  Such an operation is marked dirty iff its entry
  exists, is current, and was built before the answer arrived — exactly
  the current entries holding the pair as unknown.  Entries whose
  clusters changed are left alone: their next lookup rebuilds them.
* **Estimator epoch** — new histogram samples bump the estimator's epoch;
  the cache re-queries its per-score estimate memo and marks dirty only
  entries holding unknown pairs whose machine-score estimate *actually
  changed* (a score -> operations index, one registration per distinct
  score per entry), so a rebuild that lands on identical bucket means
  invalidates nothing.

Everything the cache serves is byte-identical to a fresh
``OperationEvaluator`` derivation: per-pair confidences are stored in
``relevant_pairs`` order and benefits are recomputed as the same ordered
sums (:func:`~repro.core.objective.split_benefit` /
:func:`~repro.core.objective.merge_benefit`), so float summation order — and
therefore every downstream comparison and tie-break — is preserved.

Assumptions (all hold within a run): crowd answers are append-only (a
known pair's confidence never changes), pruned pairs stay pruned, and all
clustering mutations flow through the shared version tracker.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.clustering import Clustering
from repro.core.estimator import HistogramEstimator
from repro.core.objective import merge_benefit, split_benefit
from repro.core.operations import Merge, Operation, Split
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (refine imports us)
    from repro.core.refine import ClusterVersionTracker

Pair = Tuple[int, int]


@dataclass
class EvaluationStats:
    """Work accounting for the cache (read by the refine benchmark).

    Attributes:
        lookups: Public value requests served.
        hits: Lookups answered entirely from a current entry.
        refreshes: Lookups that reused the entry's pair structure but
            re-resolved answers / re-summed benefits (answer or estimate
            delta touched the entry).
        evaluations: Full from-scratch derivations (entry missing or its
            cluster snapshot stale) — the unit the reference engine pays
            on *every* request.
    """

    lookups: int = 0
    hits: int = 0
    refreshes: int = 0
    evaluations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "refreshes": self.refreshes,
            "evaluations": self.evaluations,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    """One operation's memoized evaluation (see module docstring)."""

    __slots__ = (
        "snapshot", "epoch", "is_split", "pairs", "confidences",
        "unknown_indices", "unknown_scores", "registered_scores",
        "estimated", "exact", "answer_dirty", "estimate_dirty",
    )

    def __init__(self) -> None:
        self.snapshot: Tuple[Tuple[int, int], ...] = ()
        # Oracle answer epoch at build time: answers logged at positions
        # >= epoch arrived after the build and may dirty the entry.
        self.epoch = 0
        self.is_split = False
        self.pairs: List[Pair] = []
        # One slot per relevant pair, in order: the known f_c (answered or
        # pruned-0.0) or None while the pair is still unknown.
        self.confidences: List[Optional[float]] = []
        self.unknown_indices: List[int] = []
        self.unknown_scores: List[float] = []
        # Distinct scores registered in the score index at build time
        # (kept until rebuild so stale registrations can be dropped; a
        # spurious dirty mark only costs a refresh, never correctness).
        self.registered_scores: Tuple[float, ...] = ()
        self.estimated: float = 0.0
        self.exact: Optional[float] = None
        self.answer_dirty = False
        self.estimate_dirty = False


class EvaluationCache:
    """Version/epoch-invalidated memo of operation evaluations.

    Serves the same values as an
    :class:`~repro.core.operations.OperationEvaluator` over the same state,
    byte-for-byte, while recomputing only entries invalidated by cluster
    changes, fresh crowd answers, or changed histogram estimates.
    """

    def __init__(
        self,
        clustering: Clustering,
        candidates: CandidateSet,
        oracle: CrowdOracle,
        estimator: HistogramEstimator,
        tracker: "ClusterVersionTracker",
    ):
        self._clustering = clustering
        self._scores = candidates.machine_scores
        self._oracle = oracle
        self._known = oracle.known_view
        self._estimator = estimator
        self._tracker = tracker
        self._entries: Dict[Operation, _Entry] = {}
        # Reverse index: which entries a changed estimate can affect.
        self._score_index: Dict[float, Set[Operation]] = {}
        # Per-machine-score estimate memo, refreshed (and diffed) when the
        # estimator epoch moves.
        self._estimates: Dict[float, float] = {}
        self._answer_cursor = oracle.answer_epoch
        self._estimator_epoch = estimator.epoch
        # Whether A holds a pruned pair (its f_c is then the crowd's, not
        # 0) — the one case OperationCache's merge bound does not cover.
        self._pruned_answered = any(pair not in self._scores
                                    for pair in self._known)
        # Operations whose cached values changed since the last drain
        # (answer/estimate deltas only; cluster staleness is reported by
        # the tracker, not here).
        self._dirty_ops: Set[Operation] = set()
        self.stats = EvaluationStats()

    # ------------------------------------------------------------------
    # Public accessors (OperationEvaluator-compatible values)
    # ------------------------------------------------------------------

    def relevant_pairs(self, operation: Operation) -> List[Pair]:
        """The record pairs whose ``f_c`` the operation's benefit needs."""
        return list(self._entry(operation, exact_only=True).pairs)

    def cost(self, operation: Operation) -> int:
        """Crowdsourcing cost ``c(o)``."""
        return len(self._entry(operation, exact_only=True).unknown_indices)

    def unknown_pairs(self, operation: Operation) -> List[Pair]:
        """Still-unknown relevant pairs, in ``relevant_pairs`` order."""
        entry = self._entry(operation, exact_only=True)
        return [entry.pairs[index] for index in entry.unknown_indices]

    def exact_benefit(self, operation: Operation) -> Optional[float]:
        """``b(o)`` when every relevant ``f_c`` is known; else ``None``."""
        return self._entry(operation, exact_only=True).exact

    def estimated_benefit(self, operation: Operation) -> float:
        """``b*(o)``: known contributions exact, the rest estimated."""
        return self._entry(operation).estimated

    def ratio_and_cost(self, operation: Operation) -> Tuple[Optional[float], int]:
        """``(b*(o)/c(o), c(o))`` for costly operations; ``(None, cost)``
        when ``c(o) <= 0`` (the refinement loops route those through the
        free path and never rank them)."""
        entry = self._entry(operation)
        cost = len(entry.unknown_indices)
        if cost <= 0:
            return None, cost
        return entry.estimated / cost, cost

    @property
    def pruned_pairs_unanswered(self) -> bool:
        """True while no pruned pair is in ``A``, so every pruned ``f_c``
        is 0 — the premise of
        :meth:`~repro.core.refine.OperationCache.unordered_operations`'
        merge bound."""
        self._sync_answers()
        return not self._pruned_answered

    def drain_dirty_operations(self) -> Set[Operation]:
        """Operations whose cached values changed since the last drain due
        to fresh answers or changed estimates.  Cluster-version staleness is
        *not* reported here — callers learn about it from the operations
        they applied through the shared tracker."""
        self._sync_answers()
        self._sync_estimates()
        dirty = self._dirty_ops
        self._dirty_ops = set()
        return dirty

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def _entry(self, operation: Operation,
               exact_only: bool = False) -> _Entry:
        """Resolve a current entry for ``operation``.

        ``exact_only`` marks accessors whose values don't depend on the
        histogram (pairs / cost / exact benefit): for them an
        estimate-stale entry is still a hit — the free path re-scans every
        operation per pass, and would otherwise pay a refresh per
        histogram change for values the estimator can't move.

        A build reads the oracle's current answers and stamps their epoch,
        so it needs no answer sync first; the estimate memo it reads must
        be current, though.
        """
        self.stats.lookups += 1
        entry = self._entries.get(operation)
        if entry is None or not self._tracker.is_current(entry.snapshot):
            self.stats.evaluations += 1
            if self._estimator.epoch != self._estimator_epoch:
                self._sync_estimates()
            return self._build(operation, entry)
        if self._oracle.answer_epoch != self._answer_cursor:
            self._sync_answers()
        if self._estimator.epoch != self._estimator_epoch:
            self._sync_estimates()
        if entry.answer_dirty or (entry.estimate_dirty and not exact_only):
            self.stats.refreshes += 1
            self._refresh(entry)
            return entry
        self.stats.hits += 1
        return entry

    def _estimate(self, machine_score: float) -> float:
        value = self._estimates.get(machine_score)
        if value is None:
            value = self._estimator.estimate(machine_score)
            self._estimates[machine_score] = value
        return value

    def _build(self, operation: Operation, old: Optional[_Entry]) -> _Entry:
        if old is not None:
            self._deregister(operation, old)

        entry = _Entry()
        entry.snapshot = self._tracker.snapshot(operation.touched_clusters)
        entry.epoch = self._oracle.answer_epoch
        member_view = self._clustering.member_view
        if isinstance(operation, Split):
            entry.is_split = True
            record = operation.record_id
            members = sorted(member_view(operation.cluster_id))
            cut = bisect_left(members, record)
            pairs = ([(other, record) for other in members[:cut]]
                     + [(record, other) for other in members[cut + 1:]])
        else:
            members_b = sorted(member_view(operation.cluster_b))
            pairs = []
            for a in sorted(member_view(operation.cluster_a)):
                cut = bisect_left(members_b, a)
                pairs += [(b, a) for b in members_b[:cut]]
                pairs += [(a, b) for b in members_b[cut:]]
        entry.pairs = pairs

        known = self._known.get
        scores = self._scores.get
        confidences = entry.confidences
        unknown_indices = entry.unknown_indices
        unknown_scores = entry.unknown_scores
        for index, pair in enumerate(pairs):
            confidence = known(pair)
            if confidence is None:
                score = scores(pair)
                if score is None:
                    confidence = 0.0  # pruned: f_c = 0 by definition
                else:
                    unknown_indices.append(index)
                    unknown_scores.append(score)
            confidences.append(confidence)

        entry.registered_scores = tuple(set(unknown_scores))
        for score in entry.registered_scores:
            self._estimate(score)  # memo must cover every registered score
            self._score_index.setdefault(score, set()).add(operation)

        self._recompute_benefits(entry)
        self._entries[operation] = entry
        return entry

    def _refresh(self, entry: _Entry) -> None:
        """Re-resolve answers / re-sum benefits without re-deriving the
        pair structure (cluster snapshot is still current)."""
        if entry.answer_dirty:
            known = self._known.get
            still_indices: List[int] = []
            still_scores: List[float] = []
            for position, index in enumerate(entry.unknown_indices):
                confidence = known(entry.pairs[index])
                if confidence is None:
                    still_indices.append(index)
                    still_scores.append(entry.unknown_scores[position])
                else:
                    entry.confidences[index] = confidence
            entry.unknown_indices = still_indices
            entry.unknown_scores = still_scores
            entry.answer_dirty = False
        # The estimate memo is always current after _sync_estimates, so
        # recomputing clears estimate staleness no matter which flag
        # triggered us.
        entry.estimate_dirty = False
        self._recompute_benefits(entry)

    def _recompute_benefits(self, entry: _Entry) -> None:
        # Ordered sums over the relevant pairs — the exact arithmetic of
        # OperationEvaluator.{exact,estimated}_benefit.
        benefit = split_benefit if entry.is_split else merge_benefit
        if entry.unknown_indices:
            # The memo covers every registered score (see _build).
            estimates = self._estimates
            values: List[float] = list(entry.confidences)  # type: ignore[arg-type]
            for index, score in zip(entry.unknown_indices,
                                    entry.unknown_scores):
                values[index] = estimates[score]
            entry.exact = None
            entry.estimated = benefit(values)
        else:
            entry.exact = entry.estimated = benefit(
                entry.confidences)  # type: ignore[arg-type]

    def _deregister(self, operation: Operation, entry: _Entry) -> None:
        for score in entry.registered_scores:
            ops = self._score_index.get(score)
            if ops is not None:
                ops.discard(operation)
                if not ops:
                    del self._score_index[score]
                    self._estimates.pop(score, None)

    # ------------------------------------------------------------------
    # Delta ingestion
    # ------------------------------------------------------------------

    def _sync_answers(self) -> None:
        cursor = self._answer_cursor
        oracle_epoch = self._oracle.answer_epoch
        if oracle_epoch == cursor:
            return
        fresh = self._oracle.answers_since(cursor)
        self._answer_cursor = oracle_epoch
        cluster_of = self._clustering.cluster_of
        is_current = self._tracker.is_current
        entries = self._entries
        for position, pair in enumerate(fresh, start=cursor):
            if pair not in self._scores:
                # Never unknown in any entry; it only voids the merge bound.
                self._pruned_answered = True
                continue
            a, b = pair
            cluster_a = cluster_of(a)
            cluster_b = cluster_of(b)
            if cluster_a == cluster_b:
                holders: Tuple[Operation, ...] = (Split(a, cluster_a),
                                                  Split(b, cluster_a))
            elif cluster_a < cluster_b:
                holders = (Merge(cluster_a, cluster_b),)
            else:
                holders = (Merge(cluster_b, cluster_a),)
            for operation in holders:
                entry = entries.get(operation)
                if (entry is not None and entry.epoch <= position
                        and is_current(entry.snapshot)):
                    entry.answer_dirty = True
                    self._dirty_ops.add(operation)

    def _sync_estimates(self) -> None:
        estimator_epoch = self._estimator.epoch
        if estimator_epoch == self._estimator_epoch:
            return
        self._estimator_epoch = estimator_epoch
        changed: List[float] = []
        for score, old_value in self._estimates.items():
            new_value = self._estimator.estimate(score)
            if new_value != old_value:
                self._estimates[score] = new_value
                changed.append(score)
        for score in changed:
            ops = self._score_index.get(score)
            if not ops:
                continue
            for operation in ops:
                entry = self._entries.get(operation)
                if entry is not None:
                    entry.estimate_dirty = True
            self._dirty_ops.update(ops)
