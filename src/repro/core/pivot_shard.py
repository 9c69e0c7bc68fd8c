"""Sharded parallel PC-Pivot: per-component engines, cross-shard merge.

Cluster generation decomposes exactly along connected components of the
candidate graph: every pair Crowd-Pivot issues is pivot-incident, so
work in one component never touches another's vertices, and running
PC-Pivot per component (with the global permutation restricted to the
component) produces precisely the clusters the whole-graph run would —
Lemma 2/4 applied component-wise.  This module exploits that:

1. **Partition** — :func:`~repro.pruning.components.connected_components`
   splits ``G = (V_R, E_S)``; multi-vertex components are packed into
   shard tasks largest-first.
2. **Fan out** — each shard runs in a worker process under the
   supervised pool of :mod:`repro.runtime.supervisor`, executing the
   fast engine per component over its own
   :class:`~repro.pruning.graph.EagerCandidateGraph` against a forked
   copy of the *pair-deterministic* answer source (every process
   resolves a pair to the same confidence, so placement cannot change
   any answer).  Workers return per-component round logs: chosen ``k``,
   predicted waste, issued pairs, clusters, and the fresh confidences.
3. **Merge** — the parent primes its answer source with the worker
   confidences, then replays *merged rounds* through the caller's
   oracle: round ``r`` of the sharded run is the union of every
   component's local round ``r``, components ordered by their smallest
   permutation rank.  One crowd batch, one diagnostics entry, and one
   ``pivot.round`` event per merged round — so ``CrowdStats.iterations``
   reports the true parallel crowd latency (the deepest component's
   round count: every component crowdsources its round-``r`` batch
   simultaneously), typically *far below* the unsharded engine's count.
   A cluster's pivot is always its minimum-rank member and the classic
   engine emits clusters in strictly ascending pivot rank, so sorting
   all clusters by pivot rank reproduces the single-process engine's
   cluster IDs byte for byte.

Determinism contract: the **clustering (including cluster IDs) is
byte-identical to the unsharded engines** for the same permutation and
answers, and every sharded configuration ``{shards, processes,
fault plan}`` produces byte-identical stats, diagnostics, and event
streams.  Round *accounting* (``CrowdStats`` batch boundaries, per-round
diagnostics) follows the merged component-local rounds, whereas the
unsharded engine's Equation-4 rounds couple components through the
global permutation prefix — the per-component ε waste bound still holds
round by round, hence so does the global one (a sum of per-component
bounds, every issued pair being fresh).

Degradation mirrors the pruning shards: without ``fork`` (or with
``processes <= 1``) the supervised pool runs the same shard function
in-process, and its retry/degrade ladder recovers killed, delayed, or
poisoned shard tasks — the merge consumes identical round logs either
way.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.clustering import Clustering
from repro.core.partial_pivot import PartialPivotResult, partial_pivot
from repro.core.pc_pivot import _finish_round
from repro.core.permutation import Permutation
from repro.core.pivot_engine import LiveVertexOrder, choose_pivots
from repro.crowd.oracle import CrowdOracle
from repro.obs import maybe_span
from repro.pruning.components import connected_components, pack_components
from repro.pruning.graph import EagerCandidateGraph
from repro.runtime.supervisor import supervised_map

Pair = Tuple[int, int]

#: One worker round: (k, predicted_waste, issued_pairs, live_before,
#: remaining, clusters, fresh_answers).  Plain tuples so the pipe can
#: pickle them cheaply.
_RoundLog = Tuple[int, int, Tuple[Pair, ...], int, int,
                  Tuple[Tuple[int, ...], ...],
                  Tuple[Tuple[int, int, float], ...]]

#: Worker state captured at fork time (start method "fork" only) — the
#: same pattern as ``repro.pruning.shard._SHARD_STATE``.
_PIVOT_STATE: Dict[str, object] = {}


#: The shard knob each sharded phase is disabled with, named in errors.
_SHARD_KNOB = {"generation": "pivot", "refinement": "refine"}


def require_pair_deterministic(source, phase: str) -> None:
    """Reject answer sources a sharded ``phase`` cannot safely fork.

    Worker processes resolve pairs through forked copies of the source;
    unless every copy maps a pair to the same confidence regardless of
    query order (``pair_deterministic``), sharding could change answers.
    Stateful sources (fallback tracking, platform simulators with
    cross-batch RNG) must use the single-process engines.

    Args:
        source: The answer source the workers would fork.
        phase: ``"generation"`` or ``"refinement"``.
    """
    if not getattr(source, "pair_deterministic", False):
        raise ValueError(
            f"sharded {phase} requires a pair-deterministic answer "
            f"source; {type(source).__name__} does not declare "
            f"pair_deterministic — run with {_SHARD_KNOB[phase]} shards "
            "disabled"
        )


def _run_component(
    vertices: Sequence[int],
    edges: Sequence[Pair],
    permutation: Permutation,
    epsilon: float,
    answers,
) -> List[_RoundLog]:
    """Run the fast PC-Pivot loop over one connected component.

    A local throwaway oracle collects this component's answers; the
    parent replays the returned log through the caller's oracle, which
    is where the authoritative stats/journal/events accounting happens.
    """
    graph = EagerCandidateGraph(vertices, edges)
    # Rank-sort the component instead of filtering the global permutation
    # (LiveVertexOrder's constructor is O(records); per-component that
    # would be quadratic in the record count).
    order = LiveVertexOrder.from_ranked(
        sorted(vertices, key=permutation.rank))
    oracle = CrowdOracle(answers)
    rounds: List[_RoundLog] = []
    while not graph.is_empty():
        ordered = order.live()
        live_before = len(ordered)
        epoch = oracle.answer_epoch
        k, estimates = choose_pivots(graph, ordered, epsilon)
        result = partial_pivot(
            graph, k, permutation, oracle,
            pivots=ordered[:k], predicted_waste=sum(estimates),
        )
        clusters = []
        for cluster in result.clusters:
            clusters.append(tuple(sorted(cluster)))
            order.discard(cluster)
        fresh = tuple(
            (a, b, oracle.known_confidence(a, b))
            for a, b in oracle.answers_since(epoch)
        )
        rounds.append((k, result.predicted_waste, result.issued_pairs,
                       live_before, len(graph), tuple(clusters), fresh))
    return rounds


def _run_pivot_shard(shard_index: int) -> List[Tuple[int, List[_RoundLog]]]:
    """Worker body: run every component packed into one shard.

    Reads the parent's published :data:`_PIVOT_STATE` (carried by fork);
    also the serial and degraded execution path, where the state is
    simply still visible in-process.
    """
    components = _PIVOT_STATE["components"]  # type: ignore[assignment]
    shards = _PIVOT_STATE["shards"]  # type: ignore[assignment]
    permutation = _PIVOT_STATE["permutation"]  # type: ignore[assignment]
    epsilon = _PIVOT_STATE["epsilon"]  # type: ignore[assignment]
    answers = _PIVOT_STATE["answers"]
    results = []
    for multi_pos in shards[shard_index]:
        vertices, edges = components[multi_pos]
        results.append((multi_pos, _run_component(
            vertices, edges, permutation, epsilon, answers)))
    return results


def pc_pivot_sharded(
    ids: Sequence[int],
    candidates,
    oracle: CrowdOracle,
    epsilon: float,
    permutation: Permutation,
    diagnostics=None,
    obs=None,
    *,
    shards: int,
    processes: int = 0,
    supervisor_policy=None,
    fault_plan=None,
) -> Clustering:
    """Sharded PC-Pivot over the candidate graph (see module docstring).

    Called through :func:`repro.core.pc_pivot.pc_pivot` with
    ``shards >= 1``; ``processes <= 1`` runs the shard tasks in-process
    (still component-ordered, so the output is identical).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if processes < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    source = oracle.source
    require_pair_deterministic(source, "generation")
    # Workers must not fork a journaling wrapper (its file handle would
    # be shared across processes); they fork the wrapped source and the
    # parent's replay journals the batches.
    fork_source = getattr(source, "fork_source", source)

    ids = list(ids)
    components = connected_components(ids, candidates.pairs)
    multi = [index for index, members in enumerate(components)
             if len(members) > 1]
    # Every candidate pair lives inside a multi-vertex component (each
    # endpoint has degree >= 1), so only those components need a vertex
    # map, an edge bucket, or a worker run — singletons stay out of the
    # shard state entirely.
    comp_of: Dict[int, int] = {}
    for index in multi:
        for vertex in components[index]:
            comp_of[vertex] = index
    edges_of: Dict[int, List[Pair]] = {}
    for pair in candidates.pairs:
        edges_of.setdefault(comp_of[pair[0]], []).append(pair)

    num_shards = max(1, min(shards, len(multi)))
    multi_components = [(components[index], tuple(edges_of.get(index, ())))
                        for index in multi]
    # Bins hold positions into the multi list; the parent maps worker
    # results back to global component indices.
    packed = pack_components([members for members, _ in multi_components],
                             num_shards)

    _PIVOT_STATE["components"] = multi_components
    _PIVOT_STATE["shards"] = packed
    _PIVOT_STATE["permutation"] = permutation
    _PIVOT_STATE["epsilon"] = epsilon
    _PIVOT_STATE["answers"] = fork_source
    try:
        shard_results, _ = supervised_map(
            _run_pivot_shard, range(num_shards), max(1, processes),
            policy=supervisor_policy, obs=obs, fault_plan=fault_plan,
            label="pivot.shard",
        )
    finally:
        _PIVOT_STATE.clear()

    component_rounds: Dict[int, List[_RoundLog]] = {}
    for shard_result in shard_results:
        for multi_pos, rounds in shard_result:
            component_rounds[multi[multi_pos]] = rounds

    return _merge_component_runs(
        ids, components, component_rounds, permutation, oracle, epsilon,
        diagnostics, obs, source,
    )


def _merge_component_runs(
    ids: Sequence[int],
    components: Sequence[Tuple[int, ...]],
    component_rounds: Dict[int, List[_RoundLog]],
    permutation: Permutation,
    oracle: CrowdOracle,
    epsilon: float,
    diagnostics,
    obs,
    source,
) -> Clustering:
    """Replay worker round logs through the caller's oracle and merge.

    The replay *is* the authoritative accounting: priming the source
    with the worker-computed confidences makes ``oracle.ask_batch`` a
    cheap memo lookup while still flowing through the known-answer set,
    ``CrowdStats``, journaling, and the ``crowd.batch`` event — exactly
    as a single-process run would.  Rounds are merged across components
    (round ``r`` = every component's local round ``r``, components in
    ascending min-rank order): one crowd batch and one diagnostics/obs
    round each, so the iteration count reports the parallel crowd
    latency instead of a per-component sum.
    """
    rank = permutation.rank

    prime = getattr(source, "prime", None)
    if prime is not None:
        fresh_map: Dict[Pair, float] = {}
        for rounds in component_rounds.values():
            for log in rounds:
                for a, b, confidence in log[6]:
                    fresh_map[(a, b)] = confidence
        prime(fresh_map)

    # Components replay in ascending rank of their smallest-rank member —
    # a canonical order no shard packing or fault schedule can perturb.
    replay_order = sorted(component_rounds,
                          key=lambda index: min(map(rank,
                                                    components[index])))
    by_round: List[List[_RoundLog]] = []
    for comp_index in replay_order:
        for depth, log in enumerate(component_rounds[comp_index]):
            if depth == len(by_round):
                by_round.append([])
            by_round[depth].append(log)

    keyed_clusters: List[Tuple[int, Tuple[int, ...]]] = []
    round_index = 0
    for logs in by_round:
        issued_all: List[Pair] = []
        clusters_all: List[Tuple[int, ...]] = []
        k_sum = waste_sum = live_sum = remaining_sum = 0
        for k, predicted_waste, issued, live_before, remaining, clusters, \
                _fresh in logs:
            k_sum += k
            waste_sum += predicted_waste
            live_sum += live_before
            remaining_sum += remaining
            issued_all.extend(issued)
            clusters_all.extend(clusters)
        round_index += 1
        with maybe_span(obs, "pivot.partial", k=k_sum) as span:
            oracle.ask_batch(issued_all)
            if obs is not None:
                span.set_attr("issued_pairs", len(issued_all))
                span.set_attr("clusters", len(clusters_all))
                span.set_attr("predicted_waste", waste_sum)
        if diagnostics is not None or obs is not None:
            result = PartialPivotResult(
                clusters=tuple(frozenset(c) for c in clusters_all),
                issued_pairs=tuple(issued_all),
                predicted_waste=waste_sum,
            )
            _finish_round(obs, diagnostics, round_index, k_sum, result,
                          epsilon, live_sum, remaining_sum)
        for members in clusters_all:
            keyed_clusters.append((min(map(rank, members)), members))

    # Singleton components never issue a pair: they contribute their
    # vertex as a rank-keyed singleton cluster straight to the merge.
    for index, members in enumerate(components):
        if index not in component_rounds:
            if len(members) != 1:
                raise RuntimeError(
                    f"component {index} ({len(members)} vertices) produced "
                    "no shard result"
                )
            keyed_clusters.append((rank(members[0]), members))

    # A cluster's pivot is its minimum-rank member, and the unsharded
    # engine emits clusters in strictly ascending pivot rank — sorting by
    # pivot rank therefore reproduces its cluster IDs exactly.  Pivot
    # ranks are unique across the disjoint clusters, so the bare tuple
    # sort never compares the member tuples.
    keyed_clusters.sort()
    clustering = Clustering()
    seen: set = set()
    for _, members in keyed_clusters:
        overlap = seen.intersection(members)
        if overlap:
            raise RuntimeError(
                f"cross-shard merge produced overlapping clusters: "
                f"records {sorted(overlap)} appear twice"
            )
        seen.update(members)
        clustering.add_cluster(members)
    if len(seen) != len(set(ids)):
        raise RuntimeError(
            f"cross-shard merge lost records: {len(seen)} clustered, "
            f"{len(set(ids))} expected"
        )
    return clustering
