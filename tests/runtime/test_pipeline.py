"""Component-streaming pipelined executor: byte-identity vs barrier
execution under shard counts, worker processes, fault schedules,
checkpoint kill-resume, and journal composition.

The pipelined executor's hard contract is that overlapping the
pruning → pivot → refine phase barriers changes *when* work runs, never
*what* it computes: the candidate set and the final clustering (cluster
ids included) must be byte-identical to barrier execution for every
``{pruning shards, workers, fault plan}`` configuration.  The sealing
accumulator that makes the overlap safe is property-tested here against
:func:`~repro.pruning.components.connected_components` under arbitrary
shard-completion orders.
"""

import multiprocessing
import random
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.obs import ObsContext
from repro.pruning.candidate import build_candidate_set
from repro.pruning.components import (
    IncrementalComponents,
    connected_components,
)
from repro.runtime.autoshard import (
    AUTO_MIN_RECORDS,
    resolve_auto_shards,
)
from repro.runtime.checkpoint import CheckpointMismatch, CheckpointStore
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.pipeline import run_pipeline
from repro.runtime.supervisor import SupervisorPolicy
from repro.similarity.composite import jaccard_similarity_function

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pipelined worker pool requires the 'fork' start method",
)

SEED = 3
POLICY = SupervisorPolicy(backoff_base_s=0.005)

# The confused population gives every phase real crowd work: surviving
# inter-cluster edges (pivot rounds), over- and under-merges (refine
# operations), and multi-member components spanning pruning shards.
_DATASET = generate("largescale", scale=0.2, seed=0, confusion=0.25)
_CANDIDATES = build_candidate_set(
    _DATASET.records, jaccard_similarity_function(),
    threshold=PRUNING_THRESHOLD,
)
_WORKERS = WorkerPool(difficulty=difficulty_model("largescale"),
                      num_workers=3)


def _collect_events(obs):
    events = []

    def walk(span):
        for event in span.events:
            events.append((event["name"], event["attrs"]))
        for child in span.children:
            walk(child)

    for root in obs.tracer.roots:
        walk(root)
    return events


def _pipeline_outcome(pruning_shards=4, workers=0, fault_plan=None,
                      policy=POLICY, pre_pruned=False, journal_path=None,
                      checkpoints=None, resume=False, answers=None):
    # AnswerFile resolves each pair from a pair-seeded RNG, so a fresh
    # instance per run replays identical answers.
    source = answers if answers is not None else AnswerFile(_DATASET.gold,
                                                            _WORKERS)
    obs = ObsContext()
    kwargs = dict(
        threshold=PRUNING_THRESHOLD, workers=workers, seed=SEED, obs=obs,
        supervisor_policy=policy, fault_plan=fault_plan,
        journal_path=journal_path, checkpoints=checkpoints, resume=resume,
    )
    if pre_pruned:
        piped = run_pipeline(source, record_ids=_DATASET.record_ids,
                             candidates=_CANDIDATES, **kwargs)
    else:
        piped = run_pipeline(source, records=_DATASET.records,
                             similarity=jaccard_similarity_function(),
                             pruning_shards=pruning_shards, **kwargs)
    result = piped.result
    return {
        "pairs": piped.candidates.pairs,
        "scores": tuple(sorted(piped.candidates.machine_scores.items())),
        "threshold": piped.candidates.threshold,
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "generation_stats": result.generation_stats,
        "refinement_stats": result.refinement_stats,
        # Scheduling telemetry (pipeline.* events, runtime counters and
        # events) legitimately varies with the configuration; the crowd
        # phases' event stream must not.
        "events": [e for e in _collect_events(obs)
                   if not e[0].startswith(("runtime", "pipeline."))],
        "counters": obs.metrics.as_dict()["counters"],
    }


def _core(outcome):
    """Everything that must be byte-identical to barrier execution."""
    return {key: value for key, value in outcome.items()
            if key not in ("events", "counters")}


def _identity_view(outcome):
    """Everything that must be byte-identical across pipelined
    configurations (fault counters naturally differ by schedule)."""
    return {key: value for key, value in outcome.items()
            if key != "counters"}


def _barrier_core():
    result = run_acd(
        _DATASET.record_ids, _CANDIDATES,
        AnswerFile(_DATASET.gold, _WORKERS), seed=SEED,
        pivot_shards=8, pivot_processes=2,
        refine_shards=8, refine_processes=2,
    )
    return {
        "pairs": _CANDIDATES.pairs,
        "scores": tuple(sorted(_CANDIDATES.machine_scores.items())),
        "threshold": _CANDIDATES.threshold,
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "generation_stats": result.generation_stats,
        "refinement_stats": result.refinement_stats,
    }


class TestBarrierParity:
    def test_pipeline_matches_barrier_across_configs(self):
        """Streamed pruning + overlapped crowd phases reproduce barrier
        execution byte for byte at every {shards, workers} point, and
        the pipelined runs also agree on the crowd-phase event stream."""
        barrier = _barrier_core()
        outcomes = [
            _pipeline_outcome(pruning_shards=shards, workers=workers)
            for shards, workers in ((4, 0), (7, 2), (4, 4))
        ]
        for outcome in outcomes:
            assert _core(outcome) == barrier
        for outcome in outcomes[1:]:
            assert (_identity_view(outcome)
                    == _identity_view(outcomes[0]))

    def test_streamed_pruning_span_matches_barrier(self):
        """The streamed join reports the barrier join's pruning span:
        same survivors and the same work counters at one shard count."""
        def pruning_attrs(obs):
            spans = list(obs.tracer.roots)
            while spans:
                span = spans.pop()
                if span.name == "pruning":
                    return span.attrs
                spans.extend(span.children)
            raise AssertionError("no pruning span")

        barrier_obs = ObsContext()
        build_candidate_set(_DATASET.records, jaccard_similarity_function(),
                            threshold=PRUNING_THRESHOLD, shards=4,
                            obs=barrier_obs)
        streamed_obs = ObsContext()
        run_pipeline(AnswerFile(_DATASET.gold, _WORKERS),
                     records=_DATASET.records,
                     similarity=jaccard_similarity_function(),
                     threshold=PRUNING_THRESHOLD, pruning_shards=4,
                     seed=SEED, obs=streamed_obs)
        assert pruning_attrs(streamed_obs) == pruning_attrs(barrier_obs)
        assert pruning_attrs(barrier_obs)["verified_pairs"] > 0

    def test_pre_pruned_entry_matches_barrier(self):
        """The record_ids+candidates entry shape (pruning already done)
        dispatches every component immediately and still matches."""
        outcome = _pipeline_outcome(pre_pruned=True, workers=2)
        assert _core(outcome) == _barrier_core()


class TestFaultByteIdentity:
    def test_every_fault_kind_is_byte_identical(self):
        reference = _identity_view(_pipeline_outcome(pruning_shards=6,
                                                     workers=4))
        plans = {
            "kill": ProcessFaultPlan.sample(6, seed=1, kills=2),
            # The pipeline rides out delays rather than racing
            # stragglers (pivot/refine tasks sleep on crowd latency),
            # so the plain policy applies to every kind.
            "delay": ProcessFaultPlan.sample(6, seed=1, delays=2,
                                             delay_seconds=0.5),
            "poison": ProcessFaultPlan.sample(6, seed=1, poisons=2),
        }
        for kind, plan in plans.items():
            chaotic = _pipeline_outcome(pruning_shards=6, workers=4,
                                        fault_plan=plan)
            assert _identity_view(chaotic) == reference, kind

    def test_kill_plan_actually_crashed_workers(self):
        outcome = _pipeline_outcome(
            pruning_shards=6, workers=4,
            fault_plan=ProcessFaultPlan.sample(6, seed=1, kills=2),
        )
        assert outcome["counters"].get("runtime_worker_crashes_total",
                                       0) >= 1


class TestJournalComposition:
    def test_journaled_pipelined_run_replays_byte_identical(self):
        """A journaled pipelined run re-invoked on the same journal
        serves every coordinator batch from the write-ahead log (the
        journal does not grow) and reports byte-identical."""
        from repro.crowd.persistence import AnswerJournal

        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "run.journal"
            first = _pipeline_outcome(workers=2, journal_path=journal)
            batches_after_first = AnswerJournal(journal).num_batches
            replayed = _pipeline_outcome(workers=2, journal_path=journal)
            batches_after_replay = AnswerJournal(journal).num_batches
        assert batches_after_first >= 1
        assert batches_after_replay == batches_after_first
        assert _identity_view(replayed) == _identity_view(first)


class TestCheckpointKillResume:
    def test_resume_from_each_checkpoint(self):
        """A pipelined run killed right after each of the three phase
        checkpoints resumes byte-identical to an uninterrupted run; a
        run that completed refinement resumes without touching the
        crowd at all."""
        config = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                  "pipeline": True, "pipeline_workers": 2}

        class Refusing:
            pair_deterministic = True
            num_workers = 3

            def confidence(self, a, b):
                raise AssertionError(
                    f"restored pipeline re-crowdsourced ({a}, {b})")

        uninterrupted = _pipeline_outcome(workers=2)
        with tempfile.TemporaryDirectory() as tmp:
            full = Path(tmp) / "full"
            first = _pipeline_outcome(
                workers=2,
                checkpoints=CheckpointStore(full, config=config))
            assert _identity_view(first) == _identity_view(uninterrupted)
            for phase in ("pruning", "generation", "refinement"):
                # Emulate a death right after `phase` was checkpointed:
                # copy the completed store and drop the later phases.
                partial = Path(tmp) / f"died-after-{phase}"
                shutil.copytree(full, partial)
                store = CheckpointStore(partial, config=config)
                if phase == "pruning":
                    store.clear("generation")
                if phase in ("pruning", "generation"):
                    store.clear("refinement")
                resumed = _pipeline_outcome(
                    workers=2, checkpoints=store, resume=True,
                    answers=(Refusing() if phase == "refinement"
                             else None))
                view = _identity_view(resumed)
                # Restored phases do not re-run, so their event stream
                # (and worker batches already accounted in the restored
                # stats) is absent by design; the authoritative outputs
                # must still match exactly.
                assert _core(resumed) == _core(uninterrupted), phase
                assert view["clustering"] == uninterrupted["clustering"]

    def test_resume_under_different_pipeline_config_fails_fast(self):
        """Regression: the checkpoint fingerprint must cover the
        pipeline knobs — resuming a barrier run's checkpoints with
        --pipeline (or a different worker count) must fail fast naming
        the differing keys, not silently splice executions."""
        base = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                "pipeline": False, "pipeline_workers": 0}
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp, config=base)
            store.save("pruning", {"pairs": [], "scores": [],
                                   "threshold": 0.7})
            for key, value in (("pipeline", True),
                               ("pipeline_workers", 4)):
                mismatched = CheckpointStore(tmp,
                                             config={**base, key: value})
                with pytest.raises(CheckpointMismatch) as excinfo:
                    mismatched.load("pruning")
                assert key in str(excinfo.value)


class TestAutoshard:
    def test_auto_resolves_by_tier(self):
        assert resolve_auto_shards(
            "pruning", records=AUTO_MIN_RECORDS, requested="auto") == 8
        assert resolve_auto_shards(
            "pruning", records=AUTO_MIN_RECORDS - 1, requested="auto") == 1
        assert resolve_auto_shards(
            "pivot", records=AUTO_MIN_RECORDS, requested="auto") == 64
        assert resolve_auto_shards(
            "pivot", records=100, requested="auto") == 0
        assert resolve_auto_shards(
            "refine", records=100, requested="auto") == 0

    def test_explicit_integers_pass_through(self):
        for kind in ("pruning", "pivot", "refine"):
            assert resolve_auto_shards(kind, records=1,
                                       requested=5) == 5

    def test_auto_resolution_is_observable(self):
        obs = ObsContext()
        with obs.span("setup"):
            resolve_auto_shards("pruning", records=AUTO_MIN_RECORDS,
                                requested="auto", obs=obs)
            resolve_auto_shards("pruning", records=10, requested=3,
                                obs=obs)
        events = [e for e in _collect_events(obs)
                  if e[0] == "runtime.autoshard"]
        # Explicit integers resolve silently; only "auto" is a decision.
        assert len(events) == 1
        assert events[0][1] == {"kind": "pruning",
                                "records": AUTO_MIN_RECORDS,
                                "threshold": AUTO_MIN_RECORDS,
                                "resolved": 8}
        counters = obs.metrics.as_dict()["counters"]
        assert counters["runtime_autoshard_total"] == 1

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            resolve_auto_shards("pruning", records=10, requested="fast")


class TestSealingMatchesConnectedComponents:
    """The sealing accumulator's correctness property: for *any* shard
    completion order, the sealed components plus the untouched
    singletons equal :func:`connected_components` over the full edge
    set, and each sealed component carries exactly its surviving
    edges."""

    def test_random_graphs_under_random_finish_orders(self):
        for trial in range(25):
            rng = random.Random(trial)
            num_vertices = rng.randint(1, 40)
            vertices = list(range(num_vertices))
            num_shards = rng.randint(1, 6)
            edges = []
            if num_vertices >= 2:
                for _ in range(rng.randint(0, 60)):
                    a, b = rng.sample(vertices, 2)
                    edges.append((min(a, b), max(a, b),
                                  rng.randrange(num_shards)))
            touch = {}
            for a, b, shard in edges:
                touch[a] = touch.get(a, 0) | (1 << shard)
                touch[b] = touch.get(b, 0) | (1 << shard)
            tracker = IncrementalComponents(vertices, touch, num_shards)
            order = list(range(num_shards))
            rng.shuffle(order)
            sealed = []
            for shard in order:
                for a, b, home in edges:
                    if home == shard:
                        tracker.add_edge(a, b)
                sealed.extend(tracker.finish_shard(shard))
            assert tracker.all_sealed
            components = [members for members, _ in sealed]
            components.extend((vertex,) for vertex in vertices
                              if vertex not in tracker.touched)
            components.sort(key=lambda members: members[0])
            assert components == connected_components(
                vertices, [(a, b) for a, b, _ in edges]), trial
            for members, component_edges in sealed:
                member_set = set(members)
                expected = tuple(sorted(
                    {(a, b) for a, b, _ in edges if a in member_set}))
                assert component_edges == expected, trial

    def test_edge_into_sealed_component_raises(self):
        tracker = IncrementalComponents([0, 1, 2], {0: 1, 1: 1}, 2)
        tracker.add_edge(0, 1)
        assert tracker.finish_shard(0) == [((0, 1), ((0, 1),))]
        with pytest.raises(RuntimeError):
            tracker.add_edge(0, 1)

    def test_unknown_vertex_rejected(self):
        tracker = IncrementalComponents([0, 1], {0: 1, 1: 1}, 1)
        with pytest.raises(ValueError):
            tracker.add_edge(0, 5)

    def test_untouched_vertices_are_not_materialized(self):
        """Lazy admission: vertices without edges never enter the
        union-find — the caller reconstructs them as singletons."""
        tracker = IncrementalComponents(range(1000), {7: 1, 8: 1}, 1)
        tracker.add_edge(7, 8)
        tracker.finish_shard(0)
        assert set(tracker.touched) == {7, 8}
        assert tracker.all_sealed
