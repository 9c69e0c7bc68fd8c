"""Sharded PC-Refine: cross-configuration byte-identity and wiring.

The identity contract (see ``repro/core/refine_shard.py``): every
``{shards, processes}`` configuration of the sharded engine produces a
byte-identical clustering, crowd-stats, and diagnostics — the shard
layout is a pure execution detail.  Parity with the *classic* fast
engine is empirical, not guaranteed; it holds on the paper's three
datasets and is asserted for them here.
"""

import tempfile
from pathlib import Path

import pytest

from repro.core.acd import run_acd
from repro.core.pc_pivot import pc_pivot
from repro.core.pc_refine import PCRefineDiagnostics, pc_refine
from repro.crowd.oracle import CrowdOracle
from repro.experiments.runner import prepare_instance
from repro.runtime.checkpoint import CheckpointStore

SEED = 3


def _instance(name="largescale", scale=0.2, seed=0, **kwargs):
    return prepare_instance(name, "3w", scale=scale, seed=seed, **kwargs)


def _refined(instance, shards=0, processes=0, seed=SEED):
    oracle = CrowdOracle(instance.answers)
    clustering = pc_pivot(instance.record_ids, instance.candidates, oracle,
                          seed=seed)
    diagnostics = PCRefineDiagnostics()
    clustering = pc_refine(
        clustering, instance.candidates, oracle,
        num_records=len(instance.record_ids), diagnostics=diagnostics,
        shards=shards, processes=processes,
    )
    return {
        "clustering": clustering.to_state(),
        "stats": oracle.stats.snapshot(),
        "batches": list(oracle.stats.batch_sizes),
        "rounds": diagnostics.rounds,
        "batch_sizes": diagnostics.batch_sizes,
        "packed": diagnostics.operations_packed,
        "applied": diagnostics.operations_applied,
        "free": diagnostics.free_operations_applied,
        "evaluations": diagnostics.operation_evaluations,
        "cache": diagnostics.evaluation_cache,
    }


class TestCrossConfigIdentity:
    def test_every_shard_count_is_byte_identical(self):
        reference = _refined(_instance(), shards=1)
        for shards in (2, 5, 9, 64):
            assert _refined(_instance(), shards=shards) == reference, shards

    def test_identity_survives_a_confused_population(self):
        # The confusion knob gives refinement real over/under-merge work
        # (multi-round components), so this exercises packed rounds and
        # the histogram-evolution path, not just the free pass.
        from repro.crowd.cache import AnswerFile
        from repro.crowd.worker import WorkerPool
        from repro.datasets.registry import generate
        from repro.experiments.configs import (
            PRUNING_THRESHOLD,
            difficulty_model,
        )
        from repro.pruning.candidate import build_candidate_set
        from repro.similarity.composite import jaccard_similarity_function

        dataset = generate("largescale", scale=0.3, seed=0, confusion=0.25)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD,
        )
        workers = WorkerPool(difficulty=difficulty_model("largescale"),
                             num_workers=3)

        def run(shards):
            oracle = CrowdOracle(AnswerFile(dataset.gold, workers))
            clustering = pc_pivot(dataset.record_ids, candidates, oracle,
                                  seed=SEED)
            diagnostics = PCRefineDiagnostics()
            clustering = pc_refine(
                clustering, candidates, oracle,
                num_records=len(dataset.records), diagnostics=diagnostics,
                shards=shards,
            )
            return (clustering.to_state(), oracle.stats.snapshot(),
                    diagnostics.rounds, diagnostics.batch_sizes,
                    diagnostics.operations_applied)

        reference = run(1)
        assert reference[2] >= 1
        for shards in (3, 8):
            assert run(shards) == reference, shards

    def test_sharded_ids_are_canonical(self):
        state = _refined(_instance(), shards=4)["clustering"]
        clusters = sorted(state["clusters"], key=lambda entry: entry[0])
        ids = [cid for cid, _ in clusters]
        assert ids == list(range(len(ids)))
        smallest = [min(members) for _, members in clusters]
        assert smallest == sorted(smallest)
        assert state["next_id"] == len(ids)


class TestClassicParity:
    @pytest.mark.parametrize("name,scale", [
        ("paper", 0.3), ("restaurant", 0.5), ("product", 0.15),
    ])
    def test_sharded_matches_classic_on_paper_datasets(self, name, scale):
        classic = _refined(_instance(name, scale=scale))
        sharded = _refined(_instance(name, scale=scale), shards=4)
        assert sharded["clustering"] == classic["clustering"]
        assert sharded["stats"] == classic["stats"]


class TestValidation:
    def _setup(self, **kwargs):
        instance = _instance(scale=0.05)
        oracle = CrowdOracle(instance.answers)
        clustering = pc_pivot(instance.record_ids, instance.candidates,
                              oracle, seed=SEED)
        return clustering, instance.candidates, oracle, instance

    def test_negative_shards_rejected(self):
        clustering, candidates, oracle, instance = self._setup()
        with pytest.raises(ValueError, match="shards must be >= 0"):
            pc_refine(clustering, candidates, oracle,
                      num_records=len(instance.record_ids), shards=-1)

    def test_processes_without_shards_rejected(self):
        clustering, candidates, oracle, instance = self._setup()
        with pytest.raises(ValueError, match="require refine shards"):
            pc_refine(clustering, candidates, oracle,
                      num_records=len(instance.record_ids), processes=2)

    def test_max_refinement_pairs_rejected(self):
        clustering, candidates, oracle, instance = self._setup()
        with pytest.raises(ValueError, match="max_refinement_pairs"):
            pc_refine(clustering, candidates, oracle,
                      num_records=len(instance.record_ids), shards=2,
                      max_refinement_pairs=50)

    def test_non_pair_deterministic_source_rejected(self):
        clustering, candidates, oracle, instance = self._setup()

        class Opaque:
            num_workers = 3

            def confidence(self, a, b):  # pragma: no cover - never reached
                return 1.0

        with pytest.raises(ValueError, match="pair-deterministic"):
            pc_refine(clustering, candidates, CrowdOracle(Opaque()),
                      num_records=len(instance.record_ids), shards=2)


class TestRunAcdWiring:
    def test_sharded_run_acd_matches_classic(self):
        def acd(refine_shards=0):
            instance = _instance(scale=0.1)
            return run_acd(instance.record_ids, instance.candidates,
                           instance.answers, seed=7, parallel=True,
                           refine_shards=refine_shards)

        classic = acd()
        sharded = acd(refine_shards=4)
        assert (sharded.clustering.to_state()
                == classic.clustering.to_state())
        assert sharded.stats.snapshot() == classic.stats.snapshot()
        assert sharded.refinement_stats == classic.refinement_stats

    def test_refine_shards_require_parallel(self):
        instance = _instance(scale=0.05)
        with pytest.raises(ValueError, match="parallel=True"):
            run_acd(instance.record_ids, instance.candidates,
                    instance.answers, seed=7, parallel=False,
                    refine_shards=2)

    def test_refine_shards_reject_pair_cap(self):
        instance = _instance(scale=0.05)
        with pytest.raises(ValueError, match="max_refinement_pairs"):
            run_acd(instance.record_ids, instance.candidates,
                    instance.answers, seed=7, parallel=True,
                    refine_shards=2, max_refinement_pairs=10)

    @pytest.mark.parametrize("phase", ("pivot", "refine"))
    def test_processes_without_shards_fail_before_any_crowd_work(self,
                                                                  phase):
        """Worker processes with zero shards are a config error that
        run_acd reports before generation asks the crowd anything."""
        instance = _instance(scale=0.05)

        class Refusing:
            num_workers = 3

            def confidence(self, a, b):
                raise AssertionError(f"crowdsourced ({a}, {b}) first")

        with pytest.raises(ValueError,
                           match=f"{phase} processes require {phase} shards"):
            run_acd(instance.record_ids, instance.candidates, Refusing(),
                    seed=7, **{f"{phase}_processes": 2})

    @pytest.mark.parametrize("knob, config", [
        ("refine_shards", dict(max_refinement_pairs=50)),
        ("pivot_shards", dict(parallel=False)),
        ("refine_shards", dict(parallel=False)),
    ])
    def test_auto_shards_fall_back_where_explicit_counts_fail(self, knob,
                                                              config):
        """``"auto"`` is not an explicit shard request: where an explicit
        count fails fast, run_acd runs the classic loop, as the phase
        functions do."""
        def acd(shards):
            instance = _instance("restaurant", scale=0.1)
            return run_acd(instance.record_ids, instance.candidates,
                           instance.answers, seed=7, **{knob: shards},
                           **config)

        auto, classic = acd("auto"), acd(0)
        assert auto.clustering.to_state() == classic.clustering.to_state()
        assert auto.stats.snapshot() == classic.stats.snapshot()


class TestRefinementCheckpoint:
    def test_refinement_checkpoint_roundtrip_is_byte_identical(self):
        config = {"dataset": "largescale", "scale": 0.1, "seed": 0}

        def acd(instance, checkpoints=None, resume=False):
            return run_acd(instance.record_ids, instance.candidates,
                           instance.answers, seed=7, parallel=True,
                           refine_shards=3, checkpoints=checkpoints,
                           resume=resume)

        uninterrupted = acd(_instance(scale=0.1))
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp), config=config)
            acd(_instance(scale=0.1), checkpoints=store)
            assert store.load("refinement") is not None

            class Refusing:
                pair_deterministic = True
                num_workers = 3

                def confidence(self, a, b):
                    raise AssertionError(
                        f"restored refinement re-crowdsourced ({a}, {b})"
                    )

            resumed_store = CheckpointStore(Path(tmp), config=config)
            instance = _instance(scale=0.1)
            import dataclasses
            instance = dataclasses.replace(instance, answers=Refusing())
            resumed = acd(instance, checkpoints=resumed_store, resume=True)

        assert (resumed.clustering.to_state()
                == uninterrupted.clustering.to_state())
        assert resumed.stats.snapshot() == uninterrupted.stats.snapshot()
        assert resumed.stats.batch_sizes == uninterrupted.stats.batch_sizes
        assert str(resumed.refinement_stats) == str(
            uninterrupted.refinement_stats)


class TestCliWiring:
    def test_cli_exposes_refine_shard_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "restaurant", "--refine-shards", "4",
             "--refine-processes", "2"])
        assert args.refine_shards == 4
        assert args.refine_processes == 2

    def test_cli_defaults_keep_classic_path(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "restaurant"])
        assert args.refine_shards == 0
        assert args.refine_processes == 0
