"""``run_pipeline``: sharded pruning, then barrier ``run_acd``.

The entry point is a composition, so its contract is byte-identity with
the barrier engines at any shard count and worker count, plus a
truthful :class:`~repro.runtime.supervisor.RuntimeReport`: the sum over
every supervised pool the run started.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.core.acd import run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.pruning.candidate import build_candidate_set
from repro.runtime.pipeline import run_pipeline
from repro.runtime.supervisor import RuntimeReport, SupervisedPool
from repro.similarity.composite import jaccard_similarity_function

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sharded phases' worker pools require the 'fork' start "
           "method",
)

SEED = 3

# The confused population gives every phase real crowd work: surviving
# inter-cluster edges (pivot rounds), over- and under-merges (refine
# operations), and multi-member components.
_DATASET = generate("largescale", scale=0.2, seed=0, confusion=0.25)
_WORKERS = WorkerPool(difficulty=difficulty_model("largescale"),
                      num_workers=3)


def _answers():
    # AnswerFile resolves each pair from a pair-seeded RNG, so a fresh
    # instance per run replays identical answers.
    return AnswerFile(_DATASET.gold, _WORKERS)


def _core(candidates, result):
    return {
        "pairs": candidates.pairs,
        "scores": tuple(sorted(candidates.machine_scores.items())),
        "threshold": candidates.threshold,
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "generation_stats": result.generation_stats,
        "refinement_stats": result.refinement_stats,
    }


def _pipelined(workers):
    return run_pipeline(_answers(), records=_DATASET.records,
                        similarity=jaccard_similarity_function(),
                        threshold=PRUNING_THRESHOLD, workers=workers,
                        seed=SEED)


class TestBarrierParity:
    def test_pipeline_matches_barrier_across_configs(self):
        """run_pipeline equals build_candidate_set + sharded run_acd at
        other shard and worker counts: candidates, clustering with ids,
        stats and batch sizes."""
        candidates = build_candidate_set(
            _DATASET.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD, shards=4,
        )
        barrier = run_acd(
            _DATASET.record_ids, candidates, _answers(), seed=SEED,
            pivot_shards=8, pivot_processes=2,
            refine_shards=8, refine_processes=2,
        )
        expected = _core(candidates, barrier)
        for workers in (0, 2):
            piped = _pipelined(workers)
            assert _core(piped.candidates, piped.result) == expected, workers


class TestRuntimeReport:
    def test_report_sums_every_pool(self, monkeypatch):
        """report is the sum of the pruning, pivot and refine pools'
        reports, and counts real tasks."""
        reports = []
        close = SupervisedPool.close

        def recording_close(pool):
            reports.append(pool.report)
            close(pool)

        monkeypatch.setattr(SupervisedPool, "close", recording_close)
        piped = _pipelined(2)
        assert len(reports) == 3
        total = RuntimeReport()
        for report in reports:
            total.add(report)
        assert piped.report == total
        assert piped.report.tasks > 0


class TestCheckpointKillResume:
    def test_resume_under_different_pipeline_config_fails_fast(
            self, capsys, tmp_path):
        """A checkpoint written when ``repro run`` still had --pipeline
        records the pipeline keys.  Resuming it fails fast naming them:
        the executor is gone, and no shim translates old checkpoints."""
        directory = tmp_path / "ck"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(directory)]) == 0
        path = directory / "pruning.checkpoint.json"
        document = json.loads(path.read_text())
        document["config"].update(pipeline=False, pipeline_workers=0)
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit,
                           match="differs on: pipeline, pipeline_workers"):
            main(["run", "restaurant", "--scale", "0.05",
                  "--checkpoint-dir", str(directory), "--resume"])
