"""Tests of the benchmark itself, on reduced-size copies of each workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, harness, run  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload shrunk to a few seconds; the execution path is unchanged.
SMALL = {
    "paper-dense": {"scale": 0.2, "permutations": 2},
    "restaurant-sparse": {"scale": 0.5},
    "largescale-barrier": {"scale": 0.2},
    "largescale-streamed": {"scale": 0.2},
}


def small(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **SMALL[name])


def test_spec_names_every_workload_and_metric_unit():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            == harness.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == harness.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_emits_every_metric_and_passes_the_check(name, trace):
    result = harness.measure(small(name), seed=3, seconds=0.01, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= harness.MIN_REPS[trace]
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace:
        assert result["detail"]["self_within_wall"]
    # No end-to-end metric and no timed layer metric reads a constant 0.
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        if not trace or metric["unit"] == "s":
            assert result["metrics"][metric["name"]] > 0, metric["name"]


def test_serial_runtime_layer_is_idle_and_streamed_uses_the_pool():
    serial = harness.measure(small("restaurant-sparse"), seed=3,
                             seconds=0.01, trace=True)["metrics"]
    streamed = harness.measure(small("largescale-streamed"), seed=3,
                               seconds=0.01, trace=True)["metrics"]
    assert serial["runtime.tasks"] == 0
    assert serial["runtime.share_pct"] == 0
    # In process, the proxy sees every pair the oracle sends to the crowd.
    assert serial["crowd.answer_calls"] == (
        serial["pc_pivot.pairs_issued"] + serial["pc_refine.pairs_issued"])
    assert serial["crowd.answers_memoized"] == 0
    assert streamed["runtime.tasks"] > 0
    assert streamed["runtime.share_pct"] > 0
    assert streamed["pruning.share_pct"] == 0
    # Workers fork the bare source; the parent replays their answers.
    assert streamed["crowd.answers_memoized"] > 0


def test_same_seed_reproduces_the_digest_and_another_changes_the_inputs():
    workload = small("paper-dense")
    first = harness.measure(workload, seed=5, seconds=0.01, trace=False)
    again = harness.measure(workload, seed=5, seconds=0.01, trace=False)
    other = harness.measure(workload, seed=6, seconds=0.01, trace=False)
    assert first["detail"]["digest"] == again["detail"]["digest"]
    assert first["detail"]["exact"] == again["detail"]["exact"]
    assert (set(harness.permutation_seeds(workload, 5))
            .isdisjoint(harness.permutation_seeds(workload, 6)))
    assert first["detail"]["digest"] != other["detail"]["digest"]


def test_run_prints_the_result_line(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "restaurant-sparse",
                        small("restaurant-sparse"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "restaurant-sparse", "--seed", "2",
                         "--seconds", "0.01", "--trace", "0"])
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"],
                          "unit": harness.END_TO_END_UNITS[name]}
    assert "perfbench" in json.loads(lines[-2])


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_excludes_children_and_crowd():
    recorder = SpanRecorder()
    with recorder.span("pipeline", 0):
        with recorder.span("pc_pivot", 0):
            recorder.charge_crowd(0.001, memoized=False)
            time.sleep(0.01)
    layers = recorder.layer_times(0)
    pivot, root = layers["pc_pivot"], layers["pipeline"]
    assert pivot["crowd_calls"] == 1
    assert pivot["self_s"] == pytest.approx(pivot["call_s"] - 0.001)
    assert root["self_s"] == pytest.approx(
        root["call_s"] - pivot["call_s"])


def _run_output(tmp_path, name, exact, wall):
    detail = {"workload": "w", "seed": 1, "trace": 0, "digest": "d",
              "exact": exact}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps({"perfbench": detail}) + "\n"
                    + json.dumps(result) + "\n")
    return compare.load(path)


def test_compare_gates_exact_counts_exactly_and_timings_by_bound(tmp_path):
    bounds = {"wall_s": (0.2, "lower"), "pairs_issued": (0.1, "lower")}
    old = _run_output(tmp_path, "old", {"pairs_issued": 100}, 1.0)
    assert compare.compare(old, old, bounds) == []
    slower = _run_output(tmp_path, "slow", {"pairs_issued": 100}, 1.1)
    assert compare.compare(old, slower, bounds) == []
    regressed = _run_output(tmp_path, "bad", {"pairs_issued": 100}, 1.5)
    assert [f.split(":")[0] for f in compare.compare(old, regressed, bounds)] \
        == ["wall_s"]
    changed = _run_output(tmp_path, "new", {"pairs_issued": 101}, 1.0)
    assert [f.split(":")[0] for f in compare.compare(old, changed, bounds)] \
        == ["pairs_issued"]
