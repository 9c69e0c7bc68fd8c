"""``shards="auto"``: the tier heuristic of :mod:`repro.runtime.autoshard`
resolves by record count, passes explicit integers through, and makes
each resolution observable."""

import pytest

from repro.obs import ObsContext
from repro.runtime.autoshard import (
    AUTO_MIN_RECORDS,
    resolve_auto_shards,
)


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
