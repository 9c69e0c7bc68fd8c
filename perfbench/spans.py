"""The benchmark's own tracing: spans around layer calls and a crowd proxy.

Nothing here reaches inside ``src/``.  :class:`SpanRecorder` times the
benchmark's calls into each layer; :class:`CrowdProxy` wraps the answer
source handed to in-process workloads and charges every answer request to
the span that is open when it arrives, so the crowd layer is measured
without a span per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List


class SpanRecorder:
    """An in-memory span tree: name, start, end, parent and run id.

    Spans are kept in memory while the benchmark runs and written out
    once at the end (:meth:`write`), so the recorder does no I/O inside
    a measured region.
    """

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._open: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, run: int) -> Iterator[Dict[str, object]]:
        parent = self._open[-1]["id"] if self._open else None
        record = {"id": len(self.spans), "name": name, "run": run,
                  "parent": parent, "start": time.perf_counter(),
                  "end": None, "crowd_calls": 0, "crowd_memoized": 0,
                  "crowd_s": 0.0}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def charge_crowd(self, seconds: float, memoized: bool) -> None:
        """Add one answer request to the innermost open span."""
        if not self._open:
            return
        record = self._open[-1]
        record["crowd_calls"] += 1
        record["crowd_memoized"] += int(memoized)
        record["crowd_s"] += seconds

    def layer_times(self, run: int) -> Dict[str, Dict[str, float]]:
        """Per span name of one run: total and self seconds plus crowd work.

        A span's self time is its duration minus the time its child spans
        and its aggregated crowd calls cover (children run one after
        another, never overlapping).
        """
        spans = [s for s in self.spans if s["run"] == run]
        child_s: Dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        layers: Dict[str, Dict[str, float]] = {}
        for s in spans:
            total = s["end"] - s["start"]
            entry = layers.setdefault(s["name"], {
                "call_s": 0.0, "self_s": 0.0, "crowd_s": 0.0,
                "crowd_calls": 0, "crowd_memoized": 0})
            entry["call_s"] += total
            entry["self_s"] += total - child_s.get(s["id"], 0.0) - s["crowd_s"]
            entry["crowd_s"] += s["crowd_s"]
            entry["crowd_calls"] += s["crowd_calls"]
            entry["crowd_memoized"] += s["crowd_memoized"]
        return layers

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class CrowdProxy:
    """Answer source wrapper that measures the crowd layer.

    Counts ``confidence`` and ``prefetch`` calls, the time spent in them
    and how many were served from the wrapped source's memo, charging
    them to the recorder's open span.  ``pair_deterministic``,
    ``num_workers`` and ``prime`` pass through, so engines that check or
    prime their source see the wrapped one.  It deliberately has no
    ``confidence_batch``: the oracle must take the same per-pair path it
    takes with the bare source.
    """

    def __init__(self, inner, recorder: SpanRecorder):
        self._inner = inner
        self._recorder = recorder
        self.pair_deterministic = getattr(inner, "pair_deterministic", False)

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    @property
    def fork_source(self):
        """What worker processes read: the bare source, so only the
        calls made in this process are measured."""
        return self._inner

    def confidence(self, record_a: int, record_b: int) -> float:
        known = len(self._inner)
        start = time.perf_counter()
        value = self._inner.confidence(record_a, record_b)
        self._recorder.charge_crowd(time.perf_counter() - start,
                                    len(self._inner) == known)
        return value

    def prefetch(self, pairs) -> None:
        known = len(self._inner)
        start = time.perf_counter()
        self._inner.prefetch(pairs)
        self._recorder.charge_crowd(time.perf_counter() - start,
                                    len(self._inner) == known)

    def prime(self, answers) -> None:
        self._inner.prime(answers)

