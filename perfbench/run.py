"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it is a JSON object ``{"perfbench": ...}`` with sample counts,
timing spreads, the output digest and, when traced, the layer shares
(``perfbench/compare.py`` reads both).  A traced run also writes its spans
to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The program is
imported from ``src/`` next to this directory; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    spans = (ROOT / ".perfbench"
             / f"spans-{workload.name}-seed{args.seed}.jsonl")
    result = harness.measure(workload, args.seed, args.seconds, trace,
                             spans_path=spans)
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    for name, value in result["metrics"].items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({"perfbench": result["detail"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
