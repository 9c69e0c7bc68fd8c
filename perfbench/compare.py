"""Compare two benchmark runs of the same workload, seed and trace mode.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 24 > old.txt
    # ... change the program ...
    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 24 > new.txt
    python3 perfbench/compare.py old.txt new.txt

Deterministic metrics (the ``exact`` block of the ``{"perfbench": ...}``
line: pairs issued, crowd iterations, cost, crowd hours, F1, candidate
pairs, refine evaluations and cache counts) and the output digest must be
identical: any change is a change to what the program computes.  Timed
metrics are flagged only when NEW is worse than OLD by more than the
metric's bound in ``BENCHMARK.json``.  Exit status 1 when anything is
flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> Tuple[Dict, Dict]:
    """The result line and the ``perfbench`` detail line of one run."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench"]
    return result, detail


def compare(old: Tuple[Dict, Dict], new: Tuple[Dict, Dict],
            bounds: Dict[str, Tuple[float, str]]) -> List[str]:
    """Findings that make NEW differ from OLD beyond what is allowed."""
    (old_result, old_detail), (new_result, new_detail) = old, new
    for key in ("workload", "seed", "trace"):
        if old_detail[key] != new_detail[key]:
            raise ValueError(f"runs differ in {key}: {old_detail[key]!r} "
                             f"vs {new_detail[key]!r}")
    findings = []
    if old_detail["digest"] != new_detail["digest"]:
        findings.append("output digest changed: the clustering, candidate "
                        "set or crowd counters differ")
    for name, value in old_detail["exact"].items():
        if new_detail["exact"].get(name) != value:
            findings.append(f"{name}: {value} -> "
                            f"{new_detail['exact'].get(name)} (exact count "
                            "changed)")
    for name, (bound, better) in bounds.items():
        if name in old_detail["exact"] or name not in old_result["metrics"]:
            continue
        before = old_result["metrics"][name]["value"]
        after = new_result["metrics"].get(name, {}).get("value")
        if after is None:
            findings.append(f"{name}: missing from NEW")
            continue
        worse = after - before if better == "lower" else before - after
        if worse > bound * abs(before):
            findings.append(f"{name}: {before:.6g} -> {after:.6g} is worse "
                            f"than its {bound:.0%} bound")
    return findings


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    try:
        findings = compare(load(Path(args[0])), load(Path(args[1])), bounds)
    except (OSError, ValueError, KeyError, IndexError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if not findings:
        print("no change beyond the bounds; exact counts identical")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
