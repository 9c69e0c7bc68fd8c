"""The repository benchmark: ACD workloads driven through the public API.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
