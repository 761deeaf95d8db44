"""The repository benchmark: four user paths, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md``.
"""
