"""Seeded workloads that measure morpheusnet end to end and layer by layer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``python3 -m pytest
perfbench`` runs the benchmark's own self-tests.
"""
