"""End-to-end benchmark with per-layer attribution (see README.md).

``python3 benchmarks/e2e/run.py --workload <name> --seed <n>`` runs one
workload; ``python -m benchmarks.e2e`` is the same command.
"""
