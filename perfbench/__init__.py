"""The repository benchmark: corpus, fleet serving and weak-label training.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and output format.
"""
