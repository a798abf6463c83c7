"""The repository benchmark: cold single-process workloads, timed end to end.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) and prints one JSON
line.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the program's layer entry points from outside
(:mod:`perfbench.spans`) and reports per-layer self times and counters.
"""
