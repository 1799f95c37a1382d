"""The repository benchmark: workloads, tracing and output checks.

Run it from the repository root::

    python3 perfbench/run.py --workload downlink-ber --seed 0 --seconds 30 --trace 0

``BENCHMARK.json`` at the root names the workloads and metrics.  The
harness's own tests run with ``python3 -m pytest perfbench/tests -q``.
"""
