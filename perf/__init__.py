"""The repository benchmark: workloads, host-time probes and comparison.

Run it with ``python3 perf/run.py``; see ``perf/README.md``.
"""
