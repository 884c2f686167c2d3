"""The enritch benchmark: workloads, correctness gates and tracing.

Run it with ``python3 perfbench/run.py``; ``BENCHMARK.json`` at the
checkout root lists its workloads and metrics.
"""
