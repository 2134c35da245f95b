"""End-to-end and per-layer benchmark of the quantization stack.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>``; ``perfbench/README.md`` describes the
workloads, metrics and how the per-layer numbers relate to them.
"""
