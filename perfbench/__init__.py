"""The repository benchmark: workloads, span tracing and expected outputs.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
