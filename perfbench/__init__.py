"""The repository benchmark: Table III networks compiled, served and batched.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
