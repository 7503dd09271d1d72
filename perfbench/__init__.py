"""The repository benchmark: the Table IV sweep, the detector bank and
HTTP fleet serving, measured end to end and layer by layer.

Run it as ``python3 perfbench/run.py --workload <sweep|bank|serve>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
