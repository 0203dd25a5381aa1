"""Closed-loop benchmark of the latticediss package.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  The modules here import nothing from
``latticediss``: inputs are generated and outputs are checked with the
benchmark's own code, so a change to the package cannot shift either.
"""
