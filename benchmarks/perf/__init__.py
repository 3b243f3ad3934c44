"""The repository's one repeatable performance benchmark.

Seven fixed-work, seeded workloads measured strictly from outside the
stack, in both clocks, with one correctness oracle and a traced pass
for the per-layer numbers.  See ``README.md`` in this directory.
"""
