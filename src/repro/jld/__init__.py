"""JLD: a journaling, overwrite-in-place Logical Disk.

The paper's conclusion (Section 5.4) predicts that non-log-structured
LD implementations "will have to utilize at least a meta-data update
log to achieve similar performance and to fully support multiple
shadow states."  This package is that other substrate: blocks live at
fixed *home locations* updated in place, behind a write-ahead **redo
journal**.  Its ARUs are LLD's version engine, so the Minix file
system and the transaction layer run on it unchanged, and
``benchmarks/bench_ablation_substrate.py`` compares the substrates
alone: LLD's sequential writes against JLD's read locality.
"""

from repro.jld.jld import JLD, JournalFullError, recover_jld

__all__ = ["JLD", "JournalFullError", "recover_jld"]
