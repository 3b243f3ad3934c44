"""Internal consistency verification for a live JLD instance.

The JLD analogue of :mod:`repro.lld.verify`.  JLD's version tables
are the engine's, so they are checked by the same code as LLD's
(tables, the mesh of alternative records, every list view); what is
JLD's own is checked here: the homes, their free list and the
pending-redo map.  Returns a list of violations (empty = sound).
"""

from __future__ import annotations

from typing import List, Set

from repro.jld.jld import _committed_view
from repro.ld.types import PhysAddr
from repro.lld.verify import _verify_versions


def verify_jld(jld) -> List[str]:
    """Return a list of invariant violations (empty when sound)."""
    problems = _verify_versions(jld.engine)
    problems += _verify_homes(jld)
    problems += _verify_pending(jld)
    return problems


def _verify_homes(jld) -> List[str]:
    problems: List[str] = []
    homes = jld.homes
    allocated = set()
    for block_id in jld.bmap.ids():
        view = _committed_view(jld.bmap, block_id)
        if view is not None and view.allocated:
            allocated.add(block_id)
    if allocated != homes.keys():
        problems.append(
            f"homes kept for deallocated blocks {sorted(homes.keys() - allocated)}"
            f", missing for allocated {sorted(allocated - homes.keys())}"
        )
    used: dict = {}
    for block_id, home in homes.items():
        if home.segment < jld.home_base:
            problems.append(f"block {block_id}: home {home} inside the journal or "
                            "checkpoint region")
        if home in used:
            problems.append(f"blocks {used[home]} and {block_id} share home {home}")
        used[home] = block_id
    free: Set[PhysAddr] = set(jld._home_free)
    if len(free) != len(jld._home_free):
        problems.append("duplicate entries on the home free list")
    overlap = free & set(used)
    if overlap:
        problems.append(f"{len(overlap)} home slots are both free and allocated "
                        f"(e.g. {next(iter(overlap))})")
    return problems


def _verify_pending(jld) -> List[str]:
    problems: List[str] = []
    known = jld._commit_on_disk | jld._pending_commit_arus
    for block_id, (_data, origin) in jld.pending.items():
        if block_id not in jld.homes:
            problems.append(f"pending redo for unallocated block {block_id}")
        if origin and origin not in known:
            problems.append(
                f"pending redo for block {block_id} tagged with unknown ARU {origin}"
            )
    return problems
