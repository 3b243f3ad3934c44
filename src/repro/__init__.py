"""repro — Atomic Recovery Units for Logical Disks (ICDCS 1996).

A faithful reproduction of Grimm, Hsieh, Kaashoek and de Jonge,
*"Atomic Recovery Units: Failure Atomicity for Logical Disks"*:

* :mod:`repro.ld` — the Logical Disk interface (blocks, lists, ARUs),
* :mod:`repro.lld` — the log-structured LD with concurrent ARUs
  ("new") and the sequential baseline ("old"), plus crash recovery
  and a segment cleaner,
* :mod:`repro.core` — the shadow/committed/persistent version
  machinery and the list-operation log,
* :mod:`repro.disk` — the simulated disk, clock and cost models that
  substitute for the paper's SPARC-5 + HP C3010 testbed,
* :mod:`repro.fs` — a Minix-style file system client whose create
  and delete paths run inside ARUs (MinixLLD),
* :mod:`repro.txn` — durable, isolated transactions layered on ARUs,
* :mod:`repro.workloads` / :mod:`repro.harness` — the paper's
  benchmarks and the experiment harness.

Quickstart::

    from repro import make_system

    sys = make_system(num_segments=64)
    ld = sys.ld
    aru = ld.begin_aru()
    lst = ld.new_list(aru=aru)
    blk = ld.new_block(lst, aru=aru)
    ld.write(blk, b"hello, failure atomicity", aru=aru)
    ld.end_aru(aru)
    ld.flush()
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.visibility import Visibility
from repro.disk.clock import CostModel, SimClock
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import DiskModel, HP_C3010
from repro.errors import LDError
from repro.ld.interface import LogicalDisk
from repro.ld.types import ARUId, BlockId, FIRST, ListId
from repro.jld.jld import JLD, recover_jld
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import RecoveryReport
from repro.recovery import recover
from repro.shard.config import ArrayConfig
from repro.shard.recovery import ShardRecoveryReport

__version__ = "1.0.0"

__all__ = [
    "ARUId",
    "ArrayConfig",
    "BlockId",
    "CostModel",
    "DiskGeometry",
    "DiskModel",
    "FIRST",
    "HP_C3010",
    "JLD",
    "LDError",
    "LLD",
    "LLDConfig",
    "ListId",
    "LogicalDisk",
    "RecoveryReport",
    "ShardRecoveryReport",
    "SimClock",
    "SimulatedDisk",
    "System",
    "Visibility",
    "make_system",
    "recover",
    "recover_jld",
]


@dataclasses.dataclass
class System:
    """A bundled simulated machine: disk + logical disk."""

    disk: SimulatedDisk
    ld: LogicalDisk

    @property
    def clock(self) -> SimClock:
        """The shared simulated clock."""
        return self.disk.clock


def make_system(
    num_segments: int = 128,
    block_size: int = 4096,
    segment_size: Optional[int] = None,
    substrate: str = "lld",
    cost_model: Optional[CostModel] = None,
    disk_model: DiskModel = HP_C3010,
    config: Optional[LLDConfig] = None,
) -> System:
    """Build a ready-to-use simulated disk + logical-disk pair.

    The defaults give a small, fast log-structured system for
    experimentation; pass ``num_segments=800, segment_size=512 * 1024``
    for the paper's 400 MB partition, or ``substrate="jld"`` for the
    journaling implementation (concurrent-only; of ``config`` it takes
    the knobs it shares with LLD: ``visibility``, ``cache_blocks``).
    """
    geometry = DiskGeometry(
        block_size=block_size,
        segment_size=segment_size if segment_size is not None else 32 * block_size,
        num_segments=num_segments,
    )
    disk = SimulatedDisk(geometry, model=disk_model)
    cfg = config or LLDConfig()
    if substrate == "lld":
        ld: LogicalDisk = LLD(disk, cost_model=cost_model, config=cfg)
    elif substrate == "jld":
        if cfg.aru_mode != "concurrent":
            raise ValueError("JLD supports only concurrent ARUs")
        ld = JLD(
            disk,
            cost_model=cost_model,
            visibility=cfg.visibility,
            cache_blocks=cfg.cache_blocks,
        )
    else:
        raise ValueError(f"unknown substrate {substrate!r}")
    return System(disk=disk, ld=ld)
