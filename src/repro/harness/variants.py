"""The MinixLLD variants of Table 1.

+---------------+----------------------------------------------------+
| ``old``       | The original MinixLLD: LLD with sequential ARUs,   |
|               | and Minix not using ARUs at all (the paper: "The   |
|               | new version ... differs from the original version  |
|               | in that directory and file creation and deletion   |
|               | are bracketed by BeginARU and EndARU").            |
+---------------+----------------------------------------------------+
| ``new``       | LLD with concurrent ARUs; every file/directory     |
|               | create and every delete runs in its own ARU;       |
|               | per-block file deletion (predecessor searches).    |
+---------------+----------------------------------------------------+
| ``new_delete``| As ``new`` but with the improved deletion policy:  |
|               | delete the file's list outright, popping blocks    |
|               | from the head (Section 5.3).                       |
+---------------+----------------------------------------------------+
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.disk.clock import CostModel
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import DiskModel, HP_C3010
from repro.fs.filesystem import MinixFS
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


@dataclasses.dataclass(frozen=True)
class Variant:
    """One MinixLLD configuration from Table 1."""

    name: str
    description: str
    aru_mode: str
    fs_uses_arus: bool
    delete_policy: str


VARIANTS: Dict[str, Variant] = {
    "old": Variant(
        name="old",
        description="The original version of MinixLLD (with sequential ARUs).",
        aru_mode="sequential",
        fs_uses_arus=False,
        delete_policy="per_block",
    ),
    "new": Variant(
        name="new",
        description="The new version of MinixLLD (with concurrent ARUs).",
        aru_mode="concurrent",
        fs_uses_arus=True,
        delete_policy="per_block",
    ),
    "new_delete": Variant(
        name="new_delete",
        description=(
            "The new version of MinixLLD with improved file deletion "
            "in Minix."
        ),
        aru_mode="concurrent",
        fs_uses_arus=True,
        delete_policy="whole_list",
    ),
}


def paper_geometry(scale: float = 1.0) -> DiskGeometry:
    """The paper's 400 MB partition, optionally scaled down.

    ``scale=1.0`` gives 800 x 0.5 MB segments of 4 KB blocks;
    ``scale=0.1`` gives an 80-segment partition with the same segment
    and block sizes (so per-segment behaviour is unchanged).
    """
    num_segments = max(16, int(round(800 * scale)))
    return DiskGeometry(
        block_size=4096, segment_size=512 * 1024, num_segments=num_segments
    )


def build_variant(
    variant: Variant,
    geometry: Optional[DiskGeometry] = None,
    n_inodes: int = 4096,
    cost_model: Optional[CostModel] = None,
    disk_model: DiskModel = HP_C3010,
    config: Optional[LLDConfig] = None,
) -> Tuple[SimulatedDisk, LLD, MinixFS]:
    """Build (disk, ld, fs) for one Table 1 variant.

    Knobs come in ``config``; the variant's ARU mode always wins.
    """
    geo = geometry if geometry is not None else paper_geometry(0.25)
    cfg = (config or LLDConfig()).replace(aru_mode=variant.aru_mode)
    disk = SimulatedDisk(geo, model=disk_model)
    ld = LLD(disk, cost_model=cost_model, config=cfg)
    fs = MinixFS.mkfs(
        ld,
        n_inodes=n_inodes,
        delete_policy=variant.delete_policy,
        use_arus=variant.fs_uses_arus,
    )
    return disk, ld, fs
