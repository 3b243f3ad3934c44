"""``recover``: the one entry point for crash recovery.

Pass **one** disk image and you get a recovered
:class:`~repro.lld.lld.LLD`; pass a **sequence** of member images
(in shard order, ``None`` for a lost member) and you get a
reassembled :class:`~repro.shard.sharded.ShardedLLD`, degraded around
any lost members when the array is replicated.

The two report types share a surface — ``mode``, ``shards``,
``dead_shards``, ``recovery_time_us``, ``ttfr_us``, ``parallel_us``,
``serial_us``, ``wall_seconds``, and the xid-resolution fields — so
callers can log either without caring which shape came back.

``repro.lld.recovery.recover`` is the per-volume implementation
(this function *is* it for a single image, with identical arguments
and results).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.disk.clock import CostModel
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.lld.recovery import recover as _recover_volume
from repro.shard.config import ArrayConfig
from repro.shard.recovery import _recover_sharded


def recover(
    image_or_images: Union[
        SimulatedDisk, Sequence[Optional[SimulatedDisk]]
    ],
    *,
    mode: Optional[str] = None,
    config: Optional[LLDConfig] = None,
    array_config: Optional[ArrayConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[object, object]:
    """Recover a volume — single or sharded — from crashed media.

    Args:
        image_or_images: One :class:`SimulatedDisk` (single volume)
            or a sequence of member disks in shard order (sharded
            array; a ``None`` entry is a lost member the replicated
            array assembles around).
        mode: What happens before the call returns.  Both modes
            scan the summaries and open the volume the same way;
            ``"eager"`` (default) then replays everything and audits
            the replayed segments' data, ``"instant"`` returns at
            once and replays on demand (see docs/RECOVERY.md).
        config: Per-volume :class:`~repro.lld.config.LLDConfig`,
            applied to every member alike.
        array_config: Array-level :class:`ArrayConfig` (the
            replication factor).  Only meaningful for a sequence of
            images; rejected for a single one.
        cost_model: CPU cost model of every recovered volume.

    No thread is started: an array's members recover one after
    another on the calling thread.

    Returns:
        ``(volume, report)`` — :class:`~repro.lld.lld.LLD` +
        :class:`~repro.lld.recovery.RecoveryReport` for one image,
        :class:`~repro.shard.sharded.ShardedLLD` +
        :class:`~repro.shard.recovery.ShardRecoveryReport` for a
        sequence; both reports expose the shared surface above.
    """
    if isinstance(image_or_images, SimulatedDisk):
        if array_config is not None and array_config != ArrayConfig():
            raise ValueError(
                "array_config applies to a sharded array; a single "
                "disk image recovers as a single volume"
            )
        return _recover_volume(
            image_or_images,
            mode=mode,
            config=config,
            cost_model=cost_model,
        )
    images = list(image_or_images)
    if any(
        image is not None and not isinstance(image, SimulatedDisk)
        for image in images
    ):
        raise TypeError(
            "recover takes one SimulatedDisk or a sequence of them "
            "(None for a lost member)"
        )
    return _recover_sharded(
        images,
        array_config=array_config,
        mode=mode,
        config=config,
        cost_model=cost_model,
    )
