"""`ArrayConfig`: every knob of a sharded array, in one frozen place.

The array-level counterpart of :class:`~repro.lld.config.LLDConfig`:
the replication factor lives here (per-volume knobs stay in
``LLDConfig``), with the same contract — an unknown knob is
the constructor's ``TypeError``, a bad value raises ``ValueError`` at
construction, never deep inside a write path.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ArrayConfig:
    """Configuration of a :class:`~repro.shard.sharded.ShardedLLD`.

    Attributes:
        replication_factor: Copies of every block and list across the
            array, the home copy included.  1 (the default) is plain
            striping with no redundancy.  With factor k, each entity
            homed on shard *s* is mirrored on the next k-1 ring peers
            ``(s + 1) % n .. (s + k - 1) % n``, and the array
            tolerates the loss of any ``k - 1`` shards with no
            committed-ARU loss.  Requires at least
            ``replication_factor`` shards.
    """

    replication_factor: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ArrayConfig":
        """Raise ``ValueError`` for any out-of-range knob; returns self."""
        if self.replication_factor < 1:
            raise ValueError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )
        return self

    def replace(self, **changes) -> "ArrayConfig":
        """A copy with ``changes`` applied (validated like any other)."""
        return dataclasses.replace(self, **changes)
