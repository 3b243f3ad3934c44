"""`ArrayConfig`: every knob of a sharded array, in one frozen place.

The array-level counterpart of :class:`~repro.lld.config.LLDConfig`:
replication factor and repair pacing live here (per-volume knobs
stay in ``LLDConfig``), validated once with
the same contract — an unknown knob raises ``TypeError`` naming the
valid ones, a bad value raises ``ValueError`` at construction, never
deep inside a write path.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


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
        repair_batch_ops: How many admit/copy operations one
            :meth:`~repro.shard.sharded.ShardedLLD.repair_step` call
            performs — the pacing knob that lets repair run in the
            background between foreground requests instead of
            stop-the-world.
    """

    replication_factor: int = 1
    repair_batch_ops: int = 64

    def validate(self) -> "ArrayConfig":
        """Validate every knob; returns self for chaining."""
        if self.replication_factor < 1:
            raise ValueError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )
        if self.repair_batch_ops < 1:
            raise ValueError(
                f"repair_batch_ops must be >= 1, got {self.repair_batch_ops}"
            )
        return self

    @classmethod
    def from_kwargs(
        cls, config: Optional["ArrayConfig"] = None, **kwargs
    ) -> "ArrayConfig":
        """Build from a base config plus keyword overrides.

        Mirrors :meth:`LLDConfig.from_kwargs`: unknown keywords raise
        ``TypeError`` with the valid knob names.
        """
        base = config if config is not None else cls()
        if not kwargs:
            return base.validate()
        valid = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise TypeError(
                f"unknown array config knob(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(valid))})"
            )
        return dataclasses.replace(base, **kwargs).validate()

    def replace(self, **changes) -> "ArrayConfig":
        """A copy with ``changes`` applied, re-validated."""
        return dataclasses.replace(self, **changes).validate()
