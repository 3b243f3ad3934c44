"""`LLDConfig`: every LLD tuning knob in one validated dataclass.

Construct an :class:`LLDConfig` and pass it as ``LLD(disk,
config=cfg)`` — to ``recover``, ``build_sharded``, ``build_variant``
and ``make_system`` likewise.  That is the only way a knob reaches a
volume: none of them takes a knob by name, so a misspelled one is
Python's own ``TypeError`` from this dataclass's constructor.  Values
are checked in ``__post_init__``: a config that exists is valid.

``aru_mode`` and ``visibility`` live here too (they are constructor
knobs), but ``cost_model`` does not: it is a collaborating object
with its own type, not a tunable scalar, and stays a direct ``LLD``
parameter.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.visibility import Visibility


@dataclasses.dataclass(frozen=True)
class LLDConfig:
    """Tuning knobs for an LLD instance (and its recovery).

    Field groups, in rough subsystem order:

    * ARU semantics: ``aru_mode``, ``visibility``
    * read path: ``cache_blocks``
    * checkpointing: ``checkpoint_slot_segments``
    * cleaner: ``clean_low_water``, ``clean_high_water``,
      ``cleaner_policy``
    * write pipeline: ``writeback_depth``, ``group_commit``,
      ``group_commit_max_parked``, ``group_commit_timeout_us`` (every
      commit record is logged at ``end_aru``; group commit flushes
      once per group of that many commits, or when the oldest has
      waited that long)
    * recovery: ``restore_drain_segments`` (the mode is an argument
      of ``recover()``)
    * observability: ``metrics``, ``flight_dump_path``
    """

    aru_mode: str = "concurrent"
    visibility: Visibility = Visibility.ARU_LOCAL
    cache_blocks: int = 2048
    checkpoint_slot_segments: Optional[int] = None
    clean_low_water: int = 4
    clean_high_water: int = 8
    cleaner_policy: str = "cost_benefit"
    writeback_depth: int = 0
    group_commit: bool = False
    group_commit_max_parked: int = 8
    group_commit_timeout_us: float = 10_000.0
    #: Segments the background sweep drains per public operation while
    #: a restore is in progress (0 = only on-demand + explicit drain).
    restore_drain_segments: int = 1
    metrics: bool = True
    flight_dump_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "LLDConfig":
        """Raise ``ValueError`` for any out-of-range knob.

        Runs at construction (and so in :meth:`replace`); returns
        self.
        """
        if self.aru_mode not in ("concurrent", "sequential"):
            raise ValueError(f"unknown aru_mode: {self.aru_mode!r}")
        if self.cleaner_policy not in ("cost_benefit", "greedy"):
            raise ValueError(f"unknown cleaner policy: {self.cleaner_policy!r}")
        if self.cache_blocks < 0:
            raise ValueError(f"cache_blocks must be >= 0, got {self.cache_blocks}")
        if (
            self.checkpoint_slot_segments is not None
            and self.checkpoint_slot_segments < 1
        ):
            raise ValueError(
                "checkpoint_slot_segments must be >= 1, got "
                f"{self.checkpoint_slot_segments}"
            )
        if self.clean_low_water < 1:
            raise ValueError(
                f"clean_low_water must be >= 1, got {self.clean_low_water}"
            )
        if self.writeback_depth < 0:
            raise ValueError(
                f"writeback depth must be >= 0, got {self.writeback_depth}"
            )
        if self.group_commit_max_parked < 1:
            raise ValueError("group_commit_max_parked must be >= 1")
        if self.group_commit_timeout_us <= 0:
            raise ValueError(
                "group_commit_timeout_us must be > 0, got "
                f"{self.group_commit_timeout_us}"
            )
        if self.restore_drain_segments < 0:
            raise ValueError(
                "restore_drain_segments must be >= 0, got "
                f"{self.restore_drain_segments}"
            )
        return self

    def replace(self, **changes) -> "LLDConfig":
        """A copy with ``changes`` applied (validated like any other)."""
        return dataclasses.replace(self, **changes)
