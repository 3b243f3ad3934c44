"""Helpers shared by the workloads' seeded input generators."""

from __future__ import annotations

import random
from typing import List


def payload_pool(rng: random.Random, count: int, size: int) -> List[bytes]:
    """``count`` distinct random payloads of ``size`` bytes."""
    return [rng.randbytes(size) for _ in range(count)]


def scaled(full: int, scale: float, floor: int = 1) -> int:
    """``full`` shrunk by ``scale`` (the warm-up burst), at least
    ``floor``."""
    return max(floor, int(full * scale))


def resolved(shadow: dict, blocks: list, pool: List[bytes]) -> dict:
    """A shadow model of (block index -> pool index) as the
    (block id -> bytes) the oracle reads back."""
    return {blocks[index]: pool[payload] for index, payload in shadow.items()}


def chunked(items: list, size: int) -> List[list]:
    """Consecutive slices of ``size`` items: the timed bursts."""
    return [items[i : i + size] for i in range(0, len(items), size)]
