"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.disk.clock import CostModel, SimClock
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


@pytest.fixture
def geometry() -> DiskGeometry:
    """A small partition: 16-block segments, 64 segments."""
    return DiskGeometry.small(num_segments=64)


@pytest.fixture
def disk(geometry) -> SimulatedDisk:
    return SimulatedDisk(geometry)


@pytest.fixture
def lld(disk) -> LLD:
    """A concurrent-ARU LLD on the small partition."""
    return LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))


@pytest.fixture
def old_lld(geometry) -> LLD:
    """A sequential-ARU ("old") LLD on its own small partition."""
    disk = SimulatedDisk(geometry)
    return LLD(
        disk,
        config=LLDConfig(aru_mode="sequential", checkpoint_slot_segments=2),
    )


def make_lld(num_segments: int = 64, **kwargs) -> LLD:
    """Standalone helper for tests that need custom parameters."""
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return LLD(disk, config=LLDConfig(**kwargs))
