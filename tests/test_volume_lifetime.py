"""A dropped volume is freed at once, by reference counting.

No component holds a strong reference back to its :class:`LLD`
(docs/HACKING.md): the version engine's log sink, the write-behind
queue's owner and an instant restore's controller are weak proxies.
With the cycle collector switched off, ``del`` on the last reference
must therefore free the volume and every table it owns.  A new
back-reference fails here instead of quietly leaving each dropped
volume to a gen-2 collection.
"""

import gc
import weakref

import pytest

from repro import ArrayConfig, recover
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.shard.sharded import build_sharded


@pytest.fixture(autouse=True)
def no_collector():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def written_volume(disk):
    """A volume with a checkpoint and a log suffix after it."""
    ld = LLD(disk)
    lst = ld.new_list()
    blocks = []
    for round_no in range(2):
        for _ in range(40):
            aru = ld.begin_aru()
            block = ld.new_block(lst, aru=aru)
            ld.write(block, bytes([round_no + 1]) * 4000, aru=aru)
            ld.end_aru(aru)
            blocks.append(block)
        ld.flush()
        if round_no == 0:
            ld.write_checkpoint()
    return ld, blocks


def crashed_disk():
    disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
    ld, blocks = written_volume(disk)
    return ld.disk.power_cycle(), blocks


class TestVolumeLifetime:
    def test_fresh_volume(self):
        ld, _blocks = written_volume(
            SimulatedDisk(DiskGeometry.small(num_segments=64))
        )
        ref = weakref.ref(ld)
        del ld
        assert ref() is None

    def test_eager_recovered_volume(self):
        disk, blocks = crashed_disk()
        ld, _report = recover(disk, mode="eager")
        assert ld.read(blocks[-1])[:1] == b"\x02"
        ref = weakref.ref(ld)
        del ld
        assert ref() is None

    def test_volume_dropped_mid_instant_restore(self):
        disk, blocks = crashed_disk()
        ld, _report = recover(
            disk, mode="instant", config=LLDConfig(restore_drain_segments=0)
        )
        assert ld.read(blocks[-1])[:1] == b"\x02"  # an on-demand replay
        assert ld.restore_active
        ref = weakref.ref(ld)
        del ld
        assert ref() is None

    def test_every_member_of_an_array(self):
        array = build_sharded(
            3, array_config=ArrayConfig(replication_factor=2)
        )
        lists = [array.new_list() for _ in range(3)]
        aru = array.begin_aru()
        for lst in lists:
            block = array.new_block(lst, aru=aru)
            array.write(block, b"m" * 100, aru=aru)
        array.end_aru(aru)
        array.flush()
        members = [weakref.ref(member) for member in array.shards]
        assert len(members) == 3
        del array
        assert [ref() for ref in members] == [None, None, None]
