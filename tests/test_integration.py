"""Cross-module integration tests.

These exercise the combinations the paper's design promises to
support: multiple independent clients over one logical disk,
multi-threaded use of concurrent ARUs, file system + transaction
clients side by side, and full lifecycle loops (work -> crash ->
recover -> work) with the cleaner running.
"""

import threading

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.txn.transactions import TransactionManager, run_transaction
from repro.workloads.generator import random_fs_ops, verify_against_model


def build(num_segments=192, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


class TestMultipleClients:
    def test_fs_and_txn_share_one_logical_disk(self):
        """Section 5.1: LD supports several independent clients; here
        a file system and a transactional client coexist."""
        _disk, lld = build()
        fs = MinixFS.mkfs(lld, n_inodes=128)
        mgr = TransactionManager(lld)

        fs.create("/fs-file")
        fs.write_file("/fs-file", b"file data")

        with mgr.begin(durable=False) as txn:
            lst = txn.new_list()
            block = txn.new_block(lst)
            txn.write(block, b"txn data")

        fs.sync()
        assert fs.read_file("/fs-file") == b"file data"
        assert lld.read(block).startswith(b"txn data")
        assert fsck(fs).clean

    def test_two_threads_with_private_arus(self):
        """Concurrent ARUs from two threads: each thread's files are
        complete and distinct (the LD lock serializes individual
        calls; ARUs isolate the streams)."""
        _disk, lld = build()
        lst = lld.new_list()
        results = {}
        errors = []

        def worker(tag):
            try:
                mine = []
                for index in range(25):
                    aru = lld.begin_aru()
                    block = lld.new_block(lst, aru=aru)
                    lld.write(block, f"{tag}-{index}".encode(), aru=aru)
                    lld.end_aru(aru)
                    mine.append(block)
                results[tag] = mine
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        lld.flush()
        all_blocks = [b for blocks in results.values() for b in blocks]
        assert len(set(all_blocks)) == 100  # no identifier collisions
        for tag, blocks in results.items():
            for index, block in enumerate(blocks):
                assert lld.read(block).startswith(f"{tag}-{index}".encode())

    def test_transactional_counter_from_threads(self):
        _disk, lld = build()
        mgr = TransactionManager(lld, lock_timeout_s=5.0)
        lst = lld.new_list()
        counter = lld.new_block(lst)
        lld.write(counter, (0).to_bytes(8, "little"))
        errors = []

        def bump():
            def body(txn):
                value = int.from_bytes(txn.read(counter)[:8], "little")
                txn.write(counter, (value + 1).to_bytes(8, "little"))

            try:
                for _ in range(10):
                    run_transaction(mgr, body, max_attempts=100, durable=False)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert int.from_bytes(lld.read(counter)[:8], "little") == 40


class TestLifecycles:
    def test_work_crash_recover_repeat(self):
        disk, lld = build()
        fs = MinixFS.mkfs(lld, n_inodes=512)
        expected = {}
        for generation in range(4):
            trace = random_fs_ops(
                fs, n_ops=60, seed=generation, sync_every=None,
                name_prefix=f"g{generation}_",
            )
            fs.sync()
            expected = trace.expected  # model state at the sync point
            lld2, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            fs = MinixFS.mount(lld2)
            lld = lld2
            assert verify_against_model(fs, expected) == []
            assert fsck(fs).clean

    def test_cleaner_under_fs_load_with_recovery(self):
        disk, lld = build(
            num_segments=40, clean_low_water=3, clean_high_water=6
        )
        fs = MinixFS.mkfs(lld, n_inodes=128)
        # Overwrite-heavy load in a small partition forces cleaning.
        fs.create("/churn")
        block = fs.block_size
        for round_no in range(200):
            payload = (f"round-{round_no}".encode() * 400)[: 8 * block]
            fs.write_file("/churn", payload)
            if round_no % 5 == 4:
                fs.sync()
        assert lld.cleanings > 0
        fs.sync()
        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2, clean_low_water=3),
        )
        fs2 = MinixFS.mount(lld2)
        assert fs2.read_file("/churn").startswith(b"round-199")
        assert fsck(fs2).clean

    def test_checkpoint_shrinks_recovery_scan(self):
        disk, lld = build()
        fs = MinixFS.mkfs(lld, n_inodes=256)
        for index in range(50):
            fs.create(f"/f{index}")
            fs.write_file(f"/f{index}", b"d" * 2000)
        fs.sync()
        _lld_before, report_before = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        # Same state, but checkpointed: replay work should collapse.
        disk2, lld2 = build()
        fs2 = MinixFS.mkfs(lld2, n_inodes=256)
        for index in range(50):
            fs2.create(f"/f{index}")
            fs2.write_file(f"/f{index}", b"d" * 2000)
        lld2.write_checkpoint()
        _lld_after, report_after = recover(
            disk2.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert report_after.entries_replayed < report_before.entries_replayed
        assert report_after.segments_replayed == 0

    def test_visibility_option_roundtrip_through_recovery(self):
        from repro.core.visibility import Visibility

        disk, lld = build(visibility=Visibility.MOST_RECENT_SHADOW)
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"v1")
        lld.flush()
        lld2, _ = recover(
            disk.power_cycle(),
            config=LLDConfig(
                checkpoint_slot_segments=2,
                visibility=Visibility.MOST_RECENT_SHADOW,
            ),
        )
        aru = lld2.begin_aru()
        lld2.write(block, b"v2", aru=aru)
        assert lld2.read(block).startswith(b"v2")  # option-1 semantics
