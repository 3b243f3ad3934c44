"""Tests for the extension features: walk/du, group commit, PostMark."""

import pytest

from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.txn import TransactionManager, run_batch
from repro.workloads.postmark import run_postmark

from tests.conftest import make_lld


@pytest.fixture
def fs():
    fs = MinixFS.mkfs(make_lld(num_segments=192), n_inodes=256)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.mkdir("/c")
    fs.create("/top.txt")
    fs.write_file("/top.txt", b"x" * 100)
    fs.create("/a/one.txt")
    fs.write_file("/a/one.txt", b"y" * 200)
    fs.create("/a/b/two.txt")
    fs.write_file("/a/b/two.txt", b"z" * 300)
    return fs


class TestWalkAndDu:
    def test_walk_visits_everything(self, fs):
        visited = {path: (dirs, files) for path, dirs, files in fs.walk()}
        assert set(visited) == {"/", "/a", "/a/b", "/c"}
        assert visited["/"][1] == ["top.txt"]
        assert sorted(visited["/"][0]) == ["a", "c"]
        assert visited["/a/b"][1] == ["two.txt"]
        assert visited["/c"] == ([], [])

    def test_walk_subtree(self, fs):
        paths = [path for path, _d, _f in fs.walk("/a")]
        assert paths == ["/a", "/a/b"]

    def test_walk_of_file_rejected(self, fs):
        from repro.errors import NotADirectoryFSError

        with pytest.raises(NotADirectoryFSError):
            list(fs.walk("/top.txt"))

    def test_du(self, fs):
        assert fs.du("/") == 600
        assert fs.du("/a") == 500
        assert fs.du("/a/b") == 300
        assert fs.du("/c") == 0


class TestCopyFile:
    def test_copies_contents(self, fs):
        copied = fs.copy_file("/a/one.txt", "/copy.txt")
        assert copied == 200
        assert fs.read_file("/copy.txt") == b"y" * 200
        assert fs.read_file("/a/one.txt") == b"y" * 200  # source intact
        assert fs.stat("/copy.txt").ino != fs.stat("/a/one.txt").ino

    def test_copy_empty_file(self, fs):
        fs.create("/empty")
        assert fs.copy_file("/empty", "/empty2") == 0
        assert fs.read_file("/empty2") == b""

    def test_copy_directory_rejected(self, fs):
        from repro.errors import IsADirectoryFSError

        with pytest.raises(IsADirectoryFSError):
            fs.copy_file("/a", "/acopy")

    def test_copy_onto_existing_rejected(self, fs):
        from repro.errors import FileExistsFSError

        with pytest.raises(FileExistsFSError):
            fs.copy_file("/a/one.txt", "/top.txt")

    def test_copies_are_independent(self, fs):
        fs.copy_file("/top.txt", "/clone.txt")
        fs.write_file("/clone.txt", b"DIVERGED")
        assert fs.read_file("/top.txt") == b"x" * 100


class TestGroupCommit:
    def test_batch_commits_all_with_single_flush(self):
        ld = make_lld(num_segments=128)
        manager = TransactionManager(ld)
        lst = ld.new_list()
        accounts = [ld.new_block(lst) for _ in range(5)]
        for account in accounts:
            ld.write(account, (100).to_bytes(8, "little"))
        ld.flush()
        flushes_before = ld.op_counts.get("flush", 0)

        def deposit(account, amount):
            def body(txn):
                value = int.from_bytes(txn.read(account)[:8], "little")
                txn.write(account, (value + amount).to_bytes(8, "little"))
                return value + amount

            return body

        results = run_batch(
            manager, [deposit(account, 10) for account in accounts]
        )
        assert results == [110] * 5
        # One flush for the whole batch, not one per transaction.
        assert ld.op_counts.get("flush", 0) == flushes_before + 1
        # Durable: every deposit survives a crash.
        from repro.lld.recovery import recover

        recovered, _ = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        for account in accounts:
            assert int.from_bytes(
                recovered.read(account)[:8], "little"
            ) == 110

    def test_batch_failure_still_flushes_successes(self):
        ld = make_lld(num_segments=128)
        manager = TransactionManager(ld)
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"before")
        ld.flush()

        def good(txn):
            txn.write(block, b"good-result")

        def bad(_txn):
            raise RuntimeError("body exploded")

        with pytest.raises(RuntimeError):
            run_batch(manager, [good, bad, good])
        # The first body committed and was flushed by the batch.
        from repro.lld.recovery import recover

        recovered, _ = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.read(block).startswith(b"good-result")


class TestPostmarkWorkload:
    def test_runs_and_stays_consistent(self):
        fs = MinixFS.mkfs(make_lld(num_segments=256), n_inodes=512)
        result = run_postmark(fs, n_files=40, n_transactions=200)
        assert result.tps > 0
        assert sum(result.ops.values()) == 200
        assert result.files_at_end == len(fs.listdir("/postmark"))
        assert fsck(fs).clean

    def test_deterministic(self):
        a = run_postmark(
            MinixFS.mkfs(make_lld(num_segments=256), n_inodes=512),
            n_files=30, n_transactions=100, seed=7,
        )
        b = run_postmark(
            MinixFS.mkfs(make_lld(num_segments=256), n_inodes=512),
            n_files=30, n_transactions=100, seed=7,
        )
        assert a.tps == b.tps
        assert a.ops == b.ops

    def test_mix_respects_bias(self):
        fs = MinixFS.mkfs(make_lld(num_segments=256), n_inodes=512)
        result = run_postmark(
            fs, n_files=30, n_transactions=300, read_bias=0.9
        )
        reads = result.ops["read"] + result.ops["append"]
        churn = result.ops["create"] + result.ops["delete"]
        assert reads > 2 * churn
