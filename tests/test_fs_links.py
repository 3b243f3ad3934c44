"""Tests for hard links (the link-count bookkeeping ARUs protect)."""

import pytest

from repro.errors import (
    FileExistsFSError,
    FileNotFoundFSError,
    IsADirectoryFSError,
)
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig

from tests.conftest import make_lld


@pytest.fixture
def fs():
    fs = MinixFS.mkfs(make_lld(num_segments=128), n_inodes=128)
    fs.create("/original")
    fs.write_file("/original", b"shared bytes")
    return fs


class TestHardLinks:
    def test_link_shares_inode_and_data(self, fs):
        fs.link("/original", "/alias")
        assert fs.read_file("/alias") == b"shared bytes"
        assert fs.stat("/alias").ino == fs.stat("/original").ino
        assert fs.stat("/original").nlinks == 2

    def test_write_through_either_name(self, fs):
        fs.link("/original", "/alias")
        fs.write_file("/alias", b"updated")
        assert fs.read_file("/original").startswith(b"updated")

    def test_unlink_one_name_keeps_data(self, fs):
        fs.link("/original", "/alias")
        fs.unlink("/original")
        assert not fs.exists("/original")
        assert fs.read_file("/alias") == b"shared bytes"
        assert fs.stat("/alias").nlinks == 1

    def test_unlink_last_name_frees(self, fs):
        fs.link("/original", "/alias")
        list_id = fs.stat("/original").list_id
        fs.unlink("/original")
        fs.unlink("/alias")
        from repro.errors import BadListError

        with pytest.raises(BadListError):
            fs.ld.list_blocks(list_id)

    def test_link_to_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.link("/d", "/dlink")

    def test_link_missing_source(self, fs):
        with pytest.raises(FileNotFoundFSError):
            fs.link("/ghost", "/alias")

    def test_link_over_existing_rejected(self, fs):
        fs.create("/other")
        with pytest.raises(FileExistsFSError):
            fs.link("/original", "/other")

    def test_link_across_directories(self, fs):
        fs.mkdir("/sub")
        fs.link("/original", "/sub/alias")
        assert fs.read_file("/sub/alias") == b"shared bytes"
        assert fsck(fs).clean

    def test_fsck_clean_with_links(self, fs):
        fs.link("/original", "/a1")
        fs.link("/original", "/a2")
        report = fsck(fs)
        assert report.clean, [str(p) for p in report.problems]
        assert report.files == 1  # one i-node, three names

    def test_links_survive_remount(self, fs):
        fs.link("/original", "/alias")
        fs.sync()
        from repro.lld.recovery import recover

        ld2, _ = recover(
            fs.ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        fs2 = MinixFS.mount(ld2)
        assert fs2.stat("/alias").nlinks == 2
        assert fs2.read_file("/alias") == b"shared bytes"
        assert fsck(fs2).clean

    def test_rename_of_linked_file(self, fs):
        fs.link("/original", "/alias")
        fs.rename("/alias", "/renamed")
        assert fs.read_file("/renamed") == b"shared bytes"
        assert fs.stat("/original").nlinks == 2
        assert fsck(fs).clean
