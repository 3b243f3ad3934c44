"""Unit tests for the FS on-disk structures (i-nodes, dirents), and
for what the layout of its blocks in the log costs to read back."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import FSError
from repro.fs import MinixFS
from repro.fs import directory as dirmod
from repro.fs.inode import (
    INODE_SIZE,
    Inode,
    InodeKind,
    inodes_per_block,
    locate,
    patch_block,
)
from repro.lld.lld import LLD


class TestInodeCodec:
    def test_record_size(self):
        assert INODE_SIZE == 64
        assert len(Inode(1).encode()) == 64

    def test_roundtrip(self):
        inode = Inode(
            ino=9, kind=InodeKind.REGULAR, nlinks=3, size=12345,
            list_id=77, mtime=99,
        )
        decoded = Inode.decode(9, inode.encode())
        assert decoded == inode

    def test_free_slot_decodes_free(self):
        decoded = Inode.decode(4, b"\x00" * 64)
        assert decoded.is_free
        assert not decoded.is_dir
        assert not decoded.is_regular

    def test_clear(self):
        inode = Inode(1, InodeKind.DIRECTORY, nlinks=2, size=10, list_id=5)
        inode.clear()
        assert inode.is_free
        assert inode.size == 0
        assert inode.list_id == 0

    def test_kind_predicates(self):
        assert Inode(1, InodeKind.DIRECTORY).is_dir
        assert Inode(1, InodeKind.REGULAR).is_regular

    def test_inodes_per_block(self):
        assert inodes_per_block(4096) == 64
        assert inodes_per_block(1024) == 16

    def test_locate(self):
        assert locate(1, 4096) == (0, 0)
        assert locate(64, 4096) == (0, 63 * 64)
        assert locate(65, 4096) == (1, 0)

    def test_locate_rejects_zero(self):
        with pytest.raises(ValueError):
            locate(0, 4096)

    def test_patch_block(self):
        raw = b"\xaa" * 4096
        record = Inode(2, InodeKind.REGULAR, nlinks=1).encode()
        patched = patch_block(raw, 64, record)
        assert len(patched) == 4096
        assert patched[64:128] == record
        assert patched[:64] == b"\xaa" * 64
        assert patched[128:] == b"\xaa" * (4096 - 128)


class TestDirentCodec:
    def test_record_size(self):
        assert dirmod.DIRENT_SIZE == 32
        assert len(dirmod.Dirent(1, "x").encode()) == 32

    def test_entries_per_block(self):
        assert dirmod.entries_per_block(4096) == 128

    def test_iter_skips_free_slots(self):
        block = bytearray(4096)
        block[0:32] = dirmod.Dirent(5, "first").encode()
        block[64:96] = dirmod.Dirent(9, "third").encode()
        found = list(dirmod.iter_entries(bytes(block)))
        assert [(o, e.ino, e.name) for o, e in found] == [
            (0, 5, "first"),
            (64, 9, "third"),
        ]

    def test_find_entry(self):
        block = dirmod.patch_block(
            b"\x00" * 4096, 32, dirmod.Dirent(3, "hello")
        )
        offset, entry = dirmod.find_entry(block, "hello")
        assert offset == 32
        assert entry.ino == 3
        assert dirmod.find_entry(block, "missing") is None

    def test_find_free_slot(self):
        block = dirmod.patch_block(
            b"\x00" * 4096, 0, dirmod.Dirent(1, "used")
        )
        assert dirmod.find_free_slot(block) == 32
        full = b"".join(
            dirmod.Dirent(index + 1, f"n{index}").encode()
            for index in range(128)
        )
        assert dirmod.find_free_slot(full) is None

    def test_patch_clear(self):
        block = dirmod.patch_block(
            b"\x00" * 4096, 0, dirmod.Dirent(1, "temp")
        )
        cleared = dirmod.patch_block(block, 0, None)
        assert dirmod.find_entry(cleared, "temp") is None

    def test_unicode_names(self):
        entry = dirmod.Dirent(2, "café")
        block = dirmod.patch_block(b"\x00" * 4096, 0, entry)
        _offset, decoded = dirmod.find_entry(block, "café")
        assert decoded.name == "café"

    def test_name_too_long_rejected(self):
        with pytest.raises(FSError):
            dirmod.Dirent(1, "x" * 28).encode()

    def test_validate_name(self):
        for bad in ("", ".", "..", "a/b", "nul\x00"):
            with pytest.raises(FSError):
                dirmod.validate_name(bad)
        dirmod.validate_name("fine-name.txt")

    def test_used_entries(self):
        block_a = dirmod.patch_block(b"\x00" * 4096, 0, dirmod.Dirent(1, "a"))
        block_b = dirmod.patch_block(b"\x00" * 4096, 32, dirmod.Dirent(2, "b"))
        names = [e.name for e in dirmod.used_entries([block_a, block_b])]
        assert names == ["a", "b"]


class TestLogLayoutReadBack:
    """Where the FS's blocks land in the log, as the read path sees it."""

    def test_small_files_read_back_in_creation_order_stream(self):
        # Figure 5's shape: one-block files round-robin over the
        # directories.  A directory's block takes a slot the first
        # time a segment sees it, so file data sits at every other
        # slot through the head of each segment; read back in write
        # order that must cost a handful of requests per segment (one
        # positioning, then the read stream: a near miss, then windows
        # end to end), not one positioning per file.
        files, dirs = 600, 27
        disk = SimulatedDisk(
            DiskGeometry(block_size=4096, segment_size=512 * 1024, num_segments=64)
        )
        ld = LLD(disk)
        fs = MinixFS.mkfs(ld, n_inodes=files + 64)
        for index in range(dirs):
            fs.mkdir(f"/d{index}")
        fs.sync()
        paths = [f"/d{index % dirs}/f{index}" for index in range(files)]
        for index, path in enumerate(paths):
            fs.create(path)
            fs.write_file(path, bytes([index % 251]) * 1024)
        fs.sync()
        ld.cache.invalidate_all()  # as if long evicted
        segments = ld.stats()["segments_flushed"]
        reads = disk.read_count
        for index, path in enumerate(paths):
            assert fs.read_file(path) == bytes([index % 251]) * 1024
        reads = disk.read_count - reads
        stream = ld.stats()["read_stream"]
        assert reads == stream["positioned"] + stream["streamed"]
        # 36 reads, 6 of them positioned, over 9 segments when this
        # was written; the adjacency heuristic it replaced took 192.
        assert reads <= 6 * segments, (reads, segments)
        assert stream["positioned"] <= segments, stream
