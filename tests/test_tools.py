"""Tests for disk images and the lddump inspection tool."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import CorruptionError
from repro.fs import MinixFS
from repro.lld.checkpoint import CheckpointManager
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.tools.inspect import (
    describe_checkpoints,
    describe_disk,
    describe_fs,
    describe_segments,
)
from repro.tools.lddump import main as lddump_main


@pytest.fixture
def populated(tmp_path):
    """A disk image holding a small file system."""
    geo = DiskGeometry.small(num_segments=64)
    disk = SimulatedDisk(geo)
    lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    fs = MinixFS.mkfs(lld, n_inodes=64)
    fs.mkdir("/docs")
    fs.create("/docs/a.txt")
    fs.write_file("/docs/a.txt", b"hello" * 100)
    fs.link("/docs/a.txt", "/docs/b.txt")
    fs.sync()
    lld.write_checkpoint()
    image = tmp_path / "disk.img"
    disk.save_image(image)
    return disk, image


class TestImages:
    def test_roundtrip(self, populated):
        disk, image = populated
        loaded = SimulatedDisk.load_image(image)
        assert loaded.geometry == disk.geometry
        for seg, data in disk._segments.items():
            assert loaded.read_segment(seg) == data

    def test_loaded_image_is_recoverable(self, populated):
        from repro.lld.recovery import recover

        _disk, image = populated
        loaded = SimulatedDisk.load_image(image)
        lld, _report = recover(
            loaded,
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        fs = MinixFS.mount(lld)
        assert fs.read_file("/docs/a.txt") == b"hello" * 100

    def test_sparse_images_stay_small(self, tmp_path, populated):
        _disk, image = populated
        size = image.stat().st_size
        geo = DiskGeometry.small(num_segments=64)
        assert size < geo.partition_size / 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"not an image at all" * 10)
        with pytest.raises(CorruptionError):
            SimulatedDisk.load_image(path)

    def test_truncated_rejected(self, populated, tmp_path):
        _disk, image = populated
        data = image.read_bytes()
        truncated = tmp_path / "trunc.img"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptionError):
            SimulatedDisk.load_image(truncated)


class TestInspect:
    def test_describe_disk(self, populated):
        disk, _image = populated
        text = describe_disk(disk)
        assert "segments" in text

    def test_describe_checkpoints(self, populated):
        disk, _image = populated
        text = describe_checkpoints(disk, slot_segments=2)
        assert "ckpt_seq=1" in text
        assert "newest valid checkpoint: seq 1" in text
        # Each slot's real size beside its reservation.
        reserved = 2 * disk.geometry.segment_size
        total_len = CheckpointManager(disk, 2).load().total_len
        assert 0 < total_len < reserved
        assert f"total_len={total_len} of {reserved} reserved" in text

    def test_describe_segments(self, populated):
        disk, _image = populated
        text = describe_segments(disk, slot_segments=2)
        assert "seq" in text
        assert "entries" in text

    def test_describe_segments_verbose_and_limited(self, populated):
        disk, _image = populated
        text = describe_segments(
            disk, slot_segments=2, entries=True, limit=1
        )
        assert "WRITE" in text or "ALLOC_BLOCK" in text
        assert "limited to 1" in text

    def test_entries_show_each_writes_slot_crc(self, populated):
        disk, _image = populated
        text = describe_segments(disk, slot_segments=2, entries=True)
        writes = [line for line in text.splitlines() if "WRITE " in line]
        assert writes
        for line in writes:
            fields = dict(field.split("=") for field in line.split()[1:])
            assert set(fields) == {"tag", "ts", "block", "slot", "crc"}
            assert fields["crc"].startswith("0x") and len(fields["crc"]) == 10

    def test_describe_fs(self, populated):
        disk, _image = populated
        text = describe_fs(disk, slot_segments=2)
        assert "docs/" in text
        assert "a.txt" in text
        assert "2 links" in text

    def test_describe_segments_marks_quarantined(self, tmp_path):
        from repro.disk.faults import MediaFault

        geo = DiskGeometry.small(num_segments=64)
        disk = SimulatedDisk(geo)
        lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        lst = lld.new_list()
        blocks = [lld.new_block(lst) for _ in range(30)]
        for block in blocks:
            lld.write(block, b"x" * geo.block_size)
        lld.flush()
        lld.read_many(blocks)
        victim = lld.bmap.persistent[blocks[0]].address.segment
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        lld.scrub()
        image = tmp_path / "scrubbed.img"
        disk.save_image(image)
        loaded = SimulatedDisk.load_image(image)
        text = describe_segments(loaded, slot_segments=2)
        assert f"quarantined by scrub: [{victim}]" in text
        assert f"segment {victim:4d}: QUARANTINED" in text

    def test_describe_fs_without_filesystem(self):
        geo = DiskGeometry.small(num_segments=32)
        disk = SimulatedDisk(geo)
        lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=1))
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"raw")
        lld.flush()
        text = describe_fs(disk, slot_segments=1)
        assert "no mountable MinixFS" in text


class TestCLI:
    def test_default_dump(self, populated, capsys):
        _disk, image = populated
        assert lddump_main([str(image), "--ckpt-segments", "2"]) == 0
        out = capsys.readouterr().out
        assert "LD disk image" in out
        assert "checkpoint" in out
        assert lddump_main([str(image), "--restore", "--ckpt-segments", "2"]) == 0
        out = capsys.readouterr().out
        assert "instant-restore preview" in out
        assert "scan               : walk, " in out

    def test_full_dump(self, populated, capsys):
        _disk, image = populated
        code = lddump_main(
            [str(image), "--segments", "--fs", "--ckpt-segments", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a.txt" in out

    def test_restore_preview_leaves_the_image_readable(self, populated, capsys):
        _disk, image = populated
        code = lddump_main(
            [
                str(image), "--restore", "--segments", "--fs",
                "--ckpt-segments", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "instant-restore preview" in out
        assert "log segments" in out and "entries" in out
        assert "a.txt" in out
        # Each section reads what it reads in a call of its own.
        alone = []
        for flag in ("--restore", "--segments", "--fs"):
            assert lddump_main([str(image), flag, "--ckpt-segments", "2"]) == 0
            alone.append(capsys.readouterr().out.strip().split("\n\n", 1)[1])
        assert out.strip().split("\n\n", 1)[1] == "\n\n".join(alone)

    def test_missing_file(self, tmp_path, capsys):
        assert lddump_main([str(tmp_path / "nope.img")]) == 1
        assert "lddump:" in capsys.readouterr().err

    def test_metrics_json(self, populated, capsys):
        import json

        from repro.obs.schema import validate_stats

        _disk, image = populated
        code = lddump_main([str(image), "--metrics", "--ckpt-segments", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_stats(payload["stats"]) == []
        assert payload["recovery"]["checkpoint_seq"] >= 1


class TestLddumpSharded:
    def save_array(self, tmp_path):
        from repro.disk.geometry import DiskGeometry
        from repro.shard import build_sharded

        vol = build_sharded(
            3,
            geometry=DiskGeometry.small(num_segments=24),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        aru = vol.begin_aru()
        for block in blocks:
            vol.write(block, b"dump-me", aru=aru)
        vol.end_aru(aru)
        paths = []
        for index, shard in enumerate(vol.shards):
            path = tmp_path / f"shard{index}.img"
            shard.disk.save_image(str(path))
            paths.append(str(path))
        return paths

    def test_multi_image_dump(self, tmp_path, capsys):
        paths = self.save_array(tmp_path)
        assert lddump_main([*paths, "--ckpt-segments", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded volume: 3 member images" in out
        for index in range(3):
            assert f"--- shard {index}:" in out
        assert out.count("LD disk image") == 3

    def test_multi_image_metrics_json(self, tmp_path, capsys):
        import json

        paths = self.save_array(tmp_path)
        code = lddump_main([*paths, "--metrics", "--ckpt-segments", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["0", "1", "2"]

    def test_coordinator_entries_show_two_phase_records(
        self, tmp_path, capsys
    ):
        paths = self.save_array(tmp_path)
        code = lddump_main(
            [paths[0], "--entries", "--ckpt-segments", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PREPARE" in out
        assert "DECIDE" in out
