#!/usr/bin/env python3
"""Operational tooling: disk images and lddump.

Builds a small file system, saves the disk as an image, then inspects
the image the way an operator would.

Run:  python examples/inspect_image.py
"""

import tempfile
from pathlib import Path

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.tools.inspect import describe_checkpoints, describe_disk, describe_fs


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-image-"))

    lld = LLD(
        SimulatedDisk(DiskGeometry.small(num_segments=96)),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    fs = MinixFS.mkfs(lld, n_inodes=64)
    fs.mkdir("/ledger")
    fs.create("/ledger/2026-07.txt")
    fs.write_file("/ledger/2026-07.txt", b"opening balance: 100\n" * 20)
    fs.sync()
    lld.write_checkpoint()
    image_path = workdir / "disk.img"
    segments = lld.disk.save_image(image_path)
    print(f"saved {segments} segments -> {image_path}")

    loaded = SimulatedDisk.load_image(image_path)
    print()
    print(describe_disk(loaded))
    print()
    print(describe_checkpoints(loaded, slot_segments=2))
    print()
    print(describe_fs(loaded, slot_segments=2))
    print(f"\n(try: python -m repro.tools.lddump {image_path} "
          "--segments --ckpt-segments 2)")


if __name__ == "__main__":
    main()
