#!/usr/bin/env python3
"""Operational tooling: traces, disk images, and lddump.

Records a workload as a portable trace, replays it byte-verified on
the *other* logical-disk implementation (LLD -> JLD), then saves a
disk image and inspects it the way an operator would.

Run:  python examples/trace_and_inspect.py
"""

import tempfile
from pathlib import Path

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.jld import JLD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.tools.inspect import describe_checkpoints, describe_disk, describe_fs
from repro.trace import Trace, TraceRecorder, replay_trace


def build_lld():
    geo = DiskGeometry.small(num_segments=96)
    return LLD(
        SimulatedDisk(geo),
        config=LLDConfig(checkpoint_slot_segments=2),
    )


def build_jld():
    geo = DiskGeometry.small(num_segments=96)
    return JLD(
        SimulatedDisk(geo), journal_segments=6, checkpoint_slot_segments=2
    )


def workload(ld) -> None:
    """Some ARU-heavy activity worth replaying."""
    ledger = ld.new_list()
    previous = None
    for index in range(10):
        aru = ld.begin_aru()
        if previous is None:
            block = ld.new_block(ledger, aru=aru)
        else:
            block = ld.new_block(ledger, predecessor=previous, aru=aru)
        ld.write(block, f"entry {index}: +{index * 10} coins".encode(), aru=aru)
        ld.end_aru(aru)
        previous = block
    ld.flush()
    for block in ld.list_blocks(ledger):
        ld.read(block)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))

    # 1. Record on LLD.
    recorder = TraceRecorder(build_lld())
    workload(recorder)
    trace_path = workdir / "ledger.trace"
    count = recorder.trace.save(trace_path)
    print(f"recorded {count} operations -> {trace_path}")

    # 2. Replay, byte-verified, on the journaling implementation.
    result = replay_trace(Trace.load(trace_path), build_jld())
    print(f"replayed on JLD: {result.ops_replayed} ops, "
          f"{result.reads_verified} reads byte-verified — "
          "two implementations, identical behaviour")

    # 3. Build a small file system, image it, inspect the image.
    lld = build_lld()
    fs = MinixFS.mkfs(lld, n_inodes=64)
    fs.mkdir("/ledger")
    fs.create("/ledger/2026-07.txt")
    fs.write_file("/ledger/2026-07.txt", b"opening balance: 100\n" * 20)
    fs.sync()
    lld.write_checkpoint()
    image_path = workdir / "disk.img"
    segments = lld.disk.save_image(image_path)
    print(f"\nsaved {segments} segments -> {image_path}")

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
