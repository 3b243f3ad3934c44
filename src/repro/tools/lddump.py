"""``lddump`` — inspect a saved logical-disk image.

Usage::

    python -m repro.tools.lddump IMAGE [IMAGE ...] [options]

Several images are treated as the member volumes of a sharded array
(:mod:`repro.shard`) in shard order — each gets its own titled
section (shard 0 is the coordinator; its checkpoints may carry
decided cross-shard transaction ids), and ``--metrics`` emits one
JSON object keyed by shard index.

Options:
    --segments         list every written log segment
    --entries          ... including every summary entry (verbose; a
                       WRITE shows its block, slot and slot CRC)
    --limit N          cap the number of segments listed
    --checkpoints      show both checkpoint slots
    --restore          preview instant restore: replay watermark and
                       the pending log suffix before anything replays
    --fs               recover (read-only) and print the file tree
    --metrics          recover (read-only) and print metrics as JSON
    --ckpt-segments N  checkpoint slot size, if non-default

With no options, prints the disk summary plus checkpoints.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.disk.simdisk import SimulatedDisk
from repro.errors import LDError
from repro.tools.inspect import (
    describe_checkpoints,
    describe_disk,
    describe_fs,
    describe_metrics,
    describe_restore,
    describe_segments,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lddump", description="Inspect a saved logical-disk image."
    )
    parser.add_argument(
        "image",
        nargs="+",
        help="image file(s) written by save_image(); several images "
        "are shown as the shards of one array, in shard order",
    )
    parser.add_argument("--segments", action="store_true")
    parser.add_argument("--entries", action="store_true")
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--checkpoints", action="store_true")
    parser.add_argument("--restore", action="store_true")
    parser.add_argument("--fs", action="store_true")
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--ckpt-segments", type=int, default=None)
    parser.add_argument(
        "--substrate", choices=["lld", "jld"], default="lld",
        help="recovery procedure for --fs (default: lld)",
    )
    parser.add_argument("--journal-segments", type=int, default=8)
    return parser


def _volume_sections(disk: SimulatedDisk, args) -> List[str]:
    sections = [describe_disk(disk)]
    everything = not (
        args.segments or args.entries or args.fs or args.restore
    )
    if args.checkpoints or everything:
        sections.append(
            describe_checkpoints(disk, slot_segments=args.ckpt_segments)
        )
    if args.restore:
        sections.append(
            describe_restore(disk, slot_segments=args.ckpt_segments)
        )
    if args.segments or args.entries:
        sections.append(
            describe_segments(
                disk,
                slot_segments=args.ckpt_segments,
                entries=args.entries,
                limit=args.limit,
            )
        )
    if args.fs:
        sections.append(
            describe_fs(
                disk,
                slot_segments=args.ckpt_segments,
                substrate=args.substrate,
                journal_segments=args.journal_segments,
            )
        )
    return sections


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    disks: List[SimulatedDisk] = []
    for path in args.image:
        try:
            disks.append(SimulatedDisk.load_image(path))
        except (OSError, LDError) as exc:
            print(f"lddump: {path}: {exc}", file=sys.stderr)
            return 1
    sharded = len(disks) > 1
    if args.metrics:
        # JSON mode: the metrics payload is the whole output, so
        # machine consumers can pipe it straight into a parser.
        if sharded:
            import json

            print(
                json.dumps(
                    {
                        str(index): json.loads(
                            describe_metrics(
                                disk, slot_segments=args.ckpt_segments
                            )
                        )
                        for index, disk in enumerate(disks)
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(
                describe_metrics(disks[0], slot_segments=args.ckpt_segments)
            )
        return 0
    sections: List[str] = []
    if sharded:
        sections.append(
            f"sharded volume: {len(disks)} member images "
            "(shard 0 is the coordinator)"
        )
    for index, (path, disk) in enumerate(zip(args.image, disks)):
        if sharded:
            sections.append(f"--- shard {index}: {path} ---")
        sections.extend(_volume_sections(disk, args))
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
