"""``minixfs_files``: the paper's Fig. 5 small-file benchmark."""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import List, Tuple

from repro import JLD, LLD, DiskGeometry, LLDConfig, SimulatedDisk
from repro.fs import MinixFS

from ..gen import scaled

NAME = "minixfs_files"
WHY = (
    "The user the paper evaluates (Fig. 5): a file system whose every "
    "create and delete is an ARU; fs dominates and its simulated files/s "
    "per phase are the paper-fidelity numbers."
)

#: 4 KB blocks / 512 KB segments as in the paper, 128 MB partition.
GEOMETRY = DiskGeometry(
    block_size=4096, segment_size=512 * 1024, num_segments=256
)
#: 1 KB and 10 KB files, ten to one as in the paper (10 000 + 1000);
#: the seed shuffles them and varies each size by up to a quarter.
SMALL_FILES, SMALL_SIZE = 2400, 1024
LARGE_FILES, LARGE_SIZE = 240, 10 * 1024
SIZE_JITTER = 0.25
PER_DIR = 100
#: Contents are slices of one random buffer at a per-file offset, so
#: every file differs and a misdirected read cannot pass.
CONTENT_OFFSETS = 4096

#: The journaling baseline applies its ring only at a moment no ARU is
#: mid-commit, which here means at a flush; its default 8-segment
#: ring overflows between two flushes of this workload.  These are
#: JLD's own sizing knobs; everything else about it is default.
JLD_SIZING = {"journal_segments": 32, "apply_low_water": 16}


@dataclasses.dataclass
class Inputs:
    dirs: List[str]
    #: (path, content offset, size)
    files: List[Tuple[str, int, int]]
    source: bytes

    def content(self, offset: int, size: int) -> bytes:
        return self.source[offset : offset + size]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    nominal = [SMALL_SIZE] * scaled(SMALL_FILES, scale, 40)
    nominal += [LARGE_SIZE] * scaled(LARGE_FILES, scale, 4)
    rng.shuffle(nominal)
    sizes = [
        int(size * rng.uniform(1 - SIZE_JITTER, 1 + SIZE_JITTER))
        for size in nominal
    ]
    n_dirs = max(1, math.ceil(len(sizes) / PER_DIR))
    files = [
        (
            f"/d{index % n_dirs}/f{index}",
            rng.randrange(CONTENT_OFFSETS),
            size,
        )
        for index, size in enumerate(sizes)
    ]
    return Inputs(
        [f"/d{index}" for index in range(n_dirs)],
        files,
        rng.randbytes(CONTENT_OFFSETS + 2 * LARGE_SIZE),
    )


@dataclasses.dataclass
class State:
    volume: object
    fs: MinixFS


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    disk = SimulatedDisk(GEOMETRY)
    if substrate == "jld":
        volume = JLD(disk, **JLD_SIZING)
    else:
        volume = LLD(disk, config=LLDConfig())
    fs = MinixFS.mkfs(volume, n_inodes=len(inputs.files) + 128)
    for path in inputs.dirs:
        fs.mkdir(path)
    fs.sync()
    return State(volume, fs)


def run(state: State, inputs: Inputs, ctx):
    fs, volume = state.fs, state.volume
    files = [
        (path, inputs.content(offset, size))
        for path, offset, size in inputs.files
    ]
    create, write_file = fs.create, fs.write_file
    read_file, unlink = fs.read_file, fs.unlink
    clock = volume.clock
    now = time.perf_counter_ns
    wrong = 0
    probe = ctx.probe(volume)
    samples = probe.latencies_us
    ld_calls0 = sum(volume.stats()["ops"].values())

    sim0 = clock.now_us
    for path, data in files:
        start = now()
        create(path)
        write_file(path, data)
        samples.append((now() - start) / 1000.0)
    fs.sync()
    sim1 = clock.now_us
    for path, data in files:
        start = now()
        if read_file(path) != data:
            wrong += 1
        samples.append((now() - start) / 1000.0)
    sim2 = clock.now_us
    for path, _ in files:
        start = now()
        unlink(path)
        samples.append((now() - start) / 1000.0)
    fs.sync()
    sim3 = clock.now_us

    timed = probe.finish(
        ops=3 * len(files),
        user_bytes=sum(len(data) for _, data in files),
        failed=wrong,
    )
    n = len(files)
    ld_calls = sum(volume.stats()["ops"].values()) - ld_calls0
    timed.layers.update(
        {
            "fs.ld_calls_per_file": ld_calls / n,
            "fs.create_sim_fps": n / ((sim1 - sim0) / 1e6),
            "fs.read_sim_fps": n / ((sim2 - sim1) / 1e6),
            "fs.delete_sim_fps": n / ((sim3 - sim2) / 1e6),
        }
    )
    return timed


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    oracle.timed_checks(
        len(inputs.files), timed.failed, "timed file reads returned wrong data"
    )
    oracle.volume_sound(state.volume)
    oracle.fs_sound(state.fs)
    oracle.files_match(state.fs, {path: None for path, _, _ in inputs.files})
    for path in inputs.dirs:
        oracle.expect(
            state.fs.listdir(path) == [], f"{path} not empty after unlink"
        )
