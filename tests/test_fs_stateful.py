"""Stateful property testing of MinixFS against an in-memory model.

Hypothesis drives an arbitrary interleaving of file-system operations
and checks, after every step, that the real file system and a trivial
dict-based model agree — on both implementations of the logical disk.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import FSError
from repro.fs import MinixFS, fsck
from repro.jld import JLD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD

NAMES = [f"n{index}" for index in range(8)]
DIRS = ["/", "/d0", "/d1"]


class FSMachine(RuleBasedStateMachine):
    """Shared rules; subclasses pick the logical-disk substrate."""

    substrate = "lld"

    def __init__(self):
        super().__init__()
        geo = DiskGeometry.small(num_segments=160)
        disk = SimulatedDisk(geo)
        if self.substrate == "lld":
            ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        else:
            ld = JLD(disk, journal_segments=8, checkpoint_slot_segments=2)
        self.fs = MinixFS.mkfs(ld, n_inodes=128)
        self.model = {}  # path -> bytes
        self.steps = 0

    @initialize()
    def make_dirs(self):
        self.fs.mkdir("/d0")
        self.fs.mkdir("/d1")

    def _path(self, directory, name):
        return directory.rstrip("/") + "/" + name

    @rule(directory=st.sampled_from(DIRS), name=st.sampled_from(NAMES),
          size=st.integers(0, 6000))
    def create(self, directory, name, size):
        path = self._path(directory, name)
        payload = (name.encode() * (size // len(name) + 1))[:size]
        if path in self.model:
            with pytest.raises(FSError):
                self.fs.create(path)
        else:
            self.fs.create(path)
            if payload:
                self.fs.write_file(path, payload)
            self.model[path] = payload

    @rule(directory=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def unlink(self, directory, name):
        path = self._path(directory, name)
        if path in self.model:
            self.fs.unlink(path)
            del self.model[path]
        else:
            if not self.fs.exists(path):
                with pytest.raises(FSError):
                    self.fs.unlink(path)

    @rule(directory=st.sampled_from(DIRS), name=st.sampled_from(NAMES),
          offset=st.integers(0, 8000), data=st.binary(min_size=1, max_size=2000))
    def overwrite(self, directory, name, offset, data):
        path = self._path(directory, name)
        if path not in self.model:
            return
        self.fs.write_file(path, data, offset=offset)
        old = self.model[path]
        if offset > len(old):
            old = old + b"\x00" * (offset - len(old))
        self.model[path] = old[:offset] + data + old[offset + len(data):]

    @rule(src_dir=st.sampled_from(DIRS), src=st.sampled_from(NAMES),
          dst_dir=st.sampled_from(DIRS), dst=st.sampled_from(NAMES))
    def rename(self, src_dir, src, dst_dir, dst):
        src_path = self._path(src_dir, src)
        dst_path = self._path(dst_dir, dst)
        if src_path not in self.model or src_path == dst_path:
            return
        if dst_path in self.model:
            with pytest.raises(FSError):
                self.fs.rename(src_path, dst_path)
        else:
            self.fs.rename(src_path, dst_path)
            self.model[dst_path] = self.model.pop(src_path)

    @rule(directory=st.sampled_from(DIRS), src=st.sampled_from(NAMES),
          dst=st.sampled_from(NAMES))
    def hard_link(self, directory, src, dst):
        src_path = self._path(directory, src)
        dst_path = self._path("/d1", dst)
        if src_path not in self.model or dst_path in self.model:
            return
        self.fs.link(src_path, dst_path)
        # Model simplification: links alias contents at link time and
        # our overwrite rule would desynchronize aliases, so unlink
        # the new name immediately — this still exercises the
        # link/unlink nlink bookkeeping.
        self.fs.unlink(dst_path)

    @rule()
    def sync(self):
        self.fs.sync()

    @rule(length=st.integers(0, 4000), directory=st.sampled_from(DIRS),
          name=st.sampled_from(NAMES))
    def truncate(self, length, directory, name):
        path = self._path(directory, name)
        if path not in self.model:
            return
        self.fs.truncate(path, length)
        old = self.model[path]
        if length <= len(old):
            self.model[path] = old[:length]
        else:
            self.model[path] = old + b"\x00" * (length - len(old))

    @invariant()
    def contents_match(self):
        self.steps += 1
        if self.steps % 5:
            return  # full compare every 5th step keeps runtime sane
        for path, expected in self.model.items():
            assert self.fs.read_file(path) == expected, path
        listed = set()
        for directory in DIRS:
            for name in self.fs.listdir(directory):
                full = self._path(directory, name)
                if full not in ("/d0", "/d1"):
                    listed.add(full)
        assert listed == set(self.model)

    def teardown(self):
        report = fsck(self.fs)
        assert report.clean, [str(p) for p in report.problems]


class TestFSStatefulOnLLD(FSMachine.TestCase):
    settings = settings(
        max_examples=25,
        stateful_step_count=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


class _JLDMachine(FSMachine):
    substrate = "jld"


class TestFSStatefulOnJLD(_JLDMachine.TestCase):
    settings = settings(
        max_examples=15,
        stateful_step_count=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
