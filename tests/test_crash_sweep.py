"""Bounded-exhaustive crash sweep: every write index, one workload.

Random crash points (test_property, crash_torture) sample the space;
this sweep covers it densely for a canonical meta-data-heavy workload
by crashing at *every* segment-write index the workload produces —
with whole-write drops and with torn writes — on both logical-disk
implementations, asserting the recovery contract at each point.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, LDError
from repro.fs import MinixFS, fsck
from repro.jld import JLD, recover_jld
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def build(substrate, injector=None):
    geo = DiskGeometry.small(num_segments=96)
    disk = SimulatedDisk(geo, injector=injector)
    if substrate == "lld":
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    else:
        ld = JLD(disk, journal_segments=6, checkpoint_slot_segments=2)
    return disk, ld


def recover_any(substrate, disk):
    if substrate == "lld":
        ld, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
    else:
        ld, _report = recover_jld(
            disk.power_cycle(), journal_segments=6, checkpoint_slot_segments=2
        )
    return ld


def workload(fs):
    """Meta-data heavy: creations, writes, links, renames, deletions,
    with scattered syncs.  Returns the model at the last sync."""
    synced = {}
    live = {}
    for index in range(60):
        path = f"/f{index}"
        fs.create(path)
        payload = f"payload-{index}".encode() * (index % 4 + 1)
        fs.write_file(path, payload)
        live[path] = payload
        if index % 4 == 1:
            fs.rename(path, f"/r{index}")
            live[f"/r{index}"] = live.pop(path)
        if index % 5 == 2 and f"/f{index - 1}" in live:
            fs.unlink(f"/f{index - 1}")
            del live[f"/f{index - 1}"]
        if index % 3 == 0:
            fs.sync()
            synced = dict(live)
    fs.sync()
    return dict(live)


def write_span(substrate):
    """Writes ``mkfs`` makes, and writes in all once the workload is
    done, counted on a run with no crash plan."""
    injector = FaultInjector(plan=FaultPlan())
    _disk, ld = build(substrate, injector)
    fs = MinixFS.mkfs(ld, n_inodes=256)
    formatted = injector.writes_seen
    workload(fs)
    return formatted, injector.writes_seen


class TestExhaustiveCrashSweep:
    @pytest.mark.parametrize("substrate", ["lld", "jld"])
    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point(self, substrate, torn):
        formatted, limit = write_span(substrate)
        assert limit - formatted > 10, "workload too small to be interesting"
        for crash_after in range(formatted, limit + 1):
            cut = PowerCut(
                after_writes=crash_after, torn=torn, seed=crash_after
            )
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk, ld = build(substrate, injector=injector)
            fs = MinixFS.mkfs(ld, n_inodes=256)
            crashed = True
            try:
                workload(fs)
                crashed = False
            except DiskCrashedError:
                pass
            if not crashed:
                continue  # the budget outlived the workload
            ld2 = recover_any(substrate, disk)
            mounted = MinixFS.mount(ld2)
            report = fsck(mounted)
            assert report.clean, (
                substrate,
                torn,
                crash_after,
                [str(p) for p in report.problems][:3],
            )
            # Whatever survived is readable without errors.
            for name in mounted.listdir("/"):
                try:
                    mounted.read_file(f"/{name}")
                except LDError as exc:  # pragma: no cover - failure path
                    raise AssertionError(
                        f"{substrate} torn={torn} crash={crash_after}: "
                        f"{name} unreadable: {exc}"
                    )
