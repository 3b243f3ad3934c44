"""What recoveries of one platter must agree on.

The start of the single oracle module ROADMAP item 1 asks for: the
comparisons every recovery test makes, written once.
:func:`recoveries_agree` makes all of them on one platter.  Two views
of a ``(volume, report)`` pair:

* :func:`state_fingerprint` — everything recovery *rebuilds*.  Equal
  across implementations (``recover`` in either mode,
  ``reference_recover``), across repeated recoveries of one platter,
  and across read plans.
* :func:`read_plan` — how the scan *read the disk* to get there.
  ``reference_recover`` reads every segment and ``recover`` walks, so
  this is compared between eager and instant only: the mode never
  changes the plan.

:func:`platter_bytes` is the platter as a test may keep it: a segment
written in place is a live ``bytearray`` on the disk, so a copy taken
with ``dict(disk._segments)`` would change along with the disk.

:func:`assert_live` is ROADMAP item 1's liveness half: a recovered
volume can go on, and its cleaner can free segments again.

:func:`assert_replicas_agree` is the replica oracle of a replicated
array: every mirror of a live home list is the home's list, member for
member and byte for byte, and no member keeps a mirror its live home
does not back.
"""

from repro.ld.types import SYSTEM_ID_BASE
from repro.lld.checkpoint import snapshot_checkpoint
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover
from repro.lld.verify import verify_lld
from repro.shard.sharded import mirror_id, shard_of, to_global, to_local


def platter_bytes(disk):
    """Segment number -> a ``bytes`` copy of what the platter holds."""
    return {seg: bytes(raw) for seg, raw in disk._segments.items()}


def state_fingerprint(lld, report):
    """Everything recovery rebuilds, in comparable form."""
    return {
        "checkpoint": lld.checkpoints._serialize(snapshot_checkpoint(lld)),
        "free_count": lld.usage.free_count,
        "dirty": sorted(lld.usage.dirty_segments()),
        "buffer_segment": (
            lld._buffer.segment_no if lld._buffer is not None else None
        ),
        "next_block": lld._next_block_id,
        "next_list": lld._next_list_id,
        "next_seq": lld._next_seq,
        "commit_on_disk": set(lld._commit_on_disk),
        "report": (
            report.checkpoint_seq,
            report.segments_replayed,
            report.segments_unreadable,
            report.entries_replayed,
            report.entries_discarded,
            report.replay_conflicts,
            report.arus_committed,
            report.arus_discarded,
            tuple(report.discarded_aru_ids),
            tuple(report.orphan_blocks_freed),
        ),
    }


def read_plan(report):
    """Which segments the scan read and what it made of them."""
    return (
        report.scan_plan,
        report.scan_fallback,
        report.segments_scanned,
        report.segments_attested,
        report.scan_last_segment,
        report.segments_invalid,
    )


def assert_live(volume):
    """With no ARU active the tables capture the log
    (``checkpoint_safe()``), and a flush and a cleaner pass run without
    raising and leave it so.  Writes to the volume's platter."""
    assert volume.arus.active_count == 0
    assert volume.checkpoint_safe()
    volume.flush()
    volume.clean()
    assert volume.checkpoint_safe()


def recoveries_agree(disk, config):
    """Reference, eager and instant recovery (drained with
    ``complete_restore``) rebuild one sound state from one platter and
    leave the platter as they found it; eager and instant read the
    disk the same way, an eager volume shows no trace of the restore it
    ran to completion, and every volume is live (:func:`assert_live`).
    Returns the eager volume and its report, as recovered."""
    platter = platter_bytes(disk)
    reference, reference_report = reference_recover(
        disk.power_cycle(), config=config
    )
    eager, eager_report = recover(disk.power_cycle(), config=config)
    instant, instant_report = recover(
        disk.power_cycle(), mode="instant", config=config
    )
    instant.complete_restore()
    assert (eager_report.mode, instant_report.mode) == ("eager", "instant")
    assert not instant.restore_active
    want = state_fingerprint(reference, reference_report)
    for volume, report in ((eager, eager_report), (instant, instant_report)):
        assert state_fingerprint(volume, report) == want
        assert verify_lld(volume) == []
    assert read_plan(instant_report) == read_plan(eager_report)
    assert verify_lld(reference) == []
    assert platter_bytes(disk) == platter
    stats = eager.stats()["recovery"]
    assert stats["instant_restores"] == stats["on_demand_replays"] == 0
    assert not stats["restoring"]
    events = {e["event"] for e in eager.obs.recorder.events()}
    assert not events & {"restore.open", "restore.complete"}
    # The liveness check writes: each volume goes on over a platter of
    # its own, and the eager volume checked is a twin, so the one
    # returned stays as recovered.
    twin, _report = recover(disk.power_cycle(), config=config)
    for volume in (reference, twin, instant):
        volume.disk._segments = platter_bytes(volume.disk)
        assert_live(volume)
    return eager, eager_report


def _holds(volume, table, local):
    view = volume.engine.view(table, local, None)
    return view is not None and view.allocated


def assert_replicas_agree(array):
    """Every live ring peer's mirror of a live home list holds the
    home's members in order (as ``mirror_id``s) and the home's bytes,
    and no live member holds a mirror list or a mirror block whose
    live home lacks it.  Reads every list and block of the array; call
    it with no ARU active and no restore pending."""
    n = array.n
    for home, volume in enumerate(array.shards):
        if volume is None:
            continue
        for local in sorted(volume.ltable.ids()):
            if local >= SYSTEM_ID_BASE or not _holds(
                volume, volume.ltable, local
            ):
                continue
            gid = to_global(local, home, n)
            members = volume.list_blocks(local)
            want = [mirror_id(to_global(b, home, n)) for b in members]
            for peer in array._alive_peers(home):
                mirror = array.shards[peer]
                assert mirror.list_blocks(mirror_id(gid)) == want, (
                    gid,
                    peer,
                )
                for block, copy in zip(members, want):
                    assert mirror.read(copy) == volume.read(block), (
                        to_global(block, home, n),
                        peer,
                    )
    for member, volume in enumerate(array.shards):
        if volume is None:
            continue
        for table, kind in ((volume.ltable, "list"), (volume.bmap, "block")):
            for local in sorted(table.ids()):
                if local < SYSTEM_ID_BASE or not _holds(volume, table, local):
                    continue
                gid = local - SYSTEM_ID_BASE
                home = shard_of(gid, n)
                owner = array.shards[home]
                if owner is None:
                    continue  # the surviving copy of a lost home
                home_table = owner.ltable if kind == "list" else owner.bmap
                assert member in array._peers(home), (kind, gid, member)
                assert _holds(owner, home_table, to_local(gid, n)), (
                    kind,
                    gid,
                    member,
                )
