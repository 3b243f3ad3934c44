"""Crash recovery for sharded volumes.

:func:`repro.recovery.recover`, given a sequence of member disks,
rebuilds a :class:`~repro.shard.sharded.ShardedLLD` from a crashed
array (this module is its sharded half).  The decision shards —
shard 0 for an unreplicated array; shards ``0 .. k-1`` with
replication factor k — are recovered first, in ascending order, each
fed the union of the decided-xid sets surfaced so far; participants
then recover against the full union, each rolling a
PREPARE-tagged ARU forward iff its transaction id was decided and
discarding it otherwise (presumed abort).

Because a durable DECIDE implies every participant's PREPARE (and all
of the transaction's effects) were durable first, this resolves every
crash point to all-or-nothing across the whole array; because an
undecided PREPARE is discarded *everywhere*, no shard can expose half
a transaction.  With replication the same argument survives member
loss: DECIDEs are logged to the decision shards in ascending order
and a commit is acknowledged only once every surviving decision shard
holds it, so the union over any ``n - (k-1)`` surviving decision
shards is consistent — an unacknowledged commit may resolve either
way, but it resolves the *same* way on every surviving shard.

Members whose media is gone (``disks[i] is None``, or the scan raises
:class:`~repro.errors.ShardLostError` because the shared injector has
the shard marked lost) are skipped: the array assembles degraded,
serving their entities from the surviving replicas, and
:meth:`~repro.shard.sharded.ShardedLLD.repair` rebuilds them online.

Timing: each shard owns a private simulated clock, so recovering the
members one after another on the calling thread still yields the
parallel-array simulated time — every shard's clock advances by its
own recovery cost only, and the array's "now" is the furthest shard.
The report additionally breaks out the modelled critical path
(participants may scan and decode concurrently with the coordinator
but must wait for the coordinator's scan+decode to learn the decided
set before replaying) against the serial sum, which is what the
recovery benchmark and the ``shard`` harness experiment record.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.clock import CostModel
from repro.disk.simdisk import SimulatedDisk
from repro.errors import ShardLostError
from repro.lld.config import LLDConfig
from repro.lld.recovery import RecoveryReport, recover
from repro.shard.config import ArrayConfig
from repro.shard.sharded import ShardedLLD


@dataclasses.dataclass
class ShardRecoveryReport:
    """What recovering a sharded volume found and did."""

    shards: int
    #: Per-shard reports of the members that recovered, in shard
    #: order (lost members have no report; shard 0 — or the first
    #: surviving decision shard — leads).
    reports: List[RecoveryReport]
    #: Coordinator transaction ids known decided: the union over the
    #: surviving decision shards' checkpoints and logs.
    decided_xids: List[int]
    #: Union across shards of how prepared ARUs were resolved.
    xids_rolled_forward: List[int]
    xids_discarded: List[int]
    arus_prepared: int
    #: Modelled simulated time for the parallel array (critical path)
    #: and for recovering the same shards one after another.
    parallel_us: float
    serial_us: float
    speedup: float
    #: Simulated time until *every* shard can serve requests, on the
    #: same critical-path model (participants wait for the
    #: coordinator's decided set).  Equals ``parallel_us`` for eager
    #: recovery; far smaller under ``mode="instant"``.
    ttfr_us: float
    #: Host wall-clock seconds for the whole sharded recovery.
    wall_seconds: float
    #: Members whose media was gone; the array assembled degraded.
    dead_shards: List[int] = dataclasses.field(default_factory=list)

    # -- unified-report surface (shared with RecoveryReport) --

    @property
    def mode(self) -> str:
        """Recovery mode the members ran: ``"eager"`` or ``"instant"``."""
        return self.reports[0].mode if self.reports else "eager"

    @property
    def recovery_time_us(self) -> float:
        """Simulated recovery time of the array (critical path)."""
        return self.parallel_us


def _scan_decode_us(report: RecoveryReport) -> float:
    return report.phase_us.get("scan", 0.0) + report.phase_us.get(
        "decode", 0.0
    )


def _recover_sharded(
    disks: Sequence[Optional[SimulatedDisk]],
    workers: Optional[int] = None,
    array_config: Optional[ArrayConfig] = None,
    mode: Optional[str] = None,
    config: Optional[LLDConfig] = None,
    cost_model: Optional[CostModel] = None,
    sweep_orphans: bool = True,
) -> Tuple[ShardedLLD, ShardRecoveryReport]:
    """Recover every surviving shard and reassemble the array.

    Args:
        disks: The member disks in shard order (as produced by
            ``[shard.disk for shard in sharded.shards]``, possibly
            power-cycled).  A ``None`` entry — or a disk whose shard
            the fault injector has destroyed — is a lost member: the
            array assembles degraded around it.
        workers: The simulated decode lanes of every member's scan
            (checked by :func:`repro.recovery.recover`).
        array_config: The array's :class:`ArrayConfig`.  Must match
            the configuration the array ran with (in particular the
            replication factor, which determines the decision
            shards); ``None`` means unreplicated.
        mode, config, cost_model, sweep_orphans: Passed, as
            ``workers`` is, to every per-shard
            :func:`repro.lld.recovery.recover` call alike.

    Returns:
        The reassembled volume and a :class:`ShardRecoveryReport`.
    """
    if not disks:
        raise ValueError("repro.recover needs at least one member disk")
    wall_start = time.perf_counter()
    n = len(disks)
    acfg = array_config or ArrayConfig()
    decision = list(range(min(max(acfg.replication_factor, 1), n)))

    shards: List[Optional[object]] = [None] * n
    reports_by_shard: Dict[int, RecoveryReport] = {}
    dead: Dict[int, str] = {}
    decided: Set[int] = set()

    def _one(index: int, decided_now: Set[int]) -> None:
        disk = disks[index]
        if disk is None:
            dead[index] = "media missing"
            return
        try:
            lld, report = recover(
                disk,
                decided_xids=set(decided_now),
                workers=workers,
                mode=mode,
                config=config,
                cost_model=cost_model,
                sweep_orphans=sweep_orphans,
            )
        except ShardLostError as exc:
            dead[index] = str(exc)
            return
        shards[index] = lld
        reports_by_shard[index] = report

    # Decision shards first, serially in ascending order: each one's
    # replay may need DECIDEs that only an earlier decision shard
    # holds (they are logged in ascending order), and every
    # participant's replay needs the full union.
    for index in decision:
        _one(index, decided)
        shard = shards[index]
        if shard is not None:
            decided.update(shard._decided_xids)

    for index in range(n):
        if index not in decision:
            _one(index, decided)

    if all(shard is None for shard in shards):
        raise ShardLostError(0, "every member of the array is lost")

    volume = ShardedLLD(shards, array_config=acfg, dead=dead)
    reports = [reports_by_shard[i] for i in sorted(reports_by_shard)]
    volume._next_xid = max(r.max_xid for r in reports) + 1

    # Replicas may have diverged at the crash point (a simple mirror
    # write flushed where the home write did not, or vice versa);
    # reconcile them against the home copies.  Under instant restore
    # the tables are not final yet, so the resync is deferred to
    # complete_restore().
    if acfg.replication_factor > 1:
        if volume.restore_active:
            volume._resync_pending = True
        else:
            volume.resync()

    # Critical path of the parallel array: every shard scans and
    # decodes its own log concurrently, but a participant's replay
    # cannot start before the coordinator's scan+decode has surfaced
    # the decided set.
    lead = sorted(reports_by_shard)[0]
    report0 = reports_by_shard[lead]
    sd0 = _scan_decode_us(report0)
    parallel_us = report0.recovery_time_us
    ttfr_us = report0.ttfr_us
    for index in sorted(reports_by_shard):
        if index == lead:
            continue
        report = reports_by_shard[index]
        sd = _scan_decode_us(report)
        rest = report.recovery_time_us - sd
        parallel_us = max(parallel_us, max(sd, sd0) + rest)
        ttfr_us = max(ttfr_us, max(sd, sd0) + (report.ttfr_us - sd))
    serial_us = sum(r.recovery_time_us for r in reports)

    rolled: Set[int] = set()
    discarded: Set[int] = set()
    for report in reports:
        rolled.update(report.xids_rolled_forward)
        discarded.update(report.xids_discarded)

    summary = ShardRecoveryReport(
        shards=n,
        reports=reports,
        decided_xids=sorted(decided),
        xids_rolled_forward=sorted(rolled),
        xids_discarded=sorted(discarded),
        arus_prepared=sum(r.arus_prepared for r in reports),
        parallel_us=parallel_us,
        serial_us=serial_us,
        speedup=(serial_us / parallel_us) if parallel_us > 0 else 1.0,
        ttfr_us=ttfr_us,
        wall_seconds=time.perf_counter() - wall_start,
        dead_shards=sorted(dead),
    )
    volume.shards[lead].obs.record(
        "shard.recovered",
        shards=summary.shards,
        dead=len(summary.dead_shards),
        decided=len(summary.decided_xids),
        rolled_forward=len(summary.xids_rolled_forward),
        discarded=len(summary.xids_discarded),
        parallel_us=round(parallel_us, 3),
        serial_us=round(serial_us, 3),
    )
    return volume, summary
