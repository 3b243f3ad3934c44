"""The frozen ``stats()`` schema: snapshot + conformance tests.

The snapshot below is a deliberate duplicate of
:data:`repro.obs.schema.STATS_SCHEMA` — flattened, sorted, typed.  A
failing comparison means the stats surface changed; if that change is
intentional, update *both* the schema module and this snapshot in the
same commit, so the surface never drifts silently.
"""

import pytest

from repro.obs.schema import (
    schema_paths,
    validate_artifact,
    validate_stats,
)

from tests.conftest import make_lld
from repro.lld.config import LLDConfig

#: The frozen surface.  Keep sorted; ``group.*`` marks an open group.
FROZEN_PATHS = [
    "active_arus:int",
    "arus_begun:int",
    "arus_committed:int",
    "cache_hits:int",
    "cache_misses:int",
    "checkpoint.bases:int",
    "checkpoint.bytes_written:int",
    "checkpoint.deltas:int",
    "checkpoint.last_seq:int",
    "checkpoint.payload_bytes:int",
    "checkpoint.writes:int",
    "cleaner.blocks_copied:int",
    "cleaner.damaged:int",
    "cleaner.passes:int",
    "cleaner.runs:int",
    "cleaner.segments_freed:int",
    "cleaner.segments_freed_unread:int",
    "cleaner.summaries_read:int",
    "cleanings:int",
    "cpu_counts.*:number",
    "cpu_us.*:number",
    "disk.batched_requests:int",
    "disk.batched_runs:int",
    "disk.busy_us:number",
    "disk.bytes_read:int",
    "disk.bytes_transferred:int",
    "disk.bytes_written:int",
    "disk.read_batches:int",
    "disk.reads:int",
    "disk.requests:int",
    "disk.sequential_requests:int",
    "disk.write_batched_requests:int",
    "disk.write_batched_runs:int",
    "disk.write_batches:int",
    "disk.writes:int",
    "free_segments:int",
    "group_commit.commits_grouped:int",
    "group_commit.enabled:bool",
    "group_commit.groups_flushed:int",
    "group_commit.parked:int",
    "obs.events_capacity:int",
    "obs.events_dropped:int",
    "obs.events_recorded:int",
    "obs.metrics_enabled:bool",
    "ops.*:int",
    "read_stream.gap_blocks:int",
    "read_stream.positioned:int",
    "read_stream.streamed:int",
    "read_stream.window_blocks:int",
    "read_stream.windows:int",
    "recovery.instant_restores:int",
    "recovery.on_demand_replays:int",
    "recovery.pending_segments:int",
    "recovery.restoring:bool",
    "recovery.scan_fallback:string",
    "recovery.scan_plan:string",
    "recovery.segments_attested:int",
    "recovery.segments_invalid:int",
    "recovery.segments_scanned:int",
    "recovery.watermark:int",
    "scrub.blocks_lost:int",
    "scrub.blocks_salvaged:int",
    "scrub.blocks_salvaged_stale:int",
    "scrub.degraded_reads:int",
    "scrub.pending_segments:int",
    "scrub.quarantined_segments:int",
    "scrub.salvaged_reads:int",
    "scrub.scrubs:int",
    "scrub.segments_quarantined:int",
    "scrub.unrecoverable_reads:int",
    "segments.avg_fill:number",
    "segments.data_bytes:int",
    "segments.flushed:int",
    "segments.in_place_writes:int",
    "segments.min_fill:number-or-null",
    "segments.sealed:int",
    "segments.summary_bytes:int",
    "segments_flushed:int",
    "writeback.auto_drains:int",
    "writeback.depth:int",
    "writeback.drains:int",
    "writeback.max_depth_seen:int",
    "writeback.queued:int",
    "writeback.submitted:int",
]


class TestFrozenSchema:
    def test_snapshot(self):
        assert schema_paths() == FROZEN_PATHS, (
            "the stats() schema changed — if intentional, update "
            "FROZEN_PATHS and repro.obs.schema together"
        )

    def test_fresh_lld_conforms(self):
        assert validate_stats(make_lld().stats()) == []

    def test_worked_lld_conforms(self):
        ld = make_lld(
            writeback_depth=4,
            group_commit=True,
            group_commit_timeout_us=1e12,
        )
        lst = ld.new_list()
        for index in range(8):
            aru = ld.begin_aru()
            block = ld.new_block(lst, aru=aru)
            ld.write(block, bytes([index + 1]) * 64, aru=aru)
            ld.end_aru(aru)
        ld.flush()
        ld.read_many([block])
        ld.scrub()
        assert validate_stats(ld.stats()) == []

    def test_metrics_disabled_still_conforms(self):
        ld = make_lld(metrics=False)
        lst = ld.new_list()
        ld.write(ld.new_block(lst), b"x")
        ld.flush()
        stats = ld.stats()
        assert validate_stats(stats) == []
        assert stats["obs"]["metrics_enabled"] is False


class TestValidation:
    def test_detects_missing_key(self):
        stats = make_lld().stats()
        del stats["cache_hits"]
        assert any("cache_hits: missing" in p for p in validate_stats(stats))

    def test_detects_extra_key(self):
        stats = make_lld().stats()
        stats["surprise"] = 1
        stats["scrub"]["novel"] = 2
        problems = validate_stats(stats)
        assert any("surprise: not in the frozen schema" in p
                   for p in problems)
        assert any("scrub.novel: not in the frozen schema" in p
                   for p in problems)

    def test_detects_type_mismatch(self):
        stats = make_lld().stats()
        stats["cleanings"] = "three"
        stats["group_commit"]["enabled"] = 1  # int is not bool
        problems = validate_stats(stats)
        assert any("cleanings" in p for p in problems)
        assert any("group_commit.enabled" in p for p in problems)

    def test_open_groups_accept_any_keys(self):
        stats = make_lld().stats()
        stats["ops"]["some_future_op"] = 3
        assert validate_stats(stats) == []
        stats["ops"]["bad"] = "nope"
        assert any("ops.bad" in p for p in validate_stats(stats))

    def test_validate_artifact_shapes(self):
        stats = make_lld().stats()
        assert validate_artifact(stats) == []  # bare stats dict
        artifact = {
            "experiment": "x",
            "variants": {"v": {"stats": stats}},
        }
        assert validate_artifact(artifact) == []
        assert validate_artifact({"variants": {}}) != []
        assert any(
            "missing 'stats'" in p
            for p in validate_artifact({"variants": {"v": {}}})
        )

    def test_validate_artifact_reports_nested_problems(self):
        stats = make_lld().stats()
        del stats["free_segments"]
        problems = validate_artifact(
            {"variants": {"broken": {"stats": stats}}}
        )
        assert any(
            p.startswith("variants.broken.stats: free_segments")
            for p in problems
        )

    def test_cli_roundtrip(self, tmp_path, capsys):
        import json

        from repro.obs.schema import main

        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_lld().stats()))
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variants": {"v": {}}}))
        assert main([str(bad)]) == 1
        assert main([]) == 2
        capsys.readouterr()


class TestStatsAreRegistryBacked:
    """stats() is a thin view over the registry: the numbers must be
    the same object of record, not parallel hand-maintained state."""

    def test_counters_agree(self):
        ld = make_lld()
        lst = ld.new_list()
        for _index in range(5):
            ld.write(ld.new_block(lst), b"payload")
        ld.flush()
        stats = ld.stats()
        metrics = ld.obs.metrics
        assert stats["segments_flushed"] == metrics.value(
            "lld.segments.flushed"
        )
        assert stats["ops"] == metrics.group_values("lld.ops.")
        assert stats["segments"]["sealed"] == metrics.value(
            "lld.segments.sealed"
        )
        assert stats["scrub"]["scrubs"] == metrics.value("lld.scrub.scrubs")
        assert stats["writeback"]["submitted"] == metrics.value(
            "lld.writeback.submitted"
        )

    def test_pending_scrub_counts_stay_live(self):
        # pending/quarantined are gauges over the usage table, not
        # registry counters — they must still track reality.
        ld = make_lld()
        stats = ld.stats()
        assert stats["scrub"]["pending_segments"] == 0
        assert stats["scrub"]["quarantined_segments"] == 0


class TestShardedStatsShape:
    """Sharded volumes report per-shard frozen-schema stats plus an
    aggregate view that is *itself* frozen-schema-conformant, so
    existing consumers read an array's totals unchanged."""

    def make_array(self, n=3):
        from repro.disk.geometry import DiskGeometry
        from repro.shard import build_sharded

        vol = build_sharded(
            n,
            geometry=DiskGeometry.small(num_segments=32),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        lists = [vol.new_list() for _ in range(n)]
        blocks = [vol.new_block(lst) for lst in lists]
        aru = vol.begin_aru()
        for block in blocks:
            vol.write(block, b"stats-payload", aru=aru)
        vol.end_aru(aru)
        return vol

    def test_per_shard_and_aggregate_conform(self):
        from repro.obs.schema import (
            is_sharded_stats,
            validate_any_stats,
            validate_sharded_stats,
        )

        stats = self.make_array().stats()
        assert is_sharded_stats(stats)
        assert validate_sharded_stats(stats) == []
        assert validate_any_stats(stats) == []
        assert sorted(stats["shards"]) == ["0", "1", "2"]
        for entry in stats["shards"].values():
            assert validate_stats(entry) == []
        assert validate_stats(stats["aggregate"]) == []

    def test_aggregate_sums_counters(self):
        stats = self.make_array().stats()
        per_shard = list(stats["shards"].values())
        agg = stats["aggregate"]
        assert agg["segments_flushed"] == sum(
            s["segments_flushed"] for s in per_shard
        )
        assert agg["arus_committed"] == sum(
            s["arus_committed"] for s in per_shard
        )
        assert agg["disk"]["writes"] == sum(
            s["disk"]["writes"] for s in per_shard
        )
        assert agg["obs"]["metrics_enabled"] is True

    def test_sharding_section(self):
        stats = self.make_array().stats()
        sharding = stats["sharding"]
        assert sharding["shards"] == 3
        assert sharding["commits_cross_shard"] == 1
        assert sharding["xids_issued"] == 1
        assert sharding["decided_pending"] == 1

    def test_validation_detects_sharded_drift(self):
        from repro.obs.schema import validate_sharded_stats

        stats = self.make_array().stats()
        del stats["shards"]["1"]["cache_hits"]
        stats["aggregate"]["surprise"] = 1
        stats["sharding"]["shards"] = "three"
        problems = validate_sharded_stats(stats)
        assert any(p.startswith("shards.1.cache_hits") for p in problems)
        assert any("aggregate.surprise" in p for p in problems)
        assert any("sharding.shards" in p for p in problems)

    def test_artifact_dispatches_on_shape(self):
        stats = self.make_array().stats()
        artifact = {
            "experiment": "shard",
            "variants": {
                "single": {"stats": make_lld().stats()},
                "sharded": {"stats": stats},
            },
        }
        assert validate_artifact(artifact) == []
        del stats["aggregate"]["cleanings"]
        assert any(
            "variants.sharded.stats: aggregate.cleanings" in p
            for p in validate_artifact(artifact)
        )

    def test_aggregate_of_single_dict_is_identity(self):
        from repro.obs.aggregate import aggregate_stats

        stats = make_lld().stats()
        assert aggregate_stats([stats]) == stats
