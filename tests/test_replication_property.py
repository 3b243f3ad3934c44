"""Property-based differential test: replication is invisible.

With no faults injected, a replicated array (rf=2) must be
observationally identical to an unreplicated one (rf=1) running the
same operation sequence — same read-back, same list membership,
before and after a power-cycle + unified recovery.  Replication may
only change *where* bytes land, never *what* the client sees.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.disk.geometry import DiskGeometry
from repro.lld.config import LLDConfig
from repro.recovery import recover
from repro.shard import build_sharded
from repro.shard.config import ArrayConfig

N_SHARDS = 3

ops = st.lists(
    st.one_of(
        st.tuples(st.just("new_list")),
        st.tuples(st.just("new_block"), st.integers(0, 15)),
        st.tuples(
            st.just("write"), st.integers(0, 40), st.binary(min_size=1, max_size=48)
        ),
        st.tuples(st.just("delete_block"), st.integers(0, 40)),
        st.tuples(st.just("delete_list"), st.integers(0, 15)),
        st.tuples(
            st.just("txn"),
            st.lists(
                st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=32)),
                min_size=1,
                max_size=5,
            ),
            st.booleans(),  # commit or abort
        ),
    ),
    max_size=30,
)


def build_array(rf):
    return build_sharded(
        N_SHARDS,
        geometry=DiskGeometry.small(num_segments=64),
        config=LLDConfig(checkpoint_slot_segments=2),
        array_config=ArrayConfig(replication_factor=rf),
    )


def apply_ops(vol, op_list):
    """Drive one array, addressing entities by logical index so the
    same script fits arrays whose identifier streams differ."""
    lists = []  # logical index -> list id (or None once deleted)
    blocks = []  # logical index -> (block id or None, owning list index)
    for op in op_list:
        if op[0] == "new_list":
            lists.append(vol.new_list())
        elif op[0] == "new_block":
            live = [i for i, l in enumerate(lists) if l is not None]
            if not live:
                continue
            owner = live[op[1] % len(live)]
            blocks.append((vol.new_block(lists[owner]), owner))
        elif op[0] == "write":
            live = [b for b, _ in blocks if b is not None]
            if not live:
                continue
            vol.write(live[op[1] % len(live)], op[2])
        elif op[0] == "delete_block":
            live_idx = [i for i, (b, _) in enumerate(blocks) if b is not None]
            if not live_idx:
                continue
            index = live_idx[op[1] % len(live_idx)]
            vol.delete_block(blocks[index][0])
            blocks[index] = (None, blocks[index][1])
        elif op[0] == "delete_list":
            live_idx = [i for i, l in enumerate(lists) if l is not None]
            if not live_idx:
                continue
            index = live_idx[op[1] % len(live_idx)]
            vol.delete_list(lists[index])
            lists[index] = None
            blocks = [
                (None, owner) if owner == index else (b, owner)
                for b, owner in blocks
            ]
        elif op[0] == "txn":
            live = [b for b, _ in blocks if b is not None]
            if not live:
                continue
            aru = vol.begin_aru()
            for which, data in op[1]:
                vol.write(live[which % len(live)], data, aru=aru)
            if op[2]:
                vol.end_aru(aru)
            else:
                vol.abort_aru(aru)
    vol.flush()
    return lists, blocks


def observe(vol, lists, blocks):
    """Everything a client can see: block contents + list membership
    sizes (ids differ across rf, so compare counts, not values)."""
    contents = [None if b is None else vol.read(b) for b, _ in blocks]
    memberships = [
        None if l is None else len(vol.list_blocks(l)) for l in lists
    ]
    return contents, memberships


class TestReplicationInvisible:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(op_list=ops)
    def test_rf2_matches_rf1(self, op_list):
        plain = build_array(rf=1)
        mirrored = build_array(rf=2)
        plain_ids = apply_ops(plain, op_list)
        mirrored_ids = apply_ops(mirrored, op_list)

        # Identifier streams are identical too: replication allocates
        # mirrors in a disjoint system range, never perturbing user ids.
        assert plain_ids[0] == mirrored_ids[0]
        assert [b for b, _ in plain_ids[1]] == [b for b, _ in mirrored_ids[1]]

        expected = observe(plain, *plain_ids)
        assert observe(mirrored, *mirrored_ids) == expected

        # ... and still identical after crash + unified recovery.
        plain2, _ = recover(
            [shard.disk.power_cycle() for shard in plain.shards]
        )
        mirrored2, _ = recover(
            [shard.disk.power_cycle() for shard in mirrored.shards],
            array_config=mirrored.config,
        )
        assert observe(plain2, *plain_ids) == expected
        assert observe(mirrored2, *mirrored_ids) == expected
