"""The version engine on its own: fresh tables, a clock, and a log
sink that appends to a Python list — no disk, no segment buffer.

``Volume`` below is the whole of what a substrate adds around the
engine to speak the LD operations these tests need: id allocation
(committed at once, Section 3.3) and the clock ticks LLD spends on
it, so the differential test can compare timestamps too.
"""

import ast
import pathlib
import random

import pytest

from repro.core.aru import ARUTable
from repro.core.engine import VersionEngine
from repro.core.oplog import ListOp, ListOpKind
from repro.core.records import iter_chain
from repro.core.tables import BlockNumberMap, ListTable
from repro.core.versions import VersionState
from repro.core.visibility import Visibility
from repro.disk.clock import CostMeter, CostModel, SimClock
from repro.errors import ConcurrencyError
from repro.ld.types import BlockId, ListId, PhysAddr


class ListSink:
    """A :class:`~repro.core.engine.LogSink` that keeps every record
    in ``records`` and lets the test say what is durable."""

    def __init__(self):
        self.records = []
        self.retired = []
        #: ``successor`` of each :attr:`retired` address, in step.
        self.successors = []
        self.log_seq = 1
        self.written_seq = 0
        self.committed_tags = set()

    def log_write(self, block_id, data, aru_tag, ts):
        self.records.append(("WRITE", aru_tag, ts, int(block_id)))
        return PhysAddr(self.log_seq, len(self.records))

    def log_link(self, aru_tag, ts, list_id, block_id, predecessor):
        self.records.append(("LINK", aru_tag, ts, list_id, block_id, predecessor))

    def log_delete_block(self, aru_tag, ts, block_id, list_id):
        self.records.append(("DELETE_BLOCK", aru_tag, ts, block_id, list_id))

    def log_delete_list(self, aru_tag, ts, list_id):
        self.records.append(("DELETE_LIST", aru_tag, ts, list_id))

    def retire_address(self, addr, successor=None):
        self.retired.append(addr)
        self.successors.append(successor)


class Volume:
    """Engine + allocation: LD calls over a list-backed log."""

    def __init__(self, visibility=Visibility.ARU_LOCAL, concurrent=True):
        self.clock = SimClock()
        self.sink = ListSink()
        self.arus = ARUTable(concurrent=concurrent)
        self.engine = VersionEngine(
            BlockNumberMap(),
            ListTable(),
            self.arus,
            CostMeter(self.clock, CostModel()),
            visibility,
            self.sink,
        )
        self._next = {"block": 1, "list": 1}

    def _allocate(self, table, kind):
        ident = self._next[kind]
        self._next[kind] += 1
        self.engine.allocate(table, ident, self.clock.tick())
        return ident

    def begin_aru(self):
        return self.arus.begin(self.clock.tick()).aru_id

    def new_list(self, aru=None):
        self.engine.context(aru)
        return ListId(self._allocate(self.engine.lists, "list"))

    def new_block(self, list_id, aru=None):
        record, ctx, tag = self.engine.context(aru)
        block_id = BlockId(self._allocate(self.engine.blocks, "block"))
        op = ListOp(ListOpKind.INSERT, list_id, block_id, None)
        self.engine.execute(op, record, ctx, tag)
        return block_id

    def write(self, block_id, data, aru=None):
        _record, ctx, tag = self.engine.context(aru)
        if ctx is not None:
            self.engine.shadow_write(block_id, data, ctx)
        else:
            self.engine.commit_write(block_id, data, tag)

    def delete_block(self, block_id, aru=None):
        record, ctx, tag = self.engine.context(aru)
        view = self.engine.view(self.engine.blocks, block_id, ctx)
        op = ListOp(ListOpKind.DELETE_BLOCK, view.list_id, block_id)
        self.engine.execute(op, record, ctx, tag)

    def delete_list(self, list_id, aru=None):
        record, ctx, tag = self.engine.context(aru)
        self.engine.execute(
            ListOp(ListOpKind.DELETE_LIST, list_id), record, ctx, tag
        )

    def end_aru(self, aru):
        self.engine.merge(self.arus.get(aru))
        self.clock.tick()  # the commit record's timestamp
        self.arus.finish(aru, committed=True)

    def abort_aru(self, aru):
        self.engine.discard(self.arus.finish(aru, committed=False))

    def flush(self, *committed):
        """Everything logged so far is written; ``committed`` ARUs'
        commit records are on disk."""
        self.sink.written_seq = self.sink.log_seq
        self.sink.log_seq += 1
        self.sink.committed_tags.update(int(tag) for tag in committed)
        self.engine.fold(self.sink.written_seq, self.sink.committed_tags)

    def read(self, block_id, aru=None):
        return self.engine.visible(self.engine.blocks, block_id, aru)

    def chain(self, table, ident):
        """Every version of one id: alternatives, then persistent."""
        persistent = table.persistent.get(ident)
        return list(iter_chain(table.alts.get(ident))) + [persistent] * (
            persistent is not None
        )


def table_state(volume):
    """Both tables and both committed chains, by value."""
    engine = volume.engine
    return (
        [
            (ident, [repr(v) for v in volume.chain(table, ident)])
            for table in (engine.blocks, engine.lists)
            for ident in table.ids()
        ],
        [repr(v) for v in engine.committed_blocks],
        [repr(v) for v in engine.committed_lists],
    )


class TestVersions:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_n_arus_give_n_plus_two_versions(self, n):
        volume = Volume()
        lst = volume.new_list()
        block = volume.new_block(lst)
        volume.write(block, b"persistent")
        volume.flush()
        volume.write(block, b"committed")
        arus = [volume.begin_aru() for _ in range(n)]
        for aru in arus:
            volume.write(block, b"shadow of %d" % aru, aru=aru)
        chain = volume.chain(volume.engine.blocks, block)
        assert len(chain) == n + 2
        states = [version.state for version in chain]
        assert states.count(VersionState.SHADOW) == n
        assert states.count(VersionState.COMMITTED) == 1
        assert states.count(VersionState.PERSISTENT) == 1
        assert sorted(v.aru_id for v in chain[:n]) == arus

    def test_each_visibility_option_reads_the_version_it_names(self):
        """docs/SEMANTICS.md § 3, one option at a time."""

        def versions(policy):
            volume = Volume(visibility=policy)
            block = volume.new_block(volume.new_list())
            volume.write(block, b"committed")
            first, second = volume.begin_aru(), volume.begin_aru()
            volume.write(block, b"first", aru=first)
            volume.write(block, b"second", aru=second)
            return volume, block, first, second

        volume, block, first, second = versions(Visibility.MOST_RECENT_SHADOW)
        for reader in (None, first, second):
            assert volume.read(block, reader).data == b"second"

        volume, block, first, second = versions(Visibility.COMMITTED_ONLY)
        for reader in (None, first, second):
            seen = volume.read(block, reader)
            assert seen.state is VersionState.COMMITTED and seen.data is None

        volume, block, first, second = versions(Visibility.ARU_LOCAL)
        assert volume.read(block, first).data == b"first"
        assert volume.read(block, second).data == b"second"
        assert volume.read(block).state is VersionState.COMMITTED

    def test_sequential_baseline_runs_in_the_committed_state(self):
        volume = Volume(concurrent=False)
        lst = volume.new_list()
        aru = volume.begin_aru()
        record, ctx, tag = volume.engine.context(aru)
        assert record is not None and ctx is None and tag == int(aru)
        block = volume.new_block(lst, aru=aru)
        assert volume.sink.records[-1][:2] == ("LINK", tag)
        assert not list(record.shadow_blocks) and not len(record.oplog)
        assert volume.read(block).list_id == lst


class TestCommitAndAbort:
    def test_list_operations_reach_the_sink_only_at_commit(self):
        volume = Volume()
        lst = volume.new_list()
        doomed = volume.new_list()
        old = volume.new_block(lst)
        volume.new_block(doomed)
        before = list(volume.sink.records)
        aru = volume.begin_aru()
        new = volume.new_block(lst, aru=aru)
        volume.write(new, b"data", aru=aru)
        volume.delete_block(old, aru=aru)
        volume.delete_list(doomed, aru=aru)
        assert volume.sink.records == before
        volume.end_aru(aru)
        tag = int(aru)
        emitted = volume.sink.records[len(before):]
        assert [(r[0], r[1]) for r in emitted] == [
            ("WRITE", tag),
            ("LINK", tag),
            ("DELETE_BLOCK", tag),
            ("DELETE_LIST", tag),
        ]
        assert emitted[1][3:] == (int(lst), int(new), 0)
        assert emitted[2][3:] == (int(old), int(lst))
        assert emitted[3][3:] == (int(doomed),)

    def test_abort_leaves_tables_and_chains_as_they_were(self):
        volume = Volume()
        lst = volume.new_list()
        block = volume.new_block(lst)
        volume.write(block, b"kept")
        volume.flush()
        volume.write(block, b"committed, not folded")
        before = table_state(volume)
        records = list(volume.sink.records)
        aru = volume.begin_aru()
        volume.write(block, b"never", aru=aru)
        volume.delete_block(block, aru=aru)
        volume.delete_list(lst, aru=aru)
        assert table_state(volume) != before
        volume.abort_aru(aru)
        assert table_state(volume) == before
        assert volume.sink.records == records
        assert volume.sink.retired == []

    def test_conflict_is_the_owner_s_call(self):
        """The engine itself refuses the loser of a structural conflict."""
        volume = Volume()
        block = volume.new_block(volume.new_list())
        first, second = volume.begin_aru(), volume.begin_aru()
        volume.delete_block(block, aru=first)
        volume.delete_block(block, aru=second)
        volume.end_aru(first)
        with pytest.raises(ConcurrencyError):
            volume.end_aru(second)


class TestFold:
    def test_fold_waits_for_the_write_and_for_the_commit_record(self):
        volume = Volume()
        engine, sink = volume.engine, volume.sink
        lst = volume.new_list()
        simple = volume.new_block(lst)
        volume.write(simple, b"simple")
        aru = volume.begin_aru()
        tagged = volume.new_block(lst, aru=aru)
        volume.write(tagged, b"tagged", aru=aru)
        volume.end_aru(aru)

        def persistent(block):
            return block in engine.blocks.persistent

        # Nothing written yet: nothing folds, whatever is committed.
        engine.fold(sink.written_seq, {int(aru)})
        assert not persistent(simple) and not persistent(tagged)
        assert len(engine.committed_blocks) == 2
        # Written, commit record not: simple operations fold, and of
        # the ARU only its allocation (committed at once, untagged).
        sink.written_seq = sink.log_seq
        engine.fold(sink.written_seq, set())
        assert persistent(simple)
        assert engine.blocks.persistent[simple].address is not None
        assert [int(v.origin_aru) for v in engine.committed_blocks] == [int(aru)]
        assert [int(v.origin_aru) for v in engine.committed_lists] == [int(aru)]
        # A commit record for somebody else changes nothing.
        engine.fold(sink.written_seq, {int(aru) + 1})
        assert len(engine.committed_blocks) == 1
        # Both: the ARU's records fold.
        engine.fold(sink.written_seq, {int(aru)})
        assert len(engine.committed_blocks) == len(engine.committed_lists) == 0
        assert engine.blocks.persistent[tagged].list_id == lst
        assert engine.lists.persistent[lst].count == 2

    def test_fold_retires_superseded_and_dead_addresses(self):
        volume = Volume()
        block = volume.new_block(volume.new_list())
        volume.write(block, b"one")
        volume.flush()
        first = volume.engine.blocks.persistent[block].address
        volume.write(block, b"two")
        volume.flush()
        assert volume.sink.retired == [first]
        second = volume.engine.blocks.persistent[block].address
        # A rewrite names where the block's data went ...
        assert volume.sink.successors == [second]
        volume.delete_block(block)
        volume.flush()
        assert volume.sink.retired == [first, second]
        # ... a deletion, nowhere.
        assert volume.sink.successors == [second, None]
        assert block not in volume.engine.blocks.ids()


class TestAgainstLLD:
    """The engine with a list for a log emits what LLD puts in its
    segment buffer for the same calls: kinds, tags, ids, timestamps
    (a WRITE's slot is placement, the sink's business, and left out)."""

    FIELDS = {"WRITE": 1, "LINK": 3, "DELETE_BLOCK": 2, "DELETE_LIST": 1}

    def test_seeded_sequence_emits_lld_s_records(self):
        # The only test here that needs a disk: imported where used.
        from repro.disk.geometry import DiskGeometry
        from repro.disk.simdisk import SimulatedDisk
        from repro.lld.lld import LLD

        # One segment holds the whole run, so the buffer is the log.
        geometry = DiskGeometry(
            block_size=4096, segment_size=1024 * 1024, num_segments=12
        )
        lld = LLD(SimulatedDisk(geometry))
        volume = Volume()
        for ld in (lld, volume):
            self.drive(ld, random.Random(1996))
        expected = [
            (entry.kind.name, entry.aru_tag, entry.timestamp)
            + (entry.a, entry.b, entry.c)[: self.FIELDS[entry.kind.name]]
            for entry in lld._buffer.entries
            if entry.kind.name in self.FIELDS
        ]
        assert lld._buffer.seq == 1 and len(expected) > 150
        assert {record[0] for record in expected} == set(self.FIELDS)
        assert volume.sink.records == expected

    @staticmethod
    def drive(ld, rng):
        """Rounds of three ARUs and one simple stream, each on a list
        of its own (so nothing conflicts), interleaved step by step;
        what happens is decided by ``rng`` alone."""
        members = {}
        for _ in range(6):
            lst = ld.new_list()
            members[lst] = [ld.new_block(lst) for _ in range(3)]
        for _round in range(14):
            lists = sorted(members)
            rng.shuffle(lists)
            streams = [(ld.begin_aru(), lists.pop()) for _ in range(3)]
            streams.append((None, lists.pop()))
            work = {lst: list(members[lst]) for _aru, lst in streams}
            for _step in range(5):
                for aru, lst in streams:
                    blocks = work[lst]
                    if blocks is None:
                        continue  # the stream deleted its list
                    roll = rng.random()
                    if roll < 0.35 or not blocks:
                        blocks.append(ld.new_block(lst, aru=aru))
                    elif roll < 0.75:
                        ld.write(rng.choice(blocks), b"%f" % roll, aru=aru)
                    elif roll < 0.95:
                        victim = blocks.pop(rng.randrange(len(blocks)))
                        ld.delete_block(victim, aru=aru)
                    else:
                        ld.delete_list(lst, aru=aru)
                        work[lst] = None
            for aru, lst in streams:
                if aru is not None and rng.random() < 0.2:
                    ld.abort_aru(aru)
                    continue
                if aru is not None:
                    ld.end_aru(aru)
                if work[lst] is None:
                    del members[lst]
                    new = ld.new_list()
                    members[new] = [ld.new_block(new)]
                else:
                    members[lst] = work[lst]


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def import_closure(module):
    """``repro`` modules reachable from ``module`` through import
    statements, with the packages they sit in — except the top-level
    ``repro`` package, the facade that imports every layer."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        path = SRC.joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        if name in seen or name == "repro" or not path.exists():
            continue
        seen.add(name)
        todo.append(name.rpartition(".")[0])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                todo.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                todo.append(node.module)
                todo.extend(f"{node.module}.{a.name}" for a in node.names)
    return seen


class TestLayering:
    def test_engine_imports_no_disk_and_no_lld(self):
        closure = import_closure("repro.core.engine")
        assert "repro.core.records" in closure  # the walk walks
        assert not {
            name for name in closure
            if name.startswith(("repro.lld", "repro.disk"))
        }

    def test_core_names_nothing_from_lld_or_the_disk(self):
        for path in (SRC / "repro" / "core").glob("*.py"):
            closure = import_closure(f"repro.core.{path.stem}")
            assert not closure & {
                "repro.disk.simdisk",
                "repro.lld.lld",
                "repro.lld.segment",
                "repro.lld.usage",
            }, path.name
