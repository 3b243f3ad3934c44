"""Differential testing: LLD, JLD and the reference model must agree
on every visible behaviour.

LLD and JLD run one version engine (:mod:`repro.core.engine`) over two
substrates, so their agreement checks the substrates; the model
(``tests/model.py``) shares nothing with either but the interface and
docs/SEMANTICS.md, so agreement with it checks the engine.  Identical
operation sequences must give identical outcomes on all three: data
read (one block at a time and through ``read_many``), list members,
error type names.

One stop: when the model refuses an EndARU, all three must raise
``ConcurrencyError``, and the sequence ends there, because both
substrates keep half of the refused ARU (ROADMAP item 1(c)).  The
strict xfail ``test_refused_aru_leaves_nothing`` goes past that stop.

``python -m tests.test_differential N`` runs N examples.
"""

import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.visibility import Visibility
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import LDError
from repro.jld import JLD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD

from tests.model import Model


def build_trio(visibility=Visibility.ARU_LOCAL):
    geo = DiskGeometry.small(num_segments=96)
    lld = LLD(
        SimulatedDisk(geo),
        config=LLDConfig(checkpoint_slot_segments=2, visibility=visibility),
    )
    jld = JLD(
        SimulatedDisk(geo),
        journal_segments=8,
        checkpoint_slot_segments=2,
        visibility=visibility,
    )
    return lld, jld, Model(geo.block_size, visibility)


def run_op(ld, op, state):
    """Execute one abstract op; returns (kind, outcome) where errors
    collapse to their type name."""
    kind = op[0]
    try:
        if kind == "new_list":
            lid = ld.new_list()
            state["lists"].append(lid)
            return ("list", int(lid))
        if kind == "new_block":
            if not state["lists"]:
                return ("skip", None)
            lid = state["lists"][op[1] % len(state["lists"])]
            if state["blocks"] and op[2] % 3 == 0:
                pred = state["blocks"][op[1] % len(state["blocks"])]
                bid = ld.new_block(lid, predecessor=pred, aru=_aru(state, op))
            else:
                bid = ld.new_block(lid, aru=_aru(state, op))
            state["blocks"].append(bid)
            return ("block", int(bid))
        if kind == "write":
            if not state["blocks"]:
                return ("skip", None)
            bid = state["blocks"][op[1] % len(state["blocks"])]
            ld.write(bid, op[3], aru=_aru(state, op))
            return ("ok", None)
        if kind == "read":
            if not state["blocks"]:
                return ("skip", None)
            bid = state["blocks"][op[1] % len(state["blocks"])]
            return ("data", ld.read(bid, aru=_aru(state, op)))
        if kind == "read_many":
            if not state["blocks"]:
                return ("skip", None)
            bids = [state["blocks"][i % len(state["blocks"])] for i in op[1]]
            return ("data", ld.read_many(bids, aru=_aru(state, op)))
        if kind == "delete_block":
            if not state["blocks"]:
                return ("skip", None)
            bid = state["blocks"][op[1] % len(state["blocks"])]
            ld.delete_block(bid, aru=_aru(state, op))
            return ("ok", None)
        if kind == "delete_list":
            if not state["lists"]:
                return ("skip", None)
            lid = state["lists"][op[1] % len(state["lists"])]
            ld.delete_list(lid, aru=_aru(state, op))
            return ("ok", None)
        if kind == "list_blocks":
            if not state["lists"]:
                return ("skip", None)
            lid = state["lists"][op[1] % len(state["lists"])]
            return (
                "members",
                [int(b) for b in ld.list_blocks(lid, aru=_aru(state, op))],
            )
        if kind == "begin":
            aru = ld.begin_aru()
            state["arus"].append(aru)
            return ("aru", None)
        if kind == "end":
            if not state["arus"]:
                return ("skip", None)
            aru = state["arus"].pop(op[1] % len(state["arus"]))
            ld.end_aru(aru)
            return ("ok", None)
        if kind == "abort":
            if not state["arus"]:
                return ("skip", None)
            aru = state["arus"].pop(op[1] % len(state["arus"]))
            ld.abort_aru(aru)
            return ("ok", None)
        if kind == "flush":
            ld.flush()
            return ("ok", None)
        raise AssertionError(f"unknown op {kind}")
    except LDError as exc:
        return ("error", type(exc).__name__)


def _aru(state, op):
    """Deterministically choose an active ARU (or None) for the op: an
    odd ``op[2]`` picks one, ``op[2] // 2`` which, so any of up to four
    active ARUs can be reached."""
    if len(op) > 2 and op[2] % 2 and state["arus"]:
        return state["arus"][op[2] // 2 % len(state["arus"])]
    return None


_op_strategy = st.one_of(
    st.tuples(st.just("new_list")),
    st.tuples(st.just("new_block"), st.integers(0, 30), st.integers(0, 7)),
    st.tuples(
        st.just("write"),
        st.integers(0, 30),
        st.integers(0, 7),
        st.binary(min_size=1, max_size=12),
    ),
    st.tuples(st.just("read"), st.integers(0, 30), st.integers(0, 7)),
    st.tuples(
        st.just("read_many"),
        st.lists(st.integers(0, 30), min_size=1, max_size=6),
        st.integers(0, 7),
    ),
    st.tuples(st.just("delete_block"), st.integers(0, 30), st.integers(0, 7)),
    st.tuples(st.just("delete_list"), st.integers(0, 30), st.integers(0, 7)),
    st.tuples(st.just("list_blocks"), st.integers(0, 30), st.integers(0, 7)),
    st.tuples(st.just("begin")),
    st.tuples(st.just("end"), st.integers(0, 3)),
    st.tuples(st.just("abort"), st.integers(0, 3)),
    st.tuples(st.just("flush")),
)


#: ``new_list``; ``begin`` A; simple ``new_block`` (1); ``new_block``
#: in A (2, linked ahead of 1 in A's view of the list); simple
#: ``delete_block(1)``; ``list_blocks`` under A.  A's list still links
#: to 1, which is deallocated: every disk must raise ``BadBlockError``,
#: whether or not a flush came first.
DELETED_OUTSIDE_ARU = [
    ("new_list",),
    ("begin",),
    ("new_block", 0, 0),
    ("new_block", 0, 1),
    ("delete_block", 0, 0),
    ("list_blocks", 0, 1),
]

#: A writes block 1; a simple ``delete_block(1)``; A's EndARU must
#: be refused, since the block it wrote is gone.
WRITTEN_THEN_DELETED_OUTSIDE = [
    ("new_list",),
    ("new_block", 0, 2),
    ("begin",),
    ("write", 0, 1, b"lost"),
    ("delete_block", 0, 0),
    ("end", 0),
]

#: ROADMAP item 1(c): A deletes block 1 and commits; B writes block 2,
#: deletes block 1 and is refused at EndARU; then block 2 is read.
REFUSED_ARU = [
    ("new_list",),
    ("new_block", 0, 2),
    ("new_block", 0, 2),
    ("write", 1, 0, b"before"),
    ("flush",),
    ("begin",),
    ("delete_block", 0, 1),
    ("begin",),
    ("write", 1, 3, b"half of B"),
    ("delete_block", 0, 3),
    ("end", 0),
    ("end", 0),
    ("read", 1, 0),
]


#: ROADMAP item 1(d): block 1 is written; A inserts block 2 after it,
#: which copies block 1's record into A's shadow; a simple
#: ``delete_block(1)``; then 1 is read under A.  The shadow holds no
#: data of its own, so the read sees the committed state: the block is
#: gone, and reads as zeros.
SHADOW_OF_DELETED_BLOCK = [
    ("new_list",),
    ("new_block", 0, 0),
    ("write", 0, 0, b"before"),
    ("begin",),
    ("new_block", 0, 3),
    ("delete_block", 0, 0),
    ("read", 0, 1),
]

#: The same copy, then a flush and a simple overwrite of block 1: the
#: read under A returns the new bytes, not the address A copied.
SHADOW_OF_OVERWRITTEN_BLOCK = [
    ("new_list",),
    ("new_block", 0, 0),
    ("write", 0, 0, b"before"),
    ("flush",),
    ("begin",),
    ("new_block", 0, 3),
    ("write", 0, 0, b"after"),
    ("read", 0, 1),
]


#: ``read_many`` with a repeated id, then under an ARU (its own shadow
#: and the committed bytes in one batch) and outside it, then with a
#: deleted id in the batch.
READ_MANY = [
    ("new_list",),
    ("new_block", 0, 0),
    ("new_block", 0, 0),
    ("new_block", 0, 0),
    ("write", 0, 0, b"one"),
    ("write", 1, 0, b"two"),
    ("flush",),
    ("read_many", [0, 1, 2, 1], 0),
    ("begin",),
    ("write", 0, 1, b"shadow"),
    ("read_many", [0, 1, 0], 1),
    ("read_many", [0, 1], 0),
    ("delete_block", 2, 0),
    ("read_many", [0, 2], 0),
    ("end", 0),
]


REFUSED = ("error", "ConcurrencyError")


def agree(ops, visibility=Visibility.ARU_LOCAL, stop_at_refusal=True):
    """Run ``ops`` on LLD, JLD and the model; assert equal outcomes."""
    disks = build_trio(visibility)
    states = [{"lists": [], "blocks": [], "arus": []} for _ in disks]
    for index, op in enumerate(ops):
        lld_out, jld_out, model_out = (
            run_op(ld, op, state) for ld, state in zip(disks, states)
        )
        assert lld_out == jld_out == model_out, (
            f"divergence at op {index} {op}: LLD -> {lld_out!r}, "
            f"JLD -> {jld_out!r}, model -> {model_out!r}"
        )
        if stop_at_refusal and op[0] == "end" and model_out == REFUSED:
            return  # The model refused the ARU: item 1(c) from here on.


SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.data_too_large]
)
OPS = st.lists(_op_strategy, max_size=60)
VISIBILITIES = st.sampled_from(list(Visibility))


class TestDifferential:
    @settings(SETTINGS, max_examples=60)
    @given(ops=OPS, visibility=VISIBILITIES)
    @example(ops=DELETED_OUTSIDE_ARU, visibility=Visibility.ARU_LOCAL)
    @example(ops=WRITTEN_THEN_DELETED_OUTSIDE, visibility=Visibility.ARU_LOCAL)
    @example(ops=REFUSED_ARU[:-1], visibility=Visibility.ARU_LOCAL)
    @example(ops=SHADOW_OF_DELETED_BLOCK, visibility=Visibility.ARU_LOCAL)
    @example(ops=SHADOW_OF_OVERWRITTEN_BLOCK, visibility=Visibility.ARU_LOCAL)
    @example(ops=READ_MANY, visibility=Visibility.ARU_LOCAL)
    def test_lld_and_jld_agree(self, ops, visibility):
        agree(ops, visibility)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1(c): both substrates keep the refused "
        "ARU's write, the model does not",
    )
    def test_refused_aru_leaves_nothing(self):
        agree(REFUSED_ARU, stop_at_refusal=False)

    def test_agreement_survives_flush_everywhere(self):
        """Hand-built sequence with flushes interleaved at every step."""
        outcomes = []
        for ld in build_trio():
            lst = ld.new_list()
            a = ld.new_block(lst)
            ld.flush()
            b = ld.new_block(lst, predecessor=a)
            ld.write(a, b"one")
            ld.flush()
            aru = ld.begin_aru()
            ld.write(b, b"two", aru=aru)
            ld.flush()
            ld.end_aru(aru)
            ld.flush()
            ld.delete_block(a)
            ld.flush()
            # Identifier streams, members and data agree.
            outcomes.append(
                (int(lst), int(b), [int(x) for x in ld.list_blocks(lst)], ld.read(b))
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("flush", [False, True])
    def test_list_blocks_in_aru_rejects_block_deleted_outside(self, flush):
        ops = list(DELETED_OUTSIDE_ARU)
        if flush:
            ops.insert(-1, ("flush",))
        for ld in build_trio():
            state = {"lists": [], "blocks": [], "arus": []}
            outcomes = [run_op(ld, op, state) for op in ops]
            assert outcomes[-1] == ("error", "BadBlockError"), type(ld)


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 400

    @settings(SETTINGS, max_examples=examples)
    @given(ops=OPS, visibility=VISIBILITIES)
    def run(ops, visibility):
        agree(ops, visibility)

    run()
    print(f"differential: {examples} examples ok")
