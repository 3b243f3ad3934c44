"""Differential testing: LLD vs JLD must agree on every visible
behaviour.

The two logical disks share nothing but the interface and the ARU
semantics spec; running identical operation sequences against both
and demanding identical outcomes (data read, list contents, raised
errors) is a powerful oracle — any divergence means one of them
violates the semantics of Section 3.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import LDError
from repro.jld import JLD
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


def build_pair():
    geo = DiskGeometry.small(num_segments=96)
    lld = LLD(
        SimulatedDisk(geo),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    jld = JLD(
        SimulatedDisk(geo), journal_segments=8, checkpoint_slot_segments=2
    )
    return lld, jld


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
    """Deterministically choose an active ARU (or None) for the op."""
    if len(op) > 2 and op[2] % 2 and state["arus"]:
        return state["arus"][op[2] % len(state["arus"])]
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
#: to 1, which is deallocated: both disks must raise ``BadBlockError``,
#: whether or not a flush came first.
DELETED_OUTSIDE_ARU = [
    ("new_list",),
    ("begin",),
    ("new_block", 0, 0),
    ("new_block", 0, 1),
    ("delete_block", 0, 0),
    ("list_blocks", 0, 1),
]


class TestDifferential:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(ops=st.lists(_op_strategy, max_size=60))
    @example(ops=DELETED_OUTSIDE_ARU)
    def test_lld_and_jld_agree(self, ops):
        lld, jld = build_pair()
        lld_state = {"lists": [], "blocks": [], "arus": []}
        jld_state = {"lists": [], "blocks": [], "arus": []}
        for index, op in enumerate(ops):
            lld_out = run_op(lld, op, lld_state)
            jld_out = run_op(jld, op, jld_state)
            assert lld_out == jld_out, (
                f"divergence at op {index} {op}: "
                f"LLD -> {lld_out!r}, JLD -> {jld_out!r}"
            )

    def test_agreement_survives_flush_everywhere(self):
        """Hand-built sequence with flushes interleaved at every step."""
        lld, jld = build_pair()
        ids = {}
        for name, ld in (("lld", lld), ("jld", jld)):
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
            ids[name] = (lst, b)
        assert ids["lld"] == ids["jld"]  # identifier streams agree
        lst, b = ids["lld"]
        assert [int(x) for x in lld.list_blocks(lst)] == [
            int(x) for x in jld.list_blocks(lst)
        ]
        assert lld.read(b) == jld.read(b)

    @pytest.mark.parametrize("flush", [False, True])
    def test_list_blocks_in_aru_rejects_block_deleted_outside(self, flush):
        ops = list(DELETED_OUTSIDE_ARU)
        if flush:
            ops.insert(-1, ("flush",))
        for ld in build_pair():
            state = {"lists": [], "blocks": [], "arus": []}
            outcomes = [run_op(ld, op, state) for op in ops]
            assert outcomes[-1] == ("error", "BadBlockError"), type(ld)
