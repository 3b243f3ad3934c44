"""Run-time span tracing, installed from the benchmark's side only.

:func:`install` wraps the public entry points of each layer (the
table below) with a recorder; nothing under ``src/`` knows it is
being traced.  A span is ``(layer, name, start_ns, end_ns, parent,
op)``: ``parent`` indexes the enclosing span on the same thread
(``-1`` for a root) and ``op`` is the identifier every span of one
operation or request shares.  Spans stay in per-thread lists and are
written out once, after the run.

A layer's *self* time is its span's duration minus the part its child
spans cover; *busy* time counts only a layer's outermost spans, so a
layer calling itself is not counted twice.  A wrap target that no
longer exists is listed in :attr:`Tracer.missing` — a refactor under
``src/`` costs this file a row, never a crash.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import types
from typing import Dict, List, Optional, Tuple

from .metrics import LAYERS

#: (layer, module, class or None, attribute).  Module-level functions
#: are re-bound in every loaded ``repro`` module that imported them by
#: name, so ``from x import f`` call sites are traced too.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = tuple(
    [
        ("disk", "repro.disk.simdisk", "SimulatedDisk", name)
        for name in (
            "write_segment", "write_many", "write_at", "read", "read_many",
        )
    ]
    + [
        ("segment", "repro.lld.segment", "SegmentBuffer", "seal"),
        ("segment", "repro.lld.segment", None, "decode_segment"),
        ("segment", "repro.lld.segment", None, "decode_segment_tail"),
        ("summary", "repro.lld.summary", None, "encode_entries_into"),
        ("summary", "repro.lld.summary", None, "decode_entry_tuples"),
        ("writeback", "repro.lld.writeback", "WritebackQueue", "submit"),
        ("writeback", "repro.lld.writeback", "WritebackQueue", "drain"),
        ("cleaner", "repro.lld.cleaner", "SegmentCleaner", "clean"),
        ("cleaner", "repro.lld.cleaner", "SegmentCleaner", "select_victims"),
        ("cache", "repro.lld.cache", "BlockCache", "get"),
        ("cache", "repro.lld.cache", "BlockCache", "put"),
        ("checkpoint", "repro.lld.checkpoint", "CheckpointManager", "write"),
        ("checkpoint", "repro.lld.checkpoint", "CheckpointManager", "load"),
        ("recovery", "repro.recovery", None, "recover"),
        ("recovery", "repro.lld.lld", "LLD", "complete_restore"),
        ("recovery", "repro.lld.lld", "LLD", "restore_drain"),
        ("shard", "repro.lld.lld", "LLD", "prepare_commit"),
        ("shard", "repro.lld.lld", "LLD", "log_decision"),
        ("shard", "repro.lld.lld", "LLD", "finish_prepared"),
        ("txn", "repro.txn.locks", "LockManager", "acquire"),
        ("txn", "repro.txn.locks", "LockManager", "release_all"),
        ("txn", "repro.txn.transactions", None, "run_transaction"),
        ("frontend", "repro.frontend.scheduler", "FrontEnd", "submit"),
        ("frontend", "repro.frontend.scheduler", "FrontEnd", "drain"),
        ("frontend", "repro.frontend.scheduler", "FrontEnd", "close"),
    ]
    + [
        (layer, module, cls, name)
        for layer, module, cls in (
            ("lld", "repro.lld.lld", "LLD"),
            ("shard", "repro.shard.sharded", "ShardedLLD"),
        )
        for name in (
            "begin_aru", "end_aru", "abort_aru", "new_block", "delete_block",
            "write", "read", "read_many", "new_list", "delete_list",
            "list_blocks", "flush", "write_checkpoint",
        )
    ]
    + [
        ("fs", "repro.fs.filesystem", "MinixFS", name)
        for name in (
            "create", "mkdir", "unlink", "write_file", "read_file", "sync",
        )
    ]
)

#: Span name -> attribute of the call's return value summed into
#: :attr:`Tracer.captured` (counts only the call's result can give).
CAPTURE = {"SegmentCleaner.clean": "segments_freed"}

#: Spans written per thread to ``trace_<workload>.json``; the per-layer
#: aggregates always cover every span.
MAX_SPANS_WRITTEN = 50_000


class _ThreadState:
    __slots__ = ("name", "spans", "stack", "depth", "busy_ns", "next_op")

    def __init__(self, name: str, n_layers: int) -> None:
        self.name = name
        #: (layer, name, start_ns, end_ns, parent, op, self_ns)
        self.spans: List[tuple] = []
        #: open spans: [index, child_ns, op]
        self.stack: List[list] = []
        self.depth = [0] * n_layers
        self.busy_ns = [0] * n_layers
        self.next_op = 0


class Tracer:
    """Owns the wrappers, the per-thread span lists and the summary."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.names: List[str] = []
        self.missing: List[str] = []
        self.captured: Dict[str, float] = {}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._mutex = threading.Lock()
        self.enabled = False

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not.
        The wrappers stay for the life of the (child) process."""
        for layer, module_name, cls_name, attr in TARGETS:
            label = ".".join(p for p in (module_name, cls_name, attr) if p)
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                # A method may live on a base class of the public one.
                owner = next(
                    klass
                    for klass in getattr(owner, "__mro__", (owner,))
                    if attr in klass.__dict__
                )
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, StopIteration):
                self.missing.append(label)
                continue
            if not isinstance(original, types.FunctionType):
                self.missing.append(label)
                continue
            short = f"{cls_name or module_name.rsplit('.', 1)[-1]}.{attr}"
            if short in CAPTURE:
                original = self._capture(original, short, CAPTURE[short])
            wrapper = self._wrap(original, self.layers.index(layer), short)
            setattr(owner, attr, wrapper)
            if cls_name is None:
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is owner or not name.startswith("repro"):
                        continue
                    if other.__dict__.get(attr) is original:
                        setattr(other, attr, wrapper)

    def _state(self) -> _ThreadState:
        state = _ThreadState(
            threading.current_thread().name, len(self.layers)
        )
        self._local.state = state
        with self._mutex:
            self._states.append(state)
        return state

    def _capture(self, original, short: str, attr: str):
        captured = self.captured
        captured[short] = 0

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.enabled:
                captured[short] += getattr(result, attr, 0)
            return result

        return capturing

    def _wrap(self, original, layer: int, short: str):
        name = len(self.names)
        self.names.append(short)
        local = self._local
        now = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            spans = state.spans
            stack = state.stack
            if stack:
                parent = stack[-1][0]
                op = stack[-1][2]
            else:
                parent = -1
                # A request carries its id on the body it submits
                # (``trace_op``), which links the generator's submit
                # span to the worker's transaction span; any other
                # root span starts a fresh operation.
                op = None
                for arg in args:
                    op = getattr(arg, "trace_op", None)
                    if op is not None:
                        break
                if op is None:
                    op = state.next_op
                    state.next_op = op + 1
            index = len(spans)
            spans.append(None)
            frame = [index, 0, op]
            stack.append(frame)
            depth = state.depth
            outer = depth[layer] == 0
            depth[layer] += 1
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                end = now()
                depth[layer] -= 1
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                if outer:
                    state.busy_ns[layer] += took
                spans[index] = (
                    layer, name, start, end, parent, op, took - frame[1]
                )

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", short)
        return traced

    # -- results -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy_ns, self_ns; per span name: calls,
        total_ns."""
        n = len(self.layers)
        calls = [0] * n
        self_ns = [0] * n
        busy_ns = [0] * n
        by_name: Dict[str, List[int]] = {}
        for state in self._states:
            for layer in range(n):
                busy_ns[layer] += state.busy_ns[layer]
            for span in state.spans:
                if span is None:
                    continue
                layer, name, start, end, _parent, _op, own = span
                calls[layer] += 1
                self_ns[layer] += own
                row = by_name.setdefault(self.names[name], [0, 0])
                row[0] += 1
                row[1] += end - start
        return {
            "layers": {
                self.layers[i]: {
                    "calls": calls[i],
                    "busy_ns": busy_ns[i],
                    "self_ns": self_ns[i],
                }
                for i in range(n)
            },
            "names": {
                key: {"calls": row[0], "total_ns": row[1]}
                for key, row in sorted(by_name.items())
            },
        }

    def write(self, path, workload: str, extra: dict) -> None:
        """One JSON file: the name tables, each thread's spans as
        ``[layer, name, start_ns, end_ns, parent, op]`` rows (capped
        at :data:`MAX_SPANS_WRITTEN` per thread) and the summary."""
        threads = {}
        truncated = 0
        for number, state in enumerate(self._states):
            rows = [
                list(span[:6])
                for span in state.spans[:MAX_SPANS_WRITTEN]
                if span is not None
            ]
            truncated += max(0, len(state.spans) - MAX_SPANS_WRITTEN)
            threads[f"{number}:{state.name}"] = rows
        document = {
            "workload": workload,
            "layers": self.layers,
            "names": self.names,
            "span_fields": [
                "layer", "name", "start_ns", "end_ns", "parent", "op",
            ],
            "spans_not_written": truncated,
            "missing": self.missing,
            "summary": self.summary(),
            **extra,
            "threads": threads,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
