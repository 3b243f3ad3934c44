"""The block read cache and the read stream that fills it.

Because LLD is append-only, a physical address never changes content
while its segment is part of the log, so the cache is keyed by
physical address and needs no version logic: new versions of a block
get new addresses.  The cleaner invalidates a whole segment's entries
when it frees the segment, and the log writer drops an address the
moment no version references it any longer.

Replacement is a segmented LRU (Karedla, Love & Wherry, IEEE Computer
1994): a block enters on probation and earns a protected place by a
second reference, so a pass over cold blocks (misses, readahead
windows, write-behind slots) evicts other cold blocks, not the hot
set.  Since every rewrite moves a block, the standing belongs to the
block, not to the address: a protected address superseded by a
rewrite hands its place to the address the data moved to
(:meth:`BlockCache.invalidate` with a ``successor``).

Every cache miss of a logical disk (LLD and the journaling baseline
alike) reaches the platter through one :class:`ReadStream`, which asks
the disk where its head is and the disk model what is cheaper: a miss
just ahead of the head is read by a request that *starts at the head*
and streams over the gap, anything else by a positioned read; a miss
that continues where the stream's last fetch ended also fetches a
bounded window ahead.  This is what makes sequentially-written files
read at near disk bandwidth (read1 of Figure 6) and small files come
back out of the log in write order at log speed (Figure 5), while
randomly laid-out data stays seek-bound (read2, read3).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Set

from repro.errors import MediaError
from repro.ld.types import PhysAddr

#: Blocks one readahead window fetches.  Bounded so the cost quantum
#: stays small relative to a phase (a full-segment fetch would make
#: throughput jumpy at small benchmark scales).
READAHEAD_BLOCKS = 32

#: Share of a cache's capacity its protected segment may fill; the
#: rest is probation, where every new entry starts.
PROTECTED_SHARE = 0.8


class BlockCache:
    """Segmented-LRU cache of block data keyed by physical address
    (the address itself: a tuple).

    Two LRU lists share ``capacity`` blocks.  :meth:`put` inserts at
    probation's MRU end; a :meth:`get` that hits in probation promotes
    the entry to protected, which holds at most
    :data:`PROTECTED_SHARE` of the capacity; protected overflow is
    demoted to probation's MRU end, not dropped, and eviction takes
    probation's LRU end.  A hit in protected only refreshes it.
    :meth:`peek` looks without counting or promoting.

    A per-segment key index covers both lists so the cleaner's
    :meth:`invalidate_segment` touches only that segment's entries
    instead of scanning the whole cache.
    """

    def __init__(self, capacity_blocks: int = 2048) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity_blocks
        self.protected_capacity = int(capacity_blocks * PROTECTED_SHARE)
        self._probation: "OrderedDict[PhysAddr, bytes]" = OrderedDict()
        self._protected: "OrderedDict[PhysAddr, bytes]" = OrderedDict()
        self._by_segment: Dict[int, Set[PhysAddr]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, addr: PhysAddr) -> Optional[bytes]:
        """Look up an address; a hit refreshes or promotes it."""
        data = self._protected.get(addr)
        if data is not None:
            self._protected.move_to_end(addr)
            self.hits += 1
            return data
        data = self._probation.pop(addr, None)
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        self._protect(addr, data)
        return data

    def peek(self, addr: PhysAddr) -> Optional[bytes]:
        """Look up an address without counting or moving it."""
        data = self._protected.get(addr)
        return data if data is not None else self._probation.get(addr)

    def put(self, addr: PhysAddr, data: bytes) -> None:
        """Insert an address on probation, or refresh it where it is."""
        if self.capacity == 0:
            return
        if addr in self._protected:
            self._protected[addr] = data
            self._protected.move_to_end(addr)
            return
        probation = self._probation
        probation[addr] = data
        probation.move_to_end(addr)
        self._by_segment.setdefault(addr.segment, set()).add(addr)
        while len(probation) + len(self._protected) > self.capacity:
            evicted, _data = probation.popitem(last=False)
            self._forget(evicted)

    def _protect(self, addr: PhysAddr, data: bytes) -> None:
        """Place ``addr`` at protected's MRU end, demoting its overflow
        to probation's MRU end."""
        protected = self._protected
        protected[addr] = data
        if len(protected) > self.protected_capacity:
            demoted, demoted_data = protected.popitem(last=False)
            self._probation[demoted] = demoted_data

    def _forget(self, addr: PhysAddr) -> None:
        """Drop ``addr`` from the per-segment index."""
        keys = self._by_segment.get(addr.segment)
        if keys is not None:
            keys.discard(addr)
            if not keys:
                del self._by_segment[addr.segment]

    def invalidate(
        self, addr: PhysAddr, successor: Optional[PhysAddr] = None
    ) -> bool:
        """Drop one cached address (its slot died or was freed).

        ``successor`` is where the same block's data now lives: if
        ``addr`` was protected, a cached successor takes its protected
        standing, so a rewrite does not send a hot block back through
        probation."""
        data = self._protected.pop(addr, None)
        if data is None:
            if self._probation.pop(addr, None) is None:
                return False
        elif successor is not None:
            moved = self._probation.pop(successor, None)
            if moved is not None:
                self._protect(successor, moved)
        self._forget(addr)
        return True

    def invalidate_segment(self, segment_no: int) -> int:
        """Drop every cached block of one segment (freed by the cleaner).

        O(entries in the segment), via the per-segment index.
        """
        stale = self._by_segment.pop(segment_no, None)
        if not stale:
            return 0
        for key in stale:
            if self._probation.pop(key, None) is None:
                del self._protected[key]
        return len(stale)

    def invalidate_all(self) -> None:
        """Empty the cache."""
        self._probation.clear()
        self._protected.clear()
        self._by_segment.clear()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __contains__(self, addr: PhysAddr) -> bool:
        return addr in self._protected or addr in self._probation

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReadStream:
    """How a logical disk's cache misses reach the disk.

    Two questions, one inequality.  Streaming over ``gap`` bytes to a
    block is *worth it* when one request through gap and block costs
    the disk model no more than the positioned read of the block
    alone: ``request_us(gap + block, sequential=True) <=
    request_us(block, sequential=False)``, which implies
    ``transfer_us(gap) <= request_us(0, sequential=False)``, the
    inequality :meth:`~repro.disk.timing.DiskTimer.access_batch` fuses
    runs by.

    *Where does the request start?*  Asked of the disk for every miss:
    if the head is in the target's segment, at or before the target,
    and the gap between them is worth streaming over, the miss is
    *streamed* — one request that starts at the head, pays bytes and
    no positioning.  Otherwise it is *positioned*: the read of the
    target alone.  The position is the disk's, never a copy kept
    here, so a segment write, a cleaner read or a checkpoint between
    two misses makes the next one positioned, and no request that
    starts at the head costs more simulated time than the read it
    replaces.  Gap bytes are transferred and dropped, never cached:
    they may be dead slots or stale platter.

    *Is this a sequential reader?*  Asked of the stream itself, which
    remembers where its last fetch ended (the end of the window, the
    highest block of a batch) whoever has moved the head since.  A
    miss *continues* the stream when it lies at or ahead of that
    point, in its segment, within a gap worth streaming over.  It
    fetches a window of :data:`READAHEAD_BLOCKS` blocks (never past
    ``slot_limit``) when it continues the stream from exactly where
    it ended (two adjacent misses, the evidence readahead always
    required) or the miss before it continued the stream too; one
    near miss alone buys no window, a random reader has those by
    chance.

    The counters (``stats()``) are plain ints and touch no clock.

    *Does a fetched slot hold?*  :attr:`unchecked` holds the segments
    whose slots nobody has checked yet — the ones recovery trusted on
    their summary CRC alone.  Every slot fetched from such a segment,
    window slots included, is checked against the CRC-32 its slot table
    in ``usage`` holds (:meth:`~repro.lld.usage.SegmentUsage.slot_crc`;
    charged to ``meter`` as ``crc_kb_us``) before it is cached; one
    that fails is never cached, and for the block asked for it is a
    :class:`~repro.errors.MediaError`.  Recovery fills the set
    (:meth:`check_on_read`); a segment leaves it when a scrub has read
    it whole and every slot held (:meth:`checked`), or when it is
    freed or quarantined (:meth:`forget`).
    """

    def __init__(
        self,
        disk,
        cache: BlockCache,
        meter=None,
        usage=None,
    ) -> None:
        self.disk = disk
        self.cache = cache
        self.meter = meter
        self.usage = usage
        self.unchecked: Set[int] = set()
        self._block_size = disk.geometry.block_size
        self._segment_size = disk.geometry.segment_size
        # The largest gap worth streaming over: the inequality above,
        # solved once by bisection (the streamed request's cost only
        # grows with the gap), so a miss compares integers.
        request_us = disk.timer.model.request_us
        positioned_us = request_us(self._block_size, sequential=False)
        worth, not_worth = -1, self._segment_size + 1
        while not_worth - worth > 1:
            gap = (worth + not_worth) // 2
            if request_us(gap + self._block_size, sequential=True) <= positioned_us:
                worth = gap
            else:
                not_worth = gap
        self._max_gap = worth
        #: Partition byte offset at which the stream's last fetch ended.
        self._end = -1
        #: Whether the last miss continued the stream.
        self._continued = False
        self.positioned = 0
        self.streamed = 0
        self.windows = 0
        self.window_blocks = 0
        self.gap_blocks = 0

    def _gap(self, start: int, addr: PhysAddr) -> Optional[int]:
        """Bytes from ``start`` to ``addr`` if ``start`` lies in its
        segment, at or before it, and the gap is worth streaming over;
        else ``None``."""
        offset = addr.slot * self._block_size
        gap = addr.segment * self._segment_size + offset - start
        return gap if 0 <= gap <= offset and gap <= self._max_gap else None

    def _fetched(
        self,
        addr: PhysAddr,
        blocks: int,
        gap: Optional[int],
        ahead: Optional[int],
    ) -> None:
        """Account for a request that reached ``addr`` over ``gap``
        bytes from the head (``None``: positioned), ``ahead`` bytes
        past the stream's end (``None``: elsewhere), and fetched
        ``blocks`` blocks from it."""
        block_size = self._block_size
        self._end = (
            addr.segment * self._segment_size
            + (addr.slot + blocks) * block_size
        )
        self._continued = ahead is not None
        if gap is None:
            self.positioned += 1
        else:
            self.streamed += 1
            self.gap_blocks += gap // block_size

    def read(self, addr: PhysAddr, slot_limit: int) -> bytes:
        """Fetch the block at ``addr`` and cache it (and its window).

        ``slot_limit`` is the number of slots of ``addr.segment`` that
        hold data.  Raises :class:`~repro.errors.MediaError` like the
        disk does, or when the block fails its slot CRC; a fault ends
        the evidence gathered so far.
        """
        block_size = self._block_size
        check = addr.segment in self.unchecked
        gap = self._gap(self.disk.head_offset, addr)
        ahead = self._gap(self._end, addr)
        window = ahead is not None and (ahead == 0 or self._continued)
        self._continued = False
        if gap is None and not window and not check:
            # The common miss of a random reader, kept short: nothing
            # to stream over, nothing to read ahead, nothing to check.
            data = self.disk.read(
                addr.segment, addr.slot * block_size, block_size
            )
            self._fetched(addr, 1, None, ahead)
            self.cache.put(addr, data)
            return data
        skip = gap or 0
        span = 1
        if window:
            span = max(1, min(READAHEAD_BLOCKS, slot_limit - addr.slot))
        raw = self.disk.read(
            addr.segment, addr.slot * block_size - skip, skip + span * block_size
        )
        self._fetched(addr, span, gap, ahead)
        if window:
            self.windows += 1
            self.window_blocks += span
        for index in range(span):
            start = skip + index * block_size
            slot = PhysAddr(addr.segment, addr.slot + index)
            if not check or self._holds(slot, raw[start : start + block_size]):
                self.cache.put(slot, raw[start : start + block_size])
            elif not index:  # rot: never cached, never served
                raise MediaError(f"{addr} fails its slot CRC")
        return raw[skip : skip + block_size]

    def read_many(
        self, addrs: Iterable[PhysAddr]
    ) -> Dict[PhysAddr, Optional[bytes]]:
        """Fetch several missing blocks as one scatter-gather batch.

        Maps each address to its data, or to ``None`` where the media
        failed or the slot fails its CRC (the rest is cached).  The
        lowest address is reached from the head under the rule of
        :meth:`read`; the disk fuses the rest into runs by the same
        inequality, and each block is counted by how it was reached.  A
        batch asks for what it needs and opens no window.
        """
        block_size = self._block_size
        ordered = sorted(addrs)
        head = self.disk.head_offset
        skip = self._gap(head, ordered[0]) or 0
        requests = [
            (addr.segment, addr.slot * block_size, block_size)
            for addr in ordered
        ]
        segment, offset, nbytes = requests[0]
        requests[0] = (segment, offset - skip, nbytes + skip)
        raws = self.disk.read_many(requests, errors="none")
        if raws[0] is not None:
            raws[0] = raws[0][skip:]
        self._continued = False
        for index, (addr, raw) in enumerate(zip(ordered, raws)):
            if raw is None:
                continue
            self._fetched(
                addr, 1, self._gap(head, addr), self._gap(self._end, addr)
            )
            head = self._end
            if self.unchecked and not self._holds(addr, raw):
                raws[index] = None  # rot: never cached, never served
            else:
                self.cache.put(addr, raw)
        return dict(zip(ordered, raws))

    def check_on_read(self, segments: Iterable[int]) -> None:
        """Check each slot of ``segments`` against its slot table when
        read."""
        self.unchecked = set(segments)

    def checked(self, segment_no: int) -> None:
        """Every slot of ``segment_no`` held: no read checks it again."""
        self.unchecked.discard(segment_no)

    def forget(self, segment_no: int) -> None:
        """``segment_no`` is freed or quarantined: nothing read from it
        stays cached, and no slot of it is checked any more."""
        self.cache.invalidate_segment(segment_no)
        self.checked(segment_no)

    def _holds(self, addr: PhysAddr, data: bytes) -> bool:
        """False if ``addr`` is an unchecked slot and ``data`` fails
        its CRC; the check is charged."""
        if addr.segment not in self.unchecked:
            return True
        crc = self.usage.slot_crc(addr.segment, addr.slot)
        if crc is None:
            return True
        self.meter.charge("crc_kb_us", self._block_size / 1024.0)
        return zlib.crc32(data) == crc

    def stats(self) -> Dict[str, int]:
        """The ``read_stream`` section of a logical disk's ``stats()``."""
        return {
            "positioned": self.positioned,
            "streamed": self.streamed,
            "windows": self.windows,
            "window_blocks": self.window_blocks,
            "gap_blocks": self.gap_blocks,
        }
