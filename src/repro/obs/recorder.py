"""The flight recorder: a bounded ring buffer of structured events.

Counters answer "how many"; the recorder answers "what just
happened".  Every notable transition — segment seal and drain, ARU
begin/commit/abort, cleaner pass, scrub salvage and quarantine,
recovery phases, crash detection — appends one event, and the ring
keeps the most recent ``capacity`` of them.  Events can be dumped as
JSON lines on demand, and the owning system dumps them automatically
when the disk crashes or verification fails, so the tail of history
that explains a failure is always available.

Like the registry (see :mod:`repro.obs.registry`), the recorder never
touches the simulated clock: it reads ``clock.now_us`` for timestamps
but never advances it and never draws ``tick()`` serials, so it
cannot change any simulated result.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Iterator, Optional, Tuple


class FlightRecorder:
    """A fixed-capacity ring of ``(seq, t_us, kind, fields)`` events.

    ``seq`` is the recorder's own monotonic sequence number (it keeps
    counting after old events fall off the ring, so ``dropped`` is
    always derivable), and ``t_us`` is the simulated time the event
    was recorded at (0.0 until a clock is bound).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = None
        self._seq = 0
        self._ring: Deque[Tuple[int, float, str, dict]] = deque(
            maxlen=capacity
        )

    def bind_clock(self, clock) -> None:
        """Attach the simulated clock used for event timestamps."""
        self._clock = clock

    def record(self, kind: str, /, **fields) -> None:
        """Append one event.

        ``kind`` is positional-only so events may carry a field
        literally named ``kind`` (e.g. a quarantine's damage kind).
        """
        self._seq += 1
        t_us = self._clock.now_us if self._clock is not None else 0.0
        self._ring.append((self._seq, t_us, kind, fields))

    @property
    def recorded(self) -> int:
        """Total events ever recorded, including those dropped."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring."""
        return self._seq - len(self._ring)

    def events(self) -> Iterator[dict]:
        """The retained events, oldest first, as JSON-ready dicts."""
        for seq, t_us, kind, fields in self._ring:
            # Recorder keys win over field names on collision.
            yield {**fields, "seq": seq, "t_us": t_us, "event": kind}

    def dump_jsonl(self, path: str) -> int:
        """Write the retained events to ``path`` as JSON lines.

        Returns the number of events written.  Dumping only reads the
        ring; it cannot perturb the simulation or the disk image.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for event in self.events():
                out.write(json.dumps(event, sort_keys=True))
                out.write("\n")
                count += 1
        return count

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
        }
