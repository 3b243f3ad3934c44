"""Maintenance during the storm: cleaner + scrubber interference.

The paper's cleaner and the scrubber normally run when the volume
decides they must (space pressure, degraded reads).  To *measure*
their interference with foreground traffic — the point of the
interference benchmark — they have to run while the front end is
storming, on a schedule the experiment controls.
:class:`MaintenanceDriver` is that schedule: a daemon thread that
periodically calls the volume's public :meth:`~repro.lld.lld.LLD.
clean` and :meth:`~repro.lld.lld.LLD.scrub` entry points (or their
:class:`~repro.shard.sharded.ShardedLLD` array-wide twins).

Each pass takes the volume's own lock, exactly like a foreground
client call — which is precisely the interference being measured:
the front end's lane workers stall on the lock, and the decomposed
``frontend.storage_us`` histogram is where the stalls land.

A pass racing a deliberate crash (the fault-injection tests) can see
the volume die mid-call; the driver records the failure and stops
rather than letting a maintenance thread's exception escape.
"""

from __future__ import annotations

import threading
from typing import Optional


class MaintenanceDriver:
    """Periodic cleaner/scrubber passes on a live volume.

    Args:
        ld: Any volume with ``clean()``/``scrub()`` (an
            :class:`~repro.lld.lld.LLD` or a
            :class:`~repro.shard.sharded.ShardedLLD`).
        interval_s: Host wall-clock delay between passes.
        clean: Run a cleaner pass each period.
        scrub: Run a scrubber pass each period.

    Use as a context manager around the storm, or call
    :meth:`start`/:meth:`stop` explicitly.  :attr:`passes` counts
    completed maintenance rounds; :attr:`error` holds the exception
    that stopped the driver early, if any.
    """

    def __init__(
        self,
        ld,
        interval_s: float = 0.05,
        clean: bool = True,
        scrub: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.ld = ld
        self.interval_s = interval_s
        self.clean = clean
        self.scrub = scrub
        self.passes = 0
        self.error: Optional[BaseException] = None
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._wake.wait(self.interval_s):
            try:
                if self.clean:
                    self.ld.clean()
                if self.scrub:
                    self.ld.scrub()
            except BaseException as exc:  # noqa: BLE001 — recorded
                # A crashed / torn-down volume ends maintenance; the
                # experiment reads .error and decides what it means.
                self.error = exc
                return
            self.passes += 1

    def start(self) -> "MaintenanceDriver":
        if self._thread is not None:
            raise RuntimeError("maintenance driver already started")
        self._wake.clear()
        self._thread = threading.Thread(
            target=self._run, name="frontend-maintenance", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._wake.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "MaintenanceDriver":
        return self.start()

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        self.stop()
        return False
