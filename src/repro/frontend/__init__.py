"""The concurrent multi-tenant front end.

The paper claims ARUs "efficiently support transaction-based systems
as direct disk system clients"; this package is the layer that makes
that claim measurable.  A front end admits many concurrent clients,
queues their transaction bodies on per-shard execution lanes over a
(possibly sharded) logical disk, runs them through the wait-die
transaction layer (:mod:`repro.txn`), and applies backpressure when
the volume's write-behind queue or group-commit window saturates.

:class:`~repro.frontend.scheduler.FrontEnd` is the one scheduler —
worker threads per lane, admitted requests parked in lane FIFOs rather
than on threads; :func:`make_frontend` is its constructor.

:class:`~repro.frontend.maintenance.MaintenanceDriver` runs cleaner
and scrubber passes *during* a storm, so the benchmarks can measure
maintenance interference on the decomposed tail latencies.

See ``docs/CONCURRENCY.md`` for the scheduling model and knobs, and
``benchmarks/bench_frontend.py`` for the saturation sweep and the
2048-client flood that drive it with the open-loop generator
(:mod:`repro.workloads.openloop`).
"""

from repro.frontend.maintenance import MaintenanceDriver
from repro.frontend.scheduler import (
    FrontEnd,
    FrontendConfig,
    Request,
    RequestRejected,
    make_frontend,
)

__all__ = [
    "FrontEnd",
    "FrontendConfig",
    "MaintenanceDriver",
    "Request",
    "RequestRejected",
    "make_frontend",
]
