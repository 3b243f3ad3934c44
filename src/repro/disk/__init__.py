"""Simulated disk substrate.

The paper's evaluation ran on a 70 MHz SPARC-5 against an HP C3010
SCSI-II disk through the SunOS raw-disk interface.  This package is
the substitution for that testbed: a deterministic simulated clock
(:class:`SimClock`), a per-operation CPU cost model
(:class:`CostModel`) standing in for the SPARC's meta-data
manipulation time, a disk timing model (:class:`DiskModel`)
parameterized with the HP C3010's published characteristics, and a
fault-injectable simulated disk (:class:`SimulatedDisk`).

All performance numbers reported by the benchmark harness are
*simulated* seconds derived from these models, which makes results
deterministic and lets the old-vs-new comparisons of the paper
reproduce as relative shapes.
"""

from repro.disk.clock import CostModel, SimClock
from repro.disk.faults import FaultInjector, MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import DiskModel, HP_C3010

__all__ = [
    "CostModel",
    "DiskGeometry",
    "DiskModel",
    "FaultInjector",
    "HP_C3010",
    "MediaFault",
    "SimClock",
    "SimulatedDisk",
]
