"""The log-structured logical disk (LLD) with concurrent ARUs.

LLD divides the disk into large fixed-size segments that are filled
in main memory and written in single disk operations.  Each segment
carries data blocks plus a *segment summary* — an operation log of
LLD's own meta-data from which the block-number-map and list-table
can be reconstructed after a crash.  This package contains:

* the on-disk formats (:mod:`repro.lld.summary`,
  :mod:`repro.lld.segment`, :mod:`repro.lld.checkpoint`),
* segment usage accounting (:mod:`repro.lld.usage`) and the log
  writer (:mod:`repro.lld.logwriter`),
* the logical disk itself (:mod:`repro.lld.lld`), supporting both the
  paper's "new" prototype (concurrent ARUs) and the "old" baseline
  (sequential ARUs) via ``aru_mode``, and its half of an array's
  two-phase commit (:mod:`repro.lld.participant`),
* crash recovery (:mod:`repro.lld.recovery`) and the segment cleaner
  (:mod:`repro.lld.cleaner`).
"""

from repro.lld.lld import LLD
from repro.lld.recovery import RecoveryReport, recover

__all__ = ["LLD", "RecoveryReport", "recover"]
