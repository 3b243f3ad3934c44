"""The paper's primary contribution: concurrent atomic recovery units.

This package implements the version machinery of Section 3 — the
shadow / committed / persistent block and list versions, the
perpendicular in-memory record chains of Section 4 and their tables,
the per-ARU list-operation log, the three read-visibility policies of
Section 3.3 — and :mod:`repro.core.engine`, which drives them behind
a log sink and imports nothing of :mod:`repro.lld` or the disk, so a
different LD implementation can reuse it (the paper notes other LD
implementations "will have to utilize at least a meta-data update log
... to fully support multiple shadow states").
"""

from repro.core.aru import ARURecord, ARUTable
from repro.core.oplog import ListOp, ListOpKind, ListOpLog
from repro.core.records import BlockVersion, ListVersion, StateChain
from repro.core.versions import VersionState
from repro.core.visibility import Visibility

__all__ = [
    "ARURecord",
    "ARUTable",
    "BlockVersion",
    "ListOp",
    "ListOpKind",
    "ListOpLog",
    "ListVersion",
    "StateChain",
    "VersionState",
    "Visibility",
]
