"""Read-visibility policies for concurrent ARUs (Section 3.3).

The semantics of Read specify the degree of isolation between
concurrent ARUs.  The paper identifies three options of increasing
strength:

1. **MOST_RECENT_SHADOW** — a Read returns the most recent shadow
   version across *all* concurrent ARUs: every update is visible to
   every client immediately, committed or not.
2. **COMMITTED_ONLY** — a Read always returns the committed version:
   updates become visible only when their ARU commits (a reader
   inside an ARU does not even see its own shadow writes).
3. **ARU_LOCAL** — a Read inside an ARU returns that ARU's shadow
   version; simple Reads return the committed version.  Each ARU's
   shadow state is strictly local and becomes visible atomically at
   commit.

The paper's prototype implements option 3 (it is the most consistent
and the most demanding to implement, making it the honest test case
for overhead); it is our default as well.  None of the options imply
concurrency control for writes — locking is the client's job.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.records import find_alt, newest_shadow
from repro.core.versions import VersionState
from repro.ld.types import ARU_NONE, ARUId


class Visibility(enum.Enum):
    """The three read-visibility options of Section 3.3."""

    MOST_RECENT_SHADOW = 1
    COMMITTED_ONLY = 2
    ARU_LOCAL = 3


def read_versions(
    head,
    persistent,
    aru_id: Optional[ARUId],
    policy: Visibility,
    meter=None,
):
    """Return candidate versions for a Read, strongest-match first.

    ``head`` is the newest alternative record of the identifier (its
    table's ``alts`` entry, or None) and ``persistent`` its persistent
    record (or None).  The caller walks the candidates and serves from
    the first one that can satisfy the read (carries data, an address,
    or proves the block deallocated).  The final candidate is always
    the persistent version if one exists.
    """
    candidates = []
    if policy is Visibility.MOST_RECENT_SHADOW:
        shadow = newest_shadow(head, meter)
        if shadow is not None:
            candidates.append(shadow)
    elif policy is Visibility.ARU_LOCAL:
        if aru_id is not None and aru_id != ARU_NONE:
            shadow = find_alt(head, VersionState.SHADOW, aru_id, meter)
            if shadow is not None:
                candidates.append(shadow)
    # COMMITTED_ONLY adds no shadow candidate.
    committed = find_alt(head, VersionState.COMMITTED, ARU_NONE, meter)
    if committed is not None:
        candidates.append(committed)
    if persistent is not None:
        candidates.append(persistent)
    return candidates
