"""Exception hierarchy for the ARU / logical-disk reproduction.

All errors raised by the library derive from :class:`LDError`, so a
client can catch one type for any logical-disk failure.  The hierarchy
distinguishes errors a client can act on (bad arguments, full disk)
from internal-consistency failures that indicate a bug or corruption.
"""

from __future__ import annotations


class LDError(Exception):
    """Base class for all logical-disk errors."""


class BadBlockError(LDError):
    """A block identifier does not name an allocated block."""

    def __init__(self, block_id: int, detail: str = "") -> None:
        self.block_id = block_id
        message = f"block {block_id} is not allocated"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class BadListError(LDError):
    """A list identifier does not name an allocated list."""

    def __init__(self, list_id: int, detail: str = "") -> None:
        self.list_id = list_id
        message = f"list {list_id} is not allocated"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class BadARUError(LDError):
    """An ARU identifier does not name an active atomic recovery unit."""

    def __init__(self, aru_id: int, detail: str = "") -> None:
        self.aru_id = aru_id
        message = f"ARU {aru_id} is not active"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class DiskFullError(LDError):
    """The disk has no free segments left, even after cleaning."""


class SegmentOverflowError(LDError):
    """A single log record cannot fit an *empty* segment.

    Rolling the buffer can never help such a record, so the write
    path rejects it up front instead of consuming segments forever.
    Only pathological geometries (tiny segments) can trigger this.
    """

    def __init__(self, needed: int, capacity: int, what: str) -> None:
        self.needed = needed
        self.capacity = capacity
        super().__init__(
            f"{what} needs {needed} bytes but an empty segment holds "
            f"only {capacity}; no amount of buffer rolling can fit it"
        )


class DiskCrashedError(LDError):
    """The simulated disk has crashed; no further I/O is possible."""


class MediaError(LDError):
    """A (partial) media failure corrupted the requested sectors."""


class ShardLostError(LDError):
    """An entire member disk of a sharded array has been destroyed.

    Deliberately *not* a :class:`MediaError`: per-segment media-fault
    handlers (degraded reads, the recovery scan's unreadable-segment
    classification) must not quietly absorb the loss of a whole
    shard — the array layer handles it by failing the shard over to
    its replicas and repairing from peers.
    """

    def __init__(self, shard: int, detail: str = "") -> None:
        self.shard = shard
        message = f"shard {shard} is lost (media destroyed)"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class UnrecoverableBlockError(MediaError):
    """A block's data is gone: its segment failed and no surviving
    copy exists in the cache, the current buffer, or older log
    segments.  Subclasses :class:`MediaError` so existing media-fault
    handlers still catch it, while clients that care can distinguish
    "this read is degraded" from "this block is lost"."""

    def __init__(self, block_id: int, segment: int) -> None:
        self.block_id = block_id
        self.segment = segment
        super().__init__(
            f"block {block_id} is unrecoverable: segment {segment} failed "
            "and no surviving copy exists"
        )


class StaleCopyError(UnrecoverableBlockError):
    """A block's segment failed and only an older copy (``data``)
    survives on its volume: raised instead of serving that copy where
    a peer volume holds the block too (an array member with replicas),
    so the array can serve the peer's newer one."""

    def __init__(self, block_id: int, segment: int, data: bytes) -> None:
        super().__init__(block_id, segment)
        self.data = data
        self.args = (f"block {block_id}: only an older copy survives",)


class CorruptionError(LDError):
    """On-disk state failed validation (bad magic, checksum, format)."""


class ConcurrencyError(LDError):
    """An operation violated the concurrency rules of the interface."""


class LockError(LDError):
    """Base class for lock-manager errors."""


class DeadlockError(LockError):
    """Acquiring a lock would create a deadlock (wait-die abort)."""


class TransactionAborted(LDError):
    """The enclosing transaction was aborted and must be retried."""


class FSError(LDError):
    """Base class for file-system level errors."""


class FileNotFoundFSError(FSError):
    """Path lookup failed."""


class FileExistsFSError(FSError):
    """Attempt to create an entry that already exists."""


class NotADirectoryFSError(FSError):
    """Path component is not a directory."""


class IsADirectoryFSError(FSError):
    """File operation applied to a directory."""


class DirectoryNotEmptyFSError(FSError):
    """Attempt to remove a non-empty directory."""


class NoSpaceFSError(FSError):
    """The file system ran out of inodes or data space."""
