"""The one correctness oracle, run after every timed region.

Every workload keeps a *shadow model* of what it was acknowledged —
block contents, list membership, file contents, the hot counter — and
hands it here together with the volume.  The oracle reads everything
back through the public interface and asks the repository's own
checkers (``verify_lld``, ``verify_jld``, ``fsck``) for structural
soundness.  Each comparison counts as one check; any miss is recorded
as a problem, which turns into ``failed`` > 0 and a non-zero exit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.fs import fsck
from repro.jld.jld import JLD
from repro.jld.verify import verify_jld
from repro.lld.verify import verify_lld

#: Problems kept verbatim per run (the count is always exact).
MAX_PROBLEMS_KEPT = 20


class Oracle:
    """Accumulates checks and problems for one repetition."""

    def __init__(self) -> None:
        self.checks = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, problem: str) -> bool:
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_KEPT:
                self.problems.append(problem)
        return ok

    def timed_checks(self, count: int, failed: int, what: str) -> None:
        """Fold in comparisons a workload made inside its timed region
        (every timed read is compared with the shadow model)."""
        self.checks += count
        if failed:
            self.failed += failed
            self.problems.append(f"{failed} of {count} {what}")

    # -- structure -----------------------------------------------------

    def volume_sound(self, volume, label: str = "volume") -> None:
        """``verify_lld`` (or ``verify_jld``) clean on the volume and
        on every live member of an array."""
        members = getattr(volume, "shards", None)
        if members is None:
            members = [volume]
        for index, member in enumerate(members):
            if member is None:
                self.expect(False, f"{label}: shard {index} lost")
                continue
            verify = verify_jld if isinstance(member, JLD) else verify_lld
            found = verify(member)
            self.expect(
                not found,
                f"{label}[{index}]: {len(found)} invariant violations, "
                f"first: {found[0] if found else ''}",
            )

    def fs_sound(self, fs, label: str = "fs") -> None:
        report = fsck(fs)
        self.expect(
            report.clean,
            f"{label}: fsck found {len(report.problems)} problems, "
            f"first: {report.problems[0] if report.problems else ''}",
        )

    # -- contents ------------------------------------------------------

    def blocks_match(
        self,
        volume,
        shadow: Mapping[int, bytes],
        label: str = "read-back",
    ) -> None:
        """Every block of the shadow model reads back as last
        acknowledged (zero-padded to the block size)."""
        block_size = volume.geometry.block_size
        for block, expected in shadow.items():
            got = volume.read(block)
            self.expect(
                got == expected.ljust(block_size, b"\0"),
                f"{label}: block {int(block)} differs from the "
                "acknowledged write",
            )

    def contents_match(
        self,
        volume,
        lists: Sequence[int],
        contents: Mapping[int, bytes],
        members: Mapping[int, Iterable[int]],
        label: str,
    ) -> Dict[int, list]:
        """Each list holds exactly the acknowledged member blocks (an
        aborted or un-ended ARU's insertions must be invisible) and
        every member reads back as last acknowledged.  Returns
        everything a client can see of ``lists`` — membership in order
        and every member's bytes — so two volumes can be compared
        without reading either again."""
        block_size = volume.geometry.block_size
        view: Dict[int, list] = {}
        seen = 0
        for list_id in lists:
            blocks = [int(block) for block in volume.list_blocks(list_id)]
            self.expect(
                sorted(blocks) == sorted(int(b) for b in members[list_id]),
                f"{label}: list {int(list_id)} has {len(blocks)} blocks, "
                f"expected {len(members[list_id])}",
            )
            rows = []
            for block in blocks:
                data = volume.read(block)
                expected = contents.get(block)
                self.expect(
                    expected is not None
                    and data == expected.ljust(block_size, b"\0"),
                    f"{label}: block {block} differs from the "
                    "acknowledged write",
                )
                rows.append((block, data))
            seen += len(rows)
            view[int(list_id)] = rows
        self.expect(
            seen == len(contents),
            f"{label}: {seen} blocks visible, {len(contents)} acknowledged",
        )
        return view

    def files_match(
        self, fs, files: Mapping[str, Optional[bytes]], label: str = "files"
    ) -> None:
        """Present files read back whole; ``None`` marks a path that
        must no longer exist."""
        for path, expected in files.items():
            if expected is None:
                self.expect(
                    not fs.exists(path), f"{label}: {path} still exists"
                )
            else:
                self.expect(
                    fs.exists(path) and fs.read_file(path) == expected,
                    f"{label}: {path} content differs",
                )

    # -- transactions --------------------------------------------------

    def frontend_quiesced(self, stats: Dict) -> None:
        """Lock table, owner and waiter counts all zero after
        ``drain()``, and nothing still in flight."""
        locks = stats["txn"]["locks"]
        for key in (
            "owners_registered",
            "resources_locked",
            "locks_held",
            "waiters",
            "async_waiters",
        ):
            self.expect(
                locks.get(key, 0) == 0,
                f"lock leak: {key} = {locks.get(key)} after drain",
            )
        self.expect(
            stats["inflight"] == 0,
            f"{stats['inflight']} requests in flight after drain",
        )
