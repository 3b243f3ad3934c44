#!/usr/bin/env python3
"""Quickstart: the Logical Disk API and atomic recovery units.

Builds a simulated disk, performs some block/list operations, then
demonstrates the headline guarantee: operations bracketed by
BeginARU/EndARU are all-or-nothing across a crash.

Run:  python examples/quickstart.py
"""

from repro import LLDConfig, make_system, recover
from repro.errors import BadBlockError


def main() -> None:
    system = make_system(
        num_segments=128,
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    ld = system.ld

    # --- plain logical-disk usage -----------------------------------
    # Blocks live in ordered lists; the disk chooses all physical
    # placement (it is log-structured underneath).
    shopping = ld.new_list()
    milk = ld.new_block(shopping)
    bread = ld.new_block(shopping, predecessor=milk)
    ld.write(milk, b"2 liters of milk")
    ld.write(bread, b"1 sourdough loaf")
    print("list contents:", ld.list_blocks(shopping))
    print("first item:   ", ld.read(milk).rstrip(b"\x00").decode())

    # --- an atomic recovery unit ------------------------------------
    # Several operations become a single failure-atomic unit.
    aru = ld.begin_aru()
    eggs = ld.new_block(shopping, predecessor=bread, aru=aru)
    ld.write(eggs, b"12 eggs", aru=aru)
    ld.write(milk, b"OAT milk actually", aru=aru)
    # Inside the ARU we see our own shadow versions ...
    print("inside ARU:   ", ld.read(milk, aru=aru).rstrip(b"\x00").decode())
    # ... while everyone else still sees the committed state.
    print("outside ARU:  ", ld.read(milk).rstrip(b"\x00").decode())
    ld.end_aru(aru)  # both updates become visible atomically
    print("after commit: ", ld.read(milk).rstrip(b"\x00").decode())

    # --- crash atomicity ---------------------------------------------
    # Start an ARU, write half of it, then pull the plug *without*
    # committing.  Recovery must restore the pre-ARU state.
    ld.flush()
    doomed = ld.begin_aru()
    ld.write(bread, b"GLUTEN-FREE bagels", aru=doomed)
    phantom = ld.new_block(shopping, aru=doomed)
    ld.write(phantom, b"never persisted", aru=doomed)
    ld.flush()  # shadow state is never written by a flush

    print("\n-- simulated power failure --")
    recovered_ld, report = recover(
        system.disk.power_cycle(),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    print(f"recovery scanned {report.segments_scanned} segments, "
          f"replayed {report.entries_replayed} log entries, "
          f"freed orphans {report.orphan_blocks_freed}")
    print("bread after crash:",
          recovered_ld.read(bread).rstrip(b"\x00").decode())
    try:
        recovered_ld.read(phantom)
    except BadBlockError:
        print("the uncommitted ARU's block is gone — all or nothing.")
    print("milk survived:    ",
          recovered_ld.read(milk).rstrip(b"\x00").decode())


if __name__ == "__main__":
    main()
