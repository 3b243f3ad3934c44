#!/usr/bin/env python3
"""The three read-visibility options of Section 3.3, side by side.

The semantics of Read determine how isolated concurrent ARUs are:

  option 1  MOST_RECENT_SHADOW  every update visible to everyone
  option 2  COMMITTED_ONLY      updates visible only after commit
  option 3  ARU_LOCAL           your shadow is yours alone (the
                                paper's choice, and the default)

Run:  python examples/visibility_options.py
"""

from repro import LLDConfig, Visibility, make_system


def show(policy: Visibility) -> None:
    system = make_system(
        num_segments=64,
        config=LLDConfig(visibility=policy, checkpoint_slot_segments=2),
    )
    ld = system.ld
    lst = ld.new_list()
    block = ld.new_block(lst)
    ld.write(block, b"committed-v0")

    writer = ld.begin_aru()
    bystander = ld.begin_aru()
    ld.write(block, b"writer-shadow", aru=writer)

    def peek(aru=None) -> str:
        return ld.read(block, aru=aru).rstrip(b"\x00").decode()

    print(f"\n=== {policy.name} (option {policy.value}) ===")
    print(f"  writer's own read : {peek(writer)}")
    print(f"  another ARU reads : {peek(bystander)}")
    print(f"  simple read       : {peek()}")
    ld.end_aru(writer)
    print(f"  ... after commit  : {peek()}")
    ld.abort_aru(bystander)


def main() -> None:
    print("one block, committed as 'committed-v0'; an ARU then writes")
    print("'writer-shadow' without committing.  Who sees what?")
    for policy in (
        Visibility.MOST_RECENT_SHADOW,
        Visibility.COMMITTED_ONLY,
        Visibility.ARU_LOCAL,
    ):
        show(policy)
    print(
        "\nOption 3 keeps every ARU's shadow state private until its\n"
        "atomic publication at EndARU — the semantics the paper chose\n"
        "and evaluated."
    )


if __name__ == "__main__":
    main()
