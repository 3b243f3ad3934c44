"""Entry point by file path: ``python3 benchmarks/perf/run.py``.

The driver (``BENCHMARK.json``) and the per-repetition children start
the benchmark this way, from a checkout that is neither installed nor
on ``PYTHONPATH``; this file puts the checkout's own ``src/`` first on
the path, so what is measured is always the tree the file sits in.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"benchmarks.perf: no program to measure: {ROOT / 'src' / 'repro'}"
            " does not exist",
            file=sys.stderr,
        )
        return 2
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)
    from benchmarks.perf.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
