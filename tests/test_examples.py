"""Smoke tests: every example script must run to completion.

Examples are documentation that executes; this keeps them from
rotting.  Each runs in a subprocess exactly as a user would run it
(the slowest ones get reduced knobs via argv where they accept them).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

CASES = [
    ("quickstart.py", []),
    ("visibility_options.py", []),
    ("bank_transactions.py", []),
    ("inspect_image.py", []),
    ("crash_torture.py", ["10"]),
    ("filesystem_no_fsck.py", []),
]


@pytest.mark.parametrize(
    "script,args", CASES, ids=[case[0] for case in CASES]
)
def test_example_runs(script, args):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"

