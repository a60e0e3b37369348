"""`tools/fingerprint.py` prints the lines `tools/fingerprint.expected`
holds: training, inference and every written file stay bitwise as they
were, unless a change updates the expected file on purpose."""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")


def test_fingerprint_matches_the_expected_lines():
    with open(os.path.join(TOOLS, "fingerprint.expected"), encoding="utf-8") as fh:
        want = fh.read().splitlines()
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "fingerprint.py")],
                         env={**os.environ, "OMP_NUM_THREADS": "1"}, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    differ = [f"line {i + 1}: expected {a!r}, got {b!r}"
              for i, (a, b) in enumerate(zip(want, got)) if a != b]
    if len(got) != len(want):
        differ.append(f"{len(got)} lines, expected {len(want)}")
    assert not differ, "fingerprint drift:\n" + "\n".join(differ)
