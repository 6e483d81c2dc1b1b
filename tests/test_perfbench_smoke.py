"""The benchmark harness still runs against this tree.

``perfbench/tracer.py`` wraps program functions by name, so renaming one of
them (``canonical_gap_word``, ``enumerate_fatgraphs``, ...) breaks the
benchmark; its smoke mode catches that in a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
