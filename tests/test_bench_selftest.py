"""The benchmark's self-test, run in a subprocess.

`coseg_bench` wraps library functions by module attribute, so renaming or
inlining one of them breaks the benchmark. Running its self-test here
makes that a test failure rather than a failed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "coseg_bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
