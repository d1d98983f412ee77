"""The benchmark harness still runs against the library it measures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # Tiny sizes, about two seconds: every declared metric is emitted, each
    # workload reaches its layers, and tampered outputs trip the gate.
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
