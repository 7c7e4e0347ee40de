"""The benchmark's own self-tests, run as the benchmark runs them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    """python3 perfbench/selftest.py checks the bench script's own
    bookkeeping (setup time, verdicts, percentiles, the tracer, and
    BENCHMARK.json against the code) without running a workload; it must
    exit 0."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
