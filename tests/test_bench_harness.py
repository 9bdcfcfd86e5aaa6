"""The benchmark harness's own self-tests, run as part of the suite."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ran = re.search(r"^Ran (\d+) tests?", result.stderr, re.MULTILINE)
    assert ran and int(ran.group(1)) >= 13, result.stderr
