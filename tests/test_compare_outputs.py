"""Smoke test of ``tools/compare_outputs.py``: one tree against itself."""

import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_quick_comparison_of_a_tree_with_itself_passes():
    script = os.path.join(ROOT, "tools", "compare_outputs.py")
    done = subprocess.run(
        [sys.executable, script, ROOT, ROOT, "--quick"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "DIFFERS" not in done.stdout
    assert done.stdout.rstrip().endswith("non-float field differs")
    assert "4 study CSVs compared byte for byte" in done.stdout
