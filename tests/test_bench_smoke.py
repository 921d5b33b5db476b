"""Round 0 of every benchmark workload passes its output checks.

The benchmark (``harbench/run.py``) counts an operation whose output check
fails, or that fails outright, against the program. This test runs the
first round of each workload the way ``harbench.bench.run_rounds`` does, in
the fast and the full size, with the end-of-round and end-of-run checks,
so a wrong or failing result shows here before any timed run.
"""

import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from harbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_zero_passes_its_checks(name, fast, tmp_path):
    wl = WORKLOADS[name](0, str(tmp_path), fast=fast)
    for op in wl.rounds(0):
        wl.record(op, wl.execute(op)[1])
    wl.after_rounds()
    wl.finish()
    assert wl.attempted > 0
    assert wl.failed == 0
