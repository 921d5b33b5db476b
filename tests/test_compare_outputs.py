"""Smoke test of ``tools/compare_outputs.py``: one tree against itself."""

import importlib.util
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
    assert "6 study CSVs compared byte for byte" in done.stdout
    # the call without --lambda, and the one at K = 1 on two regressors
    assert "35 run, 2 refused" in done.stdout


def test_a_call_argparse_refuses_keeps_its_exit_code_and_message():
    # argparse exits by SystemExit inside the redirected streams; the tool
    # records that as exit 2 and argparse's message, like any refused call
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    code, out, err = tool._call(["simulate-cv", "--p", "2", "--k", "8"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --lambda" in err
