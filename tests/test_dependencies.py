"""The runtime dependency is numpy alone: importing the package, its CLI and
the Monte Carlo engine must not pull in any other installed package (scipy
is often present beside numpy, but the package may not rely on it)."""

import json
import os
import subprocess
import sys

PROBE = """
import json, sys
before = set(sys.modules)
import harchow, harchow.cli, harchow.mcstudy
allowed = set(sys.stdlib_module_names) | {"harchow", "numpy"}
# modules without an import spec are runtime shims (the Cython runtime of
# numpy's extensions, the multiprocessing alias of __main__), not packages
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.partition(".")[0] not in allowed
    and getattr(sys.modules[name], "__spec__", None) is not None
)
print(json.dumps(foreign))
"""


def test_imports_load_only_numpy_beyond_the_stdlib():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []
