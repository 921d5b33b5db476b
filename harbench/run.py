"""harchow benchmark: one command per workload, end to end or traced.

    python3 harbench/run.py --workload test-series --seed 1 --seconds 10 --trace 0

Runs from the root of a source tree and imports ``harchow`` from ``src/``
only. With ``--trace 0`` it times the workload's operations and prints the
end-to-end metrics; with ``--trace 1`` it replays a fixed set of rounds once
untraced and once under the span recorder and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed output check prints
``correct: false`` and exits 1; a tree without ``src/harchow`` exits 1
without printing a result.

``--self-test`` runs a fast mode of every workload and shows that each
output check rejects a planted wrong result.
"""

from __future__ import annotations

import os
import sys
import time

# pinned before numpy loads, here and in every child process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def _import_package():
    """Import ``harchow`` from this tree's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "harchow", "__init__.py")):
        sys.exit(f"harbench: no harchow sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import harchow

    if not os.path.abspath(harchow.__file__).startswith(SRC + os.sep):
        sys.exit(f"harbench: imported harchow from {harchow.__file__}, not {SRC}")
    return harchow


def _setup_probe(workload: str, workdir: str) -> None:
    """Child process: time a fresh import plus the workload's warm-up call."""
    start = time.perf_counter()
    _import_package()
    from harbench.workloads import WARMUPS

    WARMUPS[workload](workdir)
    print(time.perf_counter() - start)


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("test-series", "simulate-cv", "mc-size", "mc-power"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (args.self_test or args.setup_probe or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.workdir)
        return 0
    _import_package()
    from harbench import bench

    if args.self_test:
        from harbench import selftest

        return selftest.main(bench)
    return bench.run(args, OUT)


if __name__ == "__main__":
    sys.exit(main())
