"""Measurement loop, end-to-end metrics, run record and the printed report."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from . import checks, layers, run as entry
from .tracer import Tracer
from .workloads import TRACE_ROUNDS, WARMUPS, WORKLOADS

# Seconds the calibration kernel takes on an uncontended core of the 2-core
# x86_64 machine the benchmark was written on; only ratios to it matter.
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.2


class Calibrator:
    """Machine-speed samples interleaved with the timed operations.

    On a shared machine the same operation's wall time drifts by tens of
    percent between 10-second windows, while the ratio of its time to a
    small fixed kernel run beside it drifts far less. Each sample is the
    fastest of three runs of a small kernel mixing interpreter work, a dense
    product and a sort; an operation's time is scaled by ``CAL_REF_S`` over
    the mean of the samples just before and just after it, which gives its
    seconds at the reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((120, 120))
        self._b = rng.standard_normal(200_000)
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += i * 0.5
        self._a @ self._a
        np.sort(self._b)
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), min(self._kernel() for _ in range(3))))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference-speed factor for an interval bracketed by samples."""
        before = [c for t, c in self.samples if t <= start][-1]
        after = next(c for t, c in self.samples if t >= end)
        return CAL_REF_S / (0.5 * (before + after))

    def contention(self) -> float:
        """Median calibration time over the reference time (1 = quiet)."""
        return statistics.median(c for _, c in self.samples) / CAL_REF_S


class Timings:
    """Wall time, reference-speed time and work units of every timed op."""

    def __init__(self):
        self.wall: list[float] = []
        self.seconds: list[float] = []
        self.units: list[int] = []

    def add(self, wall: float, scale: float, units: int) -> None:
        self.wall.append(wall)
        self.seconds.append(wall * scale)
        self.units.append(units)

    @staticmethod
    def _p90(values: list[float]) -> float:
        if len(values) < 2:
            return values[0]
        return statistics.quantiles(values, n=10, method="inclusive")[-1]

    def summary(self, raw: bool = False) -> dict[str, float]:
        values = self.wall if raw else self.seconds
        return {
            "op_p50_s": statistics.median(values),
            "op_p90_s": self._p90(values),
            "work_per_s": statistics.median(u / s for u, s in zip(self.units, values)),
        }


def run_rounds(wl, stop, cal: Calibrator, call=None) -> Timings:
    """Run whole rounds until ``stop(rounds_done, elapsed)``; time each op.

    ``call(execute, op)`` runs an op when given (the traced run's root span).
    """
    spans = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in wl.rounds(r):
            cal.maybe_sample()
            op_start = time.perf_counter()
            elapsed, result = call(wl.execute, op) if call else wl.execute(op)
            spans.append((op_start, time.perf_counter(), elapsed, wl.units(op)))
            wl.record(op, result)
        r += 1
        if stop(r, time.perf_counter() - start):
            break
    cal.sample()
    timings = Timings()
    for op_start, op_end, elapsed, units in spans:
        timings.add(elapsed, cal.scale(op_start, op_end), units)
    return timings


def setup_seconds(workload: str, workdir: str, cal: Calibrator) -> list[float]:
    """Fresh-interpreter import plus warm-up, timed in child processes and
    scaled to the reference speed like the operations."""
    times = []
    for i in range(entry.SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        cal.sample()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, entry.__file__, "--setup-probe", workload,
             "--workdir", probe_dir],
            capture_output=True, text=True, timeout=150, cwd=entry.ROOT,
        )
        end = time.perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        cal.sample()
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append(seconds * cal.scale(start, end))
    return times


def _git_sha() -> str:
    head = os.path.join(entry.ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(entry.ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(entry.SRC, "harchow", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, entry.SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": entry.BLAS_THREADS,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_e2e(wl, timings: Timings, values: dict, cal: Calibrator) -> None:
    n = len(timings.seconds)
    notes = {
        "op_p50_s": f"n={n} ops",
        "op_p90_s": f"n={n} ops",
        "work_per_s": f"{wl.unit}/s, median over {n} ops",
        "setup_s": f"median of {entry.SETUP_PROBES} fresh interpreters",
    }
    wall = timings.summary(raw=True)
    for name, (value, unit) in values.items():
        alias = wl.aliases.get(name, name)
        raw = f"wall {wall[name]:.6g}; " if name in wall else ""
        print(f"  {name:<12} {value:>14.6g} {unit:<4} [{alias}] {raw}{notes.get(name, '')}")
    ratio = wl.failed / wl.attempted if wl.attempted else float("nan")
    print(f"  fail_ratio   {ratio:>14.6g}      failed {wl.failed} of {wl.attempted} attempted")
    print(f"  contention   {cal.contention():>14.6g}      median calibration time over "
          f"{CAL_REF_S * 1e3:g} ms ({len(cal.samples)} samples)")


def _end_to_end(wl, workdir: str, seconds: float) -> dict:
    cal = Calibrator()
    setup = setup_seconds(wl.name, workdir, cal)
    WARMUPS[wl.name](os.path.join(workdir, "warm"))
    # another round only if it is predicted to end within the budget
    timings = run_rounds(wl, lambda r, elapsed: elapsed * (r + 1) / r > seconds, cal)
    wl.after_rounds()
    peak = _peak_rss_mb()
    wl.finish()
    values = {name: (v, "1/s" if name == "work_per_s" else "s")
              for name, v in timings.summary().items()}
    values["peak_rss_mb"] = (peak, "MB")
    values["setup_s"] = (statistics.median(setup), "s")
    print(f"{wl.name}: end-to-end, untraced, seconds at the reference speed")
    _print_e2e(wl, timings, values, cal)
    wl.op_seconds = {"wall": timings.wall, "reference": timings.seconds}
    return values


def _traced(wl, workdir: str, stem: str) -> dict:
    WARMUPS[wl.name](os.path.join(workdir, "warm"))
    n_rounds = TRACE_ROUNDS[wl.name]
    cal = Calibrator()
    plain = run_rounds(wl, lambda r, _: r >= n_rounds, cal)
    wl.after_rounds()
    wl.reset()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, lambda r, _: r >= n_rounds, cal, call=tracer.op)
        tracer.op(wl.after_rounds)
    finally:
        tracer.uninstall()
    wl.finish()
    overhead = sum(traced.seconds) / sum(plain.seconds) - 1.0
    values = layers.compute(tracer, overhead)
    spans = tracer.by_name()
    tracer.write(stem + ".trace", spans)

    print(f"{wl.name}: {n_rounds} round(s), {len(plain.seconds)} ops, untraced then traced")
    for label, t in (("untraced", plain), ("traced", traced)):
        summary = "  ".join(f"{k} {v:.6g}" for k, v in t.summary().items())
        print(f"  {label:<9} {summary}  total {sum(t.seconds):.4f} s")
    print(f"  tracing overhead {overhead:+.2%} of untraced op time (reference speed)")
    print("per-layer metrics (busy = self time, wall seconds):")
    for name, unit, _, _, moves in layers.METRICS:
        value, _ = values[name]
        print(f"  {name:<32} {value:>14.6g} {unit:<6} moves: {moves}")
    print("spans (calls, self seconds, parents):")
    for name, info in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if info["calls"]:
            parents = ", ".join(f"{p} x{n}" for p, n in sorted(
                info["parents"].items(), key=lambda kv: -kv[1]))
            errors = f" errors {info['errors']}" if info["errors"] else ""
            print(f"  {name:<36} {info['calls']:>8} {info['self_s']:>10.4f}  <- {parents}{errors}")
    return values


def run(args, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    record = run_record(args)
    print("run record: " + json.dumps(record, sort_keys=True))
    wl = WORKLOADS[args.workload](args.seed, workdir)
    correct = True
    try:
        if args.trace:
            values = _traced(wl, workdir, stem)
        else:
            values = _end_to_end(wl, workdir, args.seconds)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct, values = False, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": max(wl.attempted, 1),
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(
            {"record": record, "result": result, "op_seconds": getattr(wl, "op_seconds", {})},
            fh, indent=1, sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if correct else 1
