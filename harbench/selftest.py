"""The benchmark's own self-test: ``python3 harbench/run.py --self-test``.

Runs a fast mode of every workload, checks that the span recorder restores
every binding it replaced, and shows that each output check rejects a
planted wrong result. Exits 0 only if all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import numpy as np

from harchow import cli, fixedlimit, mcstudy

from . import checks, layers
from .tracer import Tracer
from .workloads import ALPHA, SIZE_VARIANTS, WORKLOADS, TestSeries


def _rejects(fn) -> bool:
    try:
        fn()
    except checks.CheckFailed:
        return True
    return False


def _planted_test_series(workdir: str):
    wl = TestSeries(0, workdir, fast=True)
    rng = np.random.default_rng(5)
    for variant in ("f-transformed", "t-transformed"):
        op = wl._make_call(rng, variant, 0.3, 300, 99)
        code, stdout = wl.execute(op)[1]
        report = json.loads(stdout)
        p = op["x"].shape[1]
        checks.check_report(report, variant, p)
        checks.check_oracle(report, op["y"], op["x"], 0.4, variant)

        def planted(**changes):
            return {"result": {**report["result"], **changes}}

        res = report["result"]
        yield f"{variant}: statistic perturbed by 1e-6", lambda: checks.check_oracle(
            planted(statistic_raw=res["statistic_raw"] * (1 + 1e-6)),
            op["y"], op["x"], 0.4, variant)
        yield f"{variant}: reject flipped", lambda: checks.check_report(
            planted(reject=not res["reject"]), variant, p)
        yield f"{variant}: p-value of zero", lambda: checks.check_report(
            planted(p_value=0.0, reject=True), variant, p)
        yield f"{variant}: K above the requested K", lambda: checks.check_report(
            planted(k_requested=res["k"] - 1), variant, p)
        yield f"{variant}: reference with K + 1", lambda: checks.check_report(
            planted(reference=checks.expected_reference(variant, p, res["k"] + 1)), variant, p)
        yield f"{variant}: infinite statistic", lambda: checks.check_report(
            planted(statistic_scaled=float("inf")), variant, p)


def _planted_simulate_cv():
    spec = fixedlimit.LimitSpec(
        p=2, k=8, lam=0.4, family="fourier-transformed", grid_n=1000,
        replications=10_000, seed=3,
    )
    draws = fixedlimit.simulate_limit(spec, fixedlimit.SCALED_F_INF).draws
    checks.check_draws(draws, spec.replications, "fresh")
    checks.check_f_quantiles(draws, spec.p, spec.k, "fresh")
    swapped = draws.copy()
    swapped[[10, -10]] = swapped[[-10, 10]]
    with_nan = draws.copy()
    with_nan[-1] = np.nan
    yield "truncated draw array", lambda: checks.check_draws(draws[:-1], spec.replications, "x")
    yield "unsorted draws", lambda: checks.check_draws(swapped, spec.replications, "x")
    yield "non-finite draw", lambda: checks.check_draws(with_nan, spec.replications, "x")
    yield "reload one ulp off", lambda: checks.check_reload(
        np.nextafter(draws, np.inf), draws, "x")
    yield "F draws without the df scaling", lambda: checks.check_f_quantiles(
        draws * spec.k * spec.p / (spec.k - spec.p + 1), spec.p, spec.k, "x")


def _planted_mc():
    spec = mcstudy.DgpSpec(t=60, rho=0.3, lam=0.4)
    results = mcstudy.size_experiment([spec], SIZE_VARIANTS, reps=500, master_seed=1)
    csv = mcstudy.size_table_csv(results)
    checks.check_size_results(results, 500, "fresh")
    checks.check_same_csv(csv, csv, "fresh")
    rows = csv.splitlines()
    reordered = "\n".join([rows[0], rows[2], rows[1]] + rows[3:]) + "\n"
    power = mcstudy.power_experiment(spec, (0.0, 1.0), reps=64, master_seed=1)
    checks.check_power(power, ALPHA, "fresh")
    raw_curve = power["power"]["fourier-raw"]
    yield "reordered CSV row", lambda: checks.check_same_csv(csv, reordered, "x")
    yield "rejection rate above one", lambda: checks.check_size_results(
        [dataclasses.replace(results[0], rejection=1.2)], 500, "x")
    yield "failures above reps", lambda: checks.check_size_results(
        [dataclasses.replace(results[0], failures=501)], 500, "x")
    yield "size-adjusted null rate above alpha", lambda: checks.check_power(
        {**power, "power": {"fourier-raw": [ALPHA + 0.01] + raw_curve[1:]}}, ALPHA, "x")


def _fast_workloads(bench, workdir: str) -> list[tuple[str, bool]]:
    out = []
    for name, cls in WORKLOADS.items():
        wl = cls(7, os.path.join(workdir, name), fast=True)
        timings = bench.run_rounds(wl, lambda r, _: r >= 1, bench.Calibrator())
        wl.after_rounds()
        wl.finish()
        ok = wl.attempted > 0 and wl.failed == 0 and len(timings.seconds) > 0
        out.append((f"fast {name}: {len(timings.seconds)} ops", ok))
    return out


def _tracer_roundtrip(workdir: str) -> list[tuple[str, bool]]:
    original = cli.main
    wl = TestSeries(0, workdir, fast=True)
    op = wl._make_call(np.random.default_rng(1), "chisq-transformed", 0.0, 150, 98)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = cli.main is not original
        tracer.op(wl.execute, op)
    finally:
        tracer.uninstall()
    spans = tracer.by_name()
    values = layers.compute(tracer, 0.0)
    self_s = tracer.self_times()
    return [
        ("tracer wraps and restores cli.main", wrapped and cli.main is original),
        ("every span below the root has a parent",
         all(info["parents"].get("-", 0) == 0
             for name, info in spans.items() if name != "harness.op")),
        ("self times are nonnegative", bool(np.all(self_s >= -1e-9))),
        ("bases.kernel_bytes counts 8 T^2", values["bases.kernel_bytes"][0] == 8 * 150**2),
        ("every per-layer metric is reported", set(values) == {m[0] for m in layers.METRICS}),
    ]


def main(bench) -> int:
    workdir = os.path.join(bench.entry.OUT, f"selftest-{os.getpid()}")
    results = []
    try:
        results += _fast_workloads(bench, workdir)
        results += _tracer_roundtrip(os.path.join(workdir, "tracer"))
        for planted in (
            _planted_test_series(os.path.join(workdir, "planted")),
            _planted_simulate_cv(),
            _planted_mc(),
        ):
            results += [(f"rejects {label}", _rejects(fn)) for label, fn in planted]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    failed = sum(not ok for _, ok in results)
    print(f"self-test: {len(results) - failed} of {len(results)} passed")
    return 1 if failed else 0
