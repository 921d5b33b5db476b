"""The benchmark workloads: closed loops from one process, one caller.

Each workload turns the seed into its inputs, runs a sequence of timed
operations through the package's public entry points, checks every output
and counts attempted and failed work. An operation is one call the user
would make and wait for:

* ``test-series``: one ``harchow test`` call through ``cli.main``;
* ``simulate-cv``: one cold ``harchow simulate-cv`` call through ``cli.main``;
* ``mc-size``: one ``size_experiment`` cell;
* ``mc-power``: one ``power_experiment``.

Operations come in rounds, and each round holds the same mix of inputs: one
balanced cycle of test calls, the whole simulate-cv table, all table-1 cells,
one power experiment. The clock is read only between rounds, so a run
covers whole rounds and its medians are taken over the same mix whatever the
seed or the speed of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from harchow import cli, fixedlimit, mcstudy

from . import checks

LAMBDA = 0.4
ALPHA = 0.05
SEED_STRIDE = 1009


def _cli(argv: list[str]) -> tuple[float, int, str]:
    """Run ``cli.main`` in-process; return (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def _ar1(eps: np.ndarray, rho: float) -> np.ndarray:
    out = np.empty_like(eps)
    prev = 0.0
    for i, e in enumerate(eps.tolist()):
        prev = rho * prev + e
        out[i] = prev
    return out


class Workload:
    """Base: op bookkeeping shared by the four workloads."""

    name = ""
    unit = ""
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, workdir: str, fast: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.fast = fast
        self.attempted = 0
        self.failed = 0
        os.makedirs(workdir, exist_ok=True)

    def reset(self) -> None:
        """Forget state that would make a replayed round warm."""

    def rounds(self, r: int) -> list:
        raise NotImplementedError

    def execute(self, op) -> tuple[float, object]:
        raise NotImplementedError

    def record(self, op, result) -> None:
        """Check one result and count it; raises CheckFailed."""
        raise NotImplementedError

    def units(self, op) -> int:
        raise NotImplementedError

    def after_rounds(self) -> None:
        """Work that closes the measured rounds (traced in a traced run)."""

    def finish(self) -> None:
        """Untimed end-of-run checks, always run untraced."""


# -- test-series ---------------------------------------------------------

class TestSeries(Workload):
    """Single-test latency over a log-uniform spread of series lengths."""

    name = "test-series"
    unit = "observations"
    aliases = {"op_p50_s": "test_p50_s", "op_p90_s": "test_p90_s"}
    VARIANTS = checks.F_VARIANTS + checks.T_VARIANTS
    RHOS = (0.0, 0.3, 0.6, 0.9)

    def __init__(self, seed, workdir, fast=False):
        super().__init__(seed, workdir, fast)
        # The t variants test one restriction, and for near-white scores the
        # plug-in K of a one-restriction test has a heavy tail up to the cap
        # T - 2; their shorter range keeps those calls from setting the peak
        # memory, which the F variants' break kernel sets instead.
        self.t_ranges = {"F": (120, 400), "t": (120, 300)} if fast else {
            "F": (300, 2500), "t": (300, 1000)}
        self.rhos = self.RHOS[:1] if fast else self.RHOS
        self.used_t: set[int] = set()
        self.cycles: dict[int, list] = {}

    def rounds(self, r):
        if r not in self.cycles:
            self.cycles[r] = self._make_cycle(r)
        return self.cycles[r]

    def _make_cycle(self, r: int) -> list[dict]:
        """One balanced cycle: every variant at every persistence.

        Each group of variants (F, t) splits its log-T range into
        ``variants x rhos`` equal strata. Persistence ``i`` takes block
        ``(i + r) mod rhos`` of adjacent strata and variant ``v`` the stratum
        ``(v + r) mod variants`` inside it, so each cycle spreads every
        variant and every persistence over the range, and consecutive cycles
        rotate the pairing. The seed draws the point inside each stratum, the
        data and the call order.
        """
        rng = np.random.default_rng([self.seed, r])
        ops = []
        if r == 0:
            # one call at the top of the F range with white noise, where the
            # plug-in K is largest: it sets the run's peak memory every time
            t = self.t_ranges["F"][1]
            self.used_t.add(t)
            ops.append(self._make_call(rng, "f-transformed", 0.0, t, r))
        for group, variants in (("F", checks.F_VARIANTS), ("t", checks.T_VARIANTS)):
            lo, hi = (math.log(v) for v in self.t_ranges[group])
            nv, nr = len(variants), len(self.rhos)
            for i, rho in enumerate(self.rhos):
                for v, variant in enumerate(variants):
                    stratum = ((i + r) % nr) * nv + (v + r) % nv
                    frac = (stratum + rng.random()) / (nv * nr)
                    t = int(round(math.exp(lo + frac * (hi - lo))))
                    while t in self.used_t:
                        t += 1
                    self.used_t.add(t)
                    ops.append(self._make_call(rng, variant, rho, t, r))
        ops = [ops[i] for i in rng.permutation(len(ops))]
        if r == 0:
            # the dense oracle re-checks the shortest series of each variant
            for variant in self.VARIANTS:
                min(
                    (op for op in ops if op["variant"] == variant), key=lambda op: op["t"]
                )["oracle"] = True
        return ops

    def _make_call(self, rng, variant: str, rho: float, t: int, r: int) -> dict:
        burn = 200
        q = _ar1(rng.standard_normal(t + burn), rho)[burn:]
        u = _ar1(rng.standard_normal(t + burn), rho)[burn:]
        if variant in checks.T_VARIANTS:
            x = q[:, None]
            columns = ["x1"]
        else:
            x = np.column_stack([np.ones(t), q])
            columns = ["c", "x1"]
        y = x @ np.full(x.shape[1], 0.5) + u
        path = os.path.join(self.workdir, f"series-{r}-{t}.csv")
        np.savetxt(
            path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
            header=",".join(["y"] + columns), comments="",
        )
        argv = [
            "test", "--data", path, "--y", "y", "--x", ",".join(columns),
            "--lambda", str(LAMBDA), "--k", "auto", "--variant", variant,
            "--alpha", str(ALPHA), "--json", "-",
        ]
        return {"variant": variant, "t": t, "y": y, "x": x, "argv": argv, "oracle": False}

    def execute(self, op):
        elapsed, code, stdout = _cli(op["argv"])
        return elapsed, (code, stdout)

    def record(self, op, result):
        code, stdout = result
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        report = json.loads(stdout)
        p = op["x"].shape[1]
        checks.check_report(report, op["variant"], p)
        if op["oracle"]:
            checks.check_oracle(report, op["y"], op["x"], LAMBDA, op["variant"])

    def units(self, op):
        return op["t"]


def _warm_test(workdir: str) -> None:
    wl = TestSeries(0, workdir, fast=True)
    op = wl._make_call(np.random.default_rng(0), "f-transformed", 0.3, 200, -1)
    wl.record(op, wl.execute(op)[1])


# -- simulate-cv ---------------------------------------------------------

RAW, TRANS = "fourier-raw", "fourier-transformed"


class SimulateCv(Workload):
    """Cold simulations of the fixed-K reference laws, then a warm reload."""

    name = "simulate-cv"
    unit = "draws"
    aliases = {"work_per_s": "cv_draws_per_s"}
    # (p, K, family, kind): both p and both families, K from 4 to 32, two
    # specs per kind. A round is the whole table, so every run times the same
    # mix; two thirds of it is p = 1, so the median falls inside one group of
    # similar costs instead of on the gap between p = 1 and the slower p = 2.
    TABLE = (
        (1, 4, RAW, "F_star_inf"),
        (2, 8, TRANS, "scaled_F_inf"),
        (1, 12, TRANS, "t_star_inf"),
        (1, 16, RAW, "t_star_inf"),
        (1, 24, TRANS, "scaled_F_inf"),
        (2, 32, TRANS, "F_star_inf"),
    )

    def __init__(self, seed, workdir, fast=False):
        super().__init__(seed, workdir, fast)
        self.reps = 1000 if fast else 10_000
        self.grid = 200 if fast else 1000
        self.generation = 0
        self.reset()

    def reset(self):
        self.generation += 1
        self.cache_dir = os.path.join(self.workdir, f"cache-{self.generation}")
        self.done: list[tuple[fixedlimit.LimitSpec, str, np.ndarray]] = []

    def rounds(self, r):
        table = self.TABLE[:2] if self.fast else self.TABLE
        return [
            {
                "spec": fixedlimit.LimitSpec(
                    p=p, k=k, lam=LAMBDA, family=family, grid_n=self.grid,
                    replications=self.reps, seed=self.seed * SEED_STRIDE + r,
                ),
                "kind": kind,
                "id": f"{r}-{i}",
            }
            for i, (p, k, family, kind) in enumerate(table)
        ]

    def execute(self, op):
        spec = op["spec"]
        csv_path = os.path.join(self.workdir, f"draws-{self.generation}-{op['id']}.csv")
        op["csv"] = csv_path
        argv = [
            "simulate-cv", "--kind", op["kind"], "--p", str(spec.p), "--k", str(spec.k),
            "--lambda", str(spec.lam), "--family", spec.family,
            "--grid", str(spec.grid_n), "--reps", str(spec.replications),
            "--seed", str(spec.seed), "--cache-dir", self.cache_dir, "--csv", csv_path,
        ]
        elapsed, code, _ = _cli(argv)
        return elapsed, code

    def record(self, op, code):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        spec, kind = op["spec"], op["kind"]
        with open(op["csv"]) as fh:
            draws = np.array([float(line) for line in fh.read().split()[1:]])
        os.remove(op["csv"])
        label = f"{kind} p={spec.p} K={spec.k} {spec.family}"
        checks.check_draws(draws, spec.replications, label)
        if kind == "scaled_F_inf" and spec.family == TRANS:
            checks.check_f_quantiles(draws, spec.p, spec.k, label)
        self.done.append((spec, kind, draws))

    def units(self, op):
        return op["spec"].replications

    def after_rounds(self):
        """Warm pass: a fresh cache on the same directory must serve every
        spec from disk, bitwise equal to the fresh simulation, and then from
        memory as the same object."""
        if not self.done:
            return
        files = sorted(os.listdir(self.cache_dir))
        checks.require(
            len(files) == len(self.done),
            f"{len(files)} cache files for {len(self.done)} simulated specs",
        )
        stamp = {f: os.stat(os.path.join(self.cache_dir, f)).st_mtime_ns for f in files}
        cache = fixedlimit.CriticalValueCache(self.cache_dir)
        for spec, kind, fresh in self.done:
            dist = cache.get(spec, kind)
            checks.check_reload(dist.draws, fresh, f"{kind} p={spec.p} K={spec.k}")
            checks.require(cache.get(spec, kind) is dist, "memory cache returned a new object")
        after = {f: os.stat(os.path.join(self.cache_dir, f)).st_mtime_ns for f in files}
        checks.require(
            after == stamp and sorted(os.listdir(self.cache_dir)) == files,
            "warm pass rewrote the cache instead of reading it",
        )


def _warm_cv(workdir: str) -> None:
    code = _cli([
        "simulate-cv", "--p", "1", "--k", "4", "--lambda", str(LAMBDA),
        "--grid", "100", "--reps", "1000", "--cache-dir", os.path.join(workdir, "warm-cache"),
    ])[1]
    checks.require(code == 0, "warm-up simulate-cv failed")


# -- Monte Carlo ---------------------------------------------------------

SIZE_VARIANTS = ("chisq-fourier", "chisq-transformed", "f-transformed")
POWER_DELTAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _slice_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


class McSize(Workload):
    """Size phase: ``size_experiment`` one table-1 cell at a time."""

    name = "mc-size"
    unit = "replications"
    aliases = {"work_per_s": "mc_size_reps_per_s"}

    def __init__(self, seed, workdir, fast=False):
        super().__init__(seed, workdir, fast)
        self.t = 60 if fast else 100
        self.reps = 500

    def rounds(self, r):
        grid = mcstudy.TABLE1_GRID[:1] if self.fast else mcstudy.TABLE1_GRID
        return [
            {
                "spec": mcstudy.DgpSpec(t=self.t, rho=rho, psi=psi, lam=LAMBDA),
                "seed": self.seed * SEED_STRIDE + r,
            }
            for rho, psi in grid
        ]

    def execute(self, op):
        start = time.perf_counter()
        results = mcstudy.size_experiment(
            [op["spec"]], SIZE_VARIANTS, k_policy="auto", reps=self.reps,
            master_seed=op["seed"], alpha=ALPHA, workers=1,
        )
        return time.perf_counter() - start, results

    def record(self, op, results):
        self.attempted += self.reps
        checks.check_size_results(results, self.reps, f"cell rho={op['spec'].rho}")
        self.failed += results[0].failures

    def units(self, op):
        return self.reps

    def finish(self):
        spec = mcstudy.DgpSpec(t=self.t, rho=0.6, lam=LAMBDA)
        tables = []
        for w in (1, _slice_workers()):
            results = mcstudy.size_experiment(
                [spec], SIZE_VARIANTS, reps=500, master_seed=self.seed,
                alpha=ALPHA, workers=w,
            )
            checks.check_size_results(results, 500, "size slice")
            tables.append(mcstudy.size_table_csv(results))
        checks.check_same_csv(*tables, "size slice")


def _warm_size(workdir: str) -> None:
    mcstudy.size_experiment(
        [mcstudy.DgpSpec(t=50, rho=0.0, lam=LAMBDA)], SIZE_VARIANTS, reps=500,
    )


class McPower(Workload):
    """Power phase: size-adjusted power over a break-size grid."""

    name = "mc-power"
    unit = "replications"
    aliases = {"work_per_s": "mc_power_reps_per_s"}

    def __init__(self, seed, workdir, fast=False):
        super().__init__(seed, workdir, fast)
        self.t = 60 if fast else 200
        # short experiments, many per run: the median over them is steadier
        self.reps = 16 if fast else 50

    def rounds(self, r):
        spec = mcstudy.DgpSpec(t=self.t, rho=0.6, lam=LAMBDA)
        return [{"spec": spec, "seed": self.seed * SEED_STRIDE + r}]

    def execute(self, op):
        start = time.perf_counter()
        power = mcstudy.power_experiment(
            op["spec"], POWER_DELTAS, k_policy="auto", reps=self.reps,
            master_seed=op["seed"], alpha=ALPHA, workers=1,
        )
        return time.perf_counter() - start, power

    def record(self, op, power):
        self.attempted += self.reps
        checks.check_power(power, ALPHA, "power")
        self.failed += self.reps - power["n_ok"]

    def units(self, op):
        return self.reps

    def finish(self):
        spec = mcstudy.DgpSpec(t=100, rho=0.6, lam=LAMBDA)
        tables = []
        for w in (1, _slice_workers()):
            power = mcstudy.power_experiment(
                spec, (0.0, 0.5, 1.0), reps=128, master_seed=self.seed,
                alpha=ALPHA, workers=w,
            )
            checks.check_power(power, ALPHA, "power slice")
            tables.append(mcstudy.power_table_csv(power, spec))
        checks.check_same_csv(*tables, "power slice")


def _warm_power(workdir: str) -> None:
    mcstudy.power_experiment(
        mcstudy.DgpSpec(t=50, rho=0.6, lam=LAMBDA), (0.0, 0.5), reps=32,
    )


WORKLOADS = {w.name: w for w in (TestSeries, SimulateCv, McSize, McPower)}
WARMUPS = {
    "test-series": _warm_test,
    "simulate-cv": _warm_cv,
    "mc-size": _warm_size,
    "mc-power": _warm_power,
}
# rounds replayed by a traced run, once untraced and once traced
TRACE_ROUNDS = {"test-series": 3, "simulate-cv": 1, "mc-size": 1, "mc-power": 6}
