import logging
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from harchow import chowtest, mcstudy
from harchow.bases import FOURIER_RAW, FOURIER_TRANSFORMED
from harchow.chowtest import VARIANTS, reference, run_test
from harchow.errors import HarchowError, RegimeTooSmall
from harchow.fixedlimit import CriticalValueCache
from harchow.mcstudy import (
    F_VARIANTS,
    DgpSpec,
    _ar1_filter,
    _rejections,
    _rep_stream,
    _run_block,
    _run_cell,
    _simulate_stack,
    _stack_statistics,
    k_grid_experiment,
    power_experiment,
    simulate_dgp,
    size_experiment,
    size_table_csv,
)
from harchow.numkit import RngStream
from harchow.regression import RegressionData
from oracles import refuse_references, series_basis


class TestAr1Filter:
    def test_matches_plain_recursion(self):
        rng = np.random.default_rng(0)
        eps = rng.standard_normal(333)
        for rho in (0.0, 0.5, -0.7, 0.95):
            out = _ar1_filter(eps, rho)
            prev = 0.0
            expected = np.empty_like(eps)
            for i, e in enumerate(eps):
                prev = rho * prev + e
                expected[i] = prev
            assert np.max(np.abs(out - expected)) < 1e-10

    def test_matrix_filters_each_column(self):
        rng = np.random.default_rng(1)
        eps = rng.standard_normal((333, 5))
        for rho in (0.0, 0.5, -0.7, 0.95):
            out = _ar1_filter(eps, rho)
            for col in range(5):
                single = _ar1_filter(eps[:, col], rho)
                assert np.max(np.abs(out[:, col] - single)) < 1e-12


class TestSimulateDgp:
    def test_iid_case_is_white(self):
        t = 10_000
        y, x = simulate_dgp(DgpSpec(t=t, rho=0.0), RngStream(1, 0))
        r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(r1) < 3 / np.sqrt(t)
        assert abs(y.mean()) < 3 / np.sqrt(t)

    def test_null_break_has_no_effect(self):
        # delta = 0: the response never sees the break location
        spec = DgpSpec(t=200, rho=0.5, delta=0.0, lam=0.3)
        spec2 = DgpSpec(t=200, rho=0.5, delta=0.0, lam=0.7)
        y1, x1 = simulate_dgp(spec, RngStream(2, 7))
        y2, x2 = simulate_dgp(spec2, RngStream(2, 7))
        assert np.array_equal(y1, y2)
        assert np.array_equal(x1, x2)

    def test_persistent_autocorrelation(self):
        t = 10_000
        spec = DgpSpec(t=t, rho=0.9, delta=0.0)
        y, _ = simulate_dgp(spec, RngStream(3, 0))  # y = u under the null
        r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert 0.85 <= r1 <= 0.95

    def test_ma_component(self):
        # rho = 0, psi = 0.6: lag-1 autocorrelation psi / (1 + psi^2)
        t = 20_000
        y, _ = simulate_dgp(DgpSpec(t=t, rho=0.0, psi=0.6), RngStream(4, 0))
        r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(r1 - 0.6 / 1.36) < 0.03

    def test_break_shifts_second_regime(self):
        spec = DgpSpec(t=100, rho=0.0, delta=2.0, lam=0.4)
        base = DgpSpec(t=100, rho=0.0, delta=0.0, lam=0.4)
        y1, x = simulate_dgp(spec, RngStream(5, 0))
        y0, _ = simulate_dgp(base, RngStream(5, 0))
        diff = y1 - y0
        assert np.array_equal(diff[:40], np.zeros(40))
        assert np.allclose(diff[40:], 2.0 * x[40:].sum(axis=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(t=100, rho=1.0)
        with pytest.raises(ValueError):
            DgpSpec(t=20, rho=0.0)

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in ("t", "burn_in")
        for value in (100.5, 100.0, True, "100", None)
    ], ids=repr)
    def test_refuses_a_size_that_is_no_integer(self, field, value):
        # T = 100.5 used to fail deep in the simulation with a TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DgpSpec(**{"t": 100, "rho": 0.0, field: value})

    def test_numpy_ints_are_accepted(self):
        y, x = simulate_dgp(DgpSpec(t=np.int64(100), rho=0.0, burn_in=np.int32(5)),
                            RngStream(1, 0))
        assert y.shape == (100,) and x.shape == (100, 2)


# the simulation settings of run_test's nonstandard references in these tests
SMALL_CV = dict(cv_seed=0, cv_replications=1000, cv_grid=150)


def assert_values_match_run_test(stats, variants, y, x, lam, k, rep, index):
    """Each variant's value and K used at ``index`` are the decision
    statistic (to 1e-10 relative) and K of run_test on the series."""
    data = RegressionData(y, x, None, lam)
    for name in variants:
        report = run_test(data, variant=name, k=k, **SMALL_CV)
        assert stats.values[name][index] == pytest.approx(
            report.decision_statistic, rel=1e-10
        ), (name, rep)
        assert stats.k_used[name][index[0], index[-1]] == report.k, (name, rep)


class TestRunCellConsistency:
    def test_block_statistic_matches_run_test(self):
        spec = DgpSpec(t=100, rho=0.3)
        out = _run_block(
            spec, master_seed=9, cell_id=0, rep_range=(0, 3),
            k_policy=[8], deltas=(0.0,), variants=F_VARIANTS,
        )
        for rep in range(3):
            y, x = simulate_dgp(
                DgpSpec(t=100, rho=0.3, delta=0.0), _rep_stream(9, 0, rep)
            )
            assert_values_match_run_test(
                out, F_VARIANTS, y, x, spec.lam, 8, rep, (rep, 0, 0)
            )

    @pytest.mark.parametrize("rho", [0.0, 0.6, 0.9])
    def test_decisions_match_run_test_under_auto_k(self, rho):
        # the engine decides every F variant, replication by replication,
        # exactly as run_test does on the regenerated series
        spec = DgpSpec(t=100, rho=rho)
        cache = CriticalValueCache()
        references = partial(
            reference, alpha=0.05, cv_seed=0, cv_replications=1000, cv_grid=150,
            cache=cache,
        )
        stats = _run_block(
            spec, master_seed=13, cell_id=0, rep_range=(0, 60),
            k_policy="auto", deltas=(0.0,), variants=F_VARIANTS,
        )
        ok = ~stats.failed
        reps = np.nonzero(ok)[0]
        assert len(reps) >= 50
        for name in F_VARIANTS:
            reject, k_used = _rejections(
                VARIANTS[name], stats, spec.lam, (ok, 0, 0), references
            )
            for rep, engine_reject, engine_k in zip(reps, reject, k_used):
                y, x = simulate_dgp(spec, _rep_stream(13, 0, rep))
                report = run_test(
                    RegressionData(y, x, None, spec.lam), variant=name,
                    k="auto", cv_seed=0, cv_replications=1000, cv_grid=150,
                    cache=cache,
                )
                assert (report.reject, report.k) == (engine_reject, engine_k), (
                    name, rep,
                )

    def test_worker_counts_agree(self):
        spec = DgpSpec(t=60, rho=0.0)
        serial = _run_cell(spec, 3, 0, 130, [4], (0.0,), F_VARIANTS, workers=1)
        parallel = _run_cell(spec, 3, 0, 130, [4], (0.0,), F_VARIANTS, workers=3)
        for field in ("values", "k_used"):
            for name in F_VARIANTS:
                assert np.array_equal(
                    getattr(serial, field)[name], getattr(parallel, field)[name]
                )
        assert np.array_equal(serial.failed, parallel.failed)


@pytest.mark.parametrize("t, lam", [
    (51, 0.7), (101, 0.7), (101, 0.6), (201, 0.7), (60, 0.4), (150, 0.35),
])
def test_engine_keeps_the_kernel_feasible_k(t, lam):
    # the engine takes its sums at the largest K of the policy; whatever
    # that K, a replication at K keeps min(K, kept) transformed vectors,
    # kept being the count of the dense basis at K = T - 2, and decides on
    # run_test's statistic at that K
    kept = series_basis(t, t - 2, lam, FOURIER_TRANSFORMED).k
    z = np.random.default_rng(t).standard_normal((2, 2 * (t + 500)))
    y, x = _simulate_stack(DgpSpec(t=t, rho=0.3, lam=lam), z)
    grid = list(range(2, t - 1))
    pair = ("chisq-fourier", "f-transformed")
    _, k_used = _stack_statistics(lam, grid, (0.0,), pair, y, x)
    assert k_used["chisq-fourier"].tolist() == [grid] * 2
    assert k_used["f-transformed"].tolist() == [[min(k, kept) for k in grid]] * 2
    for k in sorted({2, kept - 1, kept, kept + 1, (kept + t) // 2} & set(grid)):
        values, k_used = _stack_statistics(lam, [k], (0.0,), pair, y, x)
        assert k_used["f-transformed"].tolist() == [[min(k, kept)]] * 2, k
        stats = mcstudy.CellStats(values, k_used, np.zeros(2, dtype=bool))
        for rep in range(2):
            assert_values_match_run_test(
                stats, pair, y[rep], x[rep], lam, k, rep, (rep, 0, 0)
            )


def test_studies_build_no_basis_or_kernel(monkeypatch):
    # the engine takes run_test's FFT sums: no T x T kernel, no T x K basis,
    # none of the dense references
    refuse_references(monkeypatch)
    spec = DgpSpec(t=60, rho=0.3)
    size_experiment([spec], F_VARIANTS[:1] + F_VARIANTS[2:], reps=500)
    k_grid_experiment(spec, (4, 58), ("chisq-fourier", "f-transformed"), reps=500)
    power_experiment(spec, (0.0, 0.5), reps=64)


class TestOnePath:
    """A study's statistics come from chowtest.series_statistics, which
    calls series_sums once per basis family per stack."""

    def _families(self, monkeypatch):
        calls = []
        real = chowtest.series_sums

        def recording(series, k, lam, family):
            calls.append(family)
            return real(series, k, lam, family)

        monkeypatch.setattr(chowtest, "series_sums", recording)
        return calls

    def test_one_family_study_builds_only_its_sums(self, monkeypatch):
        calls = self._families(monkeypatch)
        [row] = size_experiment(
            [DgpSpec(t=100, rho=0.3)], ("f-transformed",), reps=500, master_seed=5
        )
        assert row.failures == 0
        assert calls == [FOURIER_TRANSFORMED] * 2  # stacks of 320 and 180

    def test_every_family_once_per_block(self, monkeypatch):
        calls = self._families(monkeypatch)
        results = size_experiment(
            [DgpSpec(t=100, rho=0.3)], F_VARIANTS, k_policy=4, reps=500,
            master_seed=5, cv_cache=CriticalValueCache(), cv_replications=1000,
            cv_grid=150,
        )
        assert all(row.failures == 0 for row in results)
        assert calls == [FOURIER_RAW, FOURIER_TRANSFORMED] * 2  # 320 and 180

    def test_engine_holds_no_statistic_of_its_own(self):
        held = {"series_sums", "_leading_mean", "raw_statistic"} & set(vars(mcstudy))
        assert held == set()
        assert "raw_statistic" not in vars(chowtest)


def _src_env(**extra) -> dict:
    """The environment of a subprocess that imports this ``harchow``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcstudy.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_STUDY_TABLES = """
from harchow import cli
for argv in (
    ["mc-size", "--T", "200", "--cells", "0:0,0.6:0", "--reps", "500", "--seed", "3",
     "--variants", "chisq-fourier,f-transformed"],
    ["mc-power", "--T", "200", "--reps", "128", "--seed", "3"],
):
    assert cli.main(argv) == 0
"""


def test_study_tables_do_not_depend_on_the_blas_thread_count():
    # one subprocess per thread count, since OpenBLAS reads it at import: an
    # auto-K size study of two cells and a power study write the same bytes
    tables = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _STUDY_TABLES],
            env=_src_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        tables.append(done.stdout)
    assert len(tables[0].splitlines()) == 1 + 2 * 2 + 1 + 2 * 7
    assert tables[0] == tables[1]


class _ZeroStream:
    """A replication stream whose innovations are all zero: its regressor is
    constant, so its break design is singular."""

    def normals(self, n):
        return np.zeros(n)


def _plant_zero_rows(monkeypatch, planted):
    """Replications ``planted`` of every cell draw all-zero innovations, as
    a :class:`_ZeroStream` does, through the engine's block draw."""
    real = mcstudy._block_normals

    def block_normals(seed, cell, reps, n):
        z = real(seed, cell, reps, n)
        z[[i for i, rep in enumerate(reps) if rep in planted]] = 0.0
        return z

    monkeypatch.setattr(mcstudy, "_block_normals", block_normals)


class TestFailedReplications:
    PLANTED = 70  # second block of 64, with 63 block-mates

    def _plant(self, monkeypatch):
        _plant_zero_rows(monkeypatch, {self.PLANTED})
        return mcstudy._rep_stream

    def test_planted_failure_is_flagged_alone(self, monkeypatch):
        real = self._plant(monkeypatch)
        spec = DgpSpec(t=100, rho=0.3)
        deltas = (0.0, 0.5)
        pair = ("chisq-fourier", "f-transformed")
        stats = _run_cell(spec, 9, 0, 130, "auto", deltas, pair)
        expected = np.zeros(130, dtype=bool)
        expected[self.PLANTED] = True
        assert np.array_equal(stats.failed, expected)
        y, x = simulate_dgp(spec, _ZeroStream())
        with pytest.raises(HarchowError):
            run_test(RegressionData(y, x, None, spec.lam), k="auto")
        # its block-mates keep run_test's decision statistics and K
        for rep in range(64, 128):
            if rep == self.PLANTED:
                continue
            for d_idx, delta in enumerate(deltas):
                shifted = DgpSpec(t=100, rho=0.3, delta=delta)
                y, x = simulate_dgp(shifted, real(9, 0, rep))
                assert_values_match_run_test(
                    stats, pair, y, x, spec.lam, "auto", rep, (rep, d_idx, 0)
                )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the planted stream only when forked",
    )
    def test_planted_failure_csv_same_for_any_worker_count(self, monkeypatch):
        self._plant(monkeypatch)
        tables = []
        for workers in (1, 2):
            results = size_experiment(
                [DgpSpec(t=100, rho=0.3)], ("chisq-fourier", "f-transformed"),
                reps=500, master_seed=9, workers=workers,
            )
            assert all(r.failures == 1 for r in results)
            tables.append(size_table_csv(results))
        assert tables[0] == tables[1]


class TestWorkerPool:
    def test_pool_capped_by_blocks_and_cpus(self, monkeypatch):
        sizes = []

        class Recorder:
            """Records the pool size and runs the blocks in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(mcstudy, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(mcstudy, "_usable_cpus", lambda: 4)
        spec = DgpSpec(t=200, rho=0.0)  # stacks of 128
        for reps, workers in ((300, 10**6), (1280, 10**6), (300, 2), (128, 8)):
            _run_cell(spec, 3, 0, reps, [4], (0.0,), F_VARIANTS, workers=workers)
        # 3 stacks; 10 stacks on 4 CPUs; 2 workers; one stack runs serially
        assert sizes == [3, 4, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        spec = DgpSpec(t=60, rho=0.0)
        with pytest.raises(ValueError, match="at least one worker"):
            _run_cell(spec, 3, 0, 64, [4], (0.0,), F_VARIANTS, workers=workers)


class TestStacks:
    """Statistics run on stacks of 64-replication draw blocks, as many as
    T allows; the draws, the tables and the flagged failures are those of
    the blocks evaluated alone."""

    @pytest.mark.parametrize("t, size", [
        (50, 640), (60, 512), (100, 320), (200, 128), (511, 64), (512, 64),
        (5000, 64),
    ])
    def test_stack_size_follows_t(self, t, size):
        assert mcstudy._stack_size(t) == size

    def test_stack_draws_are_its_blocks_simulated_alone(self):
        spec = DgpSpec(t=100, rho=0.6, psi=0.3, delta=0.5)
        n = spec.t + spec.burn_in
        y, x = mcstudy._draw_stack(spec, 7, 2, (320, 590))
        assert y.shape == (270, 100) and x.shape == (270, 100, 2)
        for lo in range(320, 590, 64):
            reps = range(lo, min(lo + 64, 590))
            z = np.stack([_rep_stream(7, 2, rep).normals(2 * n) for rep in reps])
            y_alone, x_alone = _simulate_stack(replace(spec, delta=0.0), z)
            rows = slice(lo - 320, lo - 320 + len(reps))
            assert np.array_equal(y[rows], y_alone), lo
            assert np.array_equal(x[rows], x_alone), lo

    def test_multi_stack_csv_same_for_any_worker_count(self, monkeypatch):
        # at T = 100, 700 replications are stacks of 320, 320 and 60
        def table(workers):
            return size_table_csv(size_experiment(
                [DgpSpec(t=100, rho=0.3)], ("chisq-fourier", "f-transformed"),
                reps=700, master_seed=11, workers=workers,
            ))

        tables = [table(workers) for workers in (1, 2, 3)]
        monkeypatch.setattr(mcstudy, "_STACK_VALUES", 1)  # one draw block each
        assert mcstudy._stack_size(100) == 64
        assert tables[0] == tables[1] == tables[2] == table(1)

    def test_failure_in_a_multi_block_stack_is_flagged_alone(self, monkeypatch):
        spec, planted = DgpSpec(t=100, rho=0.3), 70
        pair = ("chisq-fourier", "f-transformed")
        clean = _run_cell(spec, 9, 0, 320, "auto", (0.0, 0.5), pair)
        real_statistics = mcstudy._stack_statistics
        sizes = []

        def statistics(*args):
            sizes.append(len(args[-1]))
            return real_statistics(*args)

        _plant_zero_rows(monkeypatch, {planted})
        monkeypatch.setattr(mcstudy, "_stack_statistics", statistics)
        stats = _run_cell(spec, 9, 0, 320, "auto", (0.0, 0.5), pair)
        assert np.flatnonzero(stats.failed).tolist() == [planted]
        # the stack, its five blocks, and the failing block's 64 replications
        assert sizes == [320, 64, 64] + [1] * 64 + [64] * 3
        # and the others keep their K and, up to the kernel solve's rounding
        # over a different column count, their statistics
        keep = np.arange(320) != planted
        for name in pair:
            assert np.array_equal(stats.k_used[name][keep], clean.k_used[name][keep])
            assert np.allclose(
                stats.values[name][keep], clean.values[name][keep], rtol=1e-13, atol=0
            ), name


class TestSizeExperiment:
    def test_csv_identical_across_worker_counts(self):
        specs = [DgpSpec(t=60, rho=0.3)]
        tables = []
        for workers in (1, 2, 3):
            results = size_experiment(
                specs, ("chisq-fourier", "f-transformed"), k_policy=6,
                reps=500, master_seed=11, workers=workers,
            )
            tables.append(size_table_csv(results))
        assert tables[0] == tables[1] == tables[2]

    def test_two_seeds_agree_within_mc_error(self):
        specs = [DgpSpec(t=100, rho=0.0)]
        rates = []
        for seed in (0, 1):
            res = size_experiment(
                specs, ("f-transformed",), k_policy=8, reps=2000, master_seed=seed
            )
            rates.append(res[0])
        combined_se = np.sqrt(rates[0].mc_se**2 + rates[1].mc_se**2)
        assert abs(rates[0].rejection - rates[1].rejection) <= 3 * combined_se

    def test_burn_in_insensitivity(self):
        rates = []
        for burn in (500, 2000):
            res = size_experiment(
                [DgpSpec(t=100, rho=0.6, burn_in=burn)],
                ("f-transformed",), k_policy=8, reps=1000, master_seed=5,
            )
            rates.append(res[0])
        combined_se = np.sqrt(rates[0].mc_se**2 + rates[1].mc_se**2)
        assert abs(rates[0].rejection - rates[1].rejection) <= 3 * combined_se

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -1.0])
    def test_rejects_level_outside_unit_interval(self, alpha):
        spec = DgpSpec(t=60, rho=0.0)
        with pytest.raises(ValueError, match="level must lie in"):
            size_experiment([spec], ("f-transformed",), 4, reps=500, alpha=alpha)
        with pytest.raises(ValueError, match="level must lie in"):
            k_grid_experiment(spec, (4,), ("f-transformed",), reps=500, alpha=alpha)

    def test_validation(self):
        spec = DgpSpec(t=60, rho=0.0)
        with pytest.raises(ValueError):
            size_experiment([], reps=500)
        with pytest.raises(ValueError):
            size_experiment([spec], ("t-transformed",), reps=500)
        # one replication rule for every study: 100 replications run, and
        # fewer than one are refused
        [row] = size_experiment([spec], ("f-transformed",), 4, reps=100)
        assert row.reps == 100 and row.failures == 0
        for reps in (0, -1):
            for study in (
                lambda: size_experiment([spec], ("f-transformed",), 4, reps=reps),
                lambda: k_grid_experiment(spec, (4,), ("f-transformed",), reps=reps),
                lambda: power_experiment(spec, (0.0, 0.5), 4, reps=reps),
            ):
                with pytest.raises(ValueError, match="at least one replication"):
                    study()

    def test_a_k_grid_lists_cells_then_ks_then_variants(self):
        specs = [DgpSpec(t=60, rho=0.3), DgpSpec(t=80, rho=0.6, psi=0.3)]
        variants, ks = ("chisq-fourier", "f-transformed"), (4, 8, 12)
        study = partial(size_experiment, variants=variants, k_policy=ks, reps=128,
                        master_seed=7)
        rows = study(specs)
        assert [(r.t, r.rho, r.psi, r.k_policy, r.variant) for r in rows] == [
            (s.t, s.rho, s.psi, str(k), v) for s in specs for k in ks for v in variants
        ]
        assert rows[: len(ks) * len(variants)] == study(specs[:1])
        # a fixed K below T - 2 is used as given
        assert [r.ave_k for r in rows] == [k for s in specs for k in ks for v in variants]


class TestPowerExperiment:
    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_fewer_than_one_replication(self, reps):
        with pytest.raises(ValueError, match="at least one replication"):
            power_experiment(DgpSpec(t=60, rho=0.0), (0.0, 0.5), 4, reps=reps)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_rejects_level_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="level must lie in"):
            power_experiment(
                DgpSpec(t=60, rho=0.0), (0.0, 0.5), 4, reps=64, alpha=alpha
            )

    def test_size_adjusted_power_at_null_is_alpha(self):
        out = power_experiment(
            DgpSpec(t=60, rho=0.0), deltas=(0.0, 0.5), k_policy=4,
            reps=500, master_seed=21,
        )
        n_ok = out["n_ok"]
        for curve in out["power"].values():
            assert abs(curve[0] - 0.05) <= 2.0 / n_ok + 1e-12

    def test_power_increases_with_break_size(self):
        out = power_experiment(
            DgpSpec(t=100, rho=0.0), deltas=(0.0, 0.4, 0.8, 1.2), k_policy=8,
            reps=800, master_seed=22,
        )
        for curve in out["power"].values():
            se = 2 * np.sqrt(0.25 / out["n_ok"])
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= lo - 2 * se
            assert curve[-1] > curve[0]

    def test_no_successful_replication_gives_nan_curves(self, monkeypatch):
        # every replication fails, as a size row with failures = reps does
        _plant_zero_rows(monkeypatch, range(64))
        out = power_experiment(DgpSpec(t=60, rho=0.0), (0.5,), k_policy=4, reps=64)
        assert out["n_ok"] == 0
        assert set(out["power"]) == {FOURIER_RAW, FOURIER_TRANSFORMED}
        for curve in out["power"].values():
            assert len(curve) == 2 and np.isnan(curve).all()

    def test_common_random_numbers_make_pairs_identical(self):
        # one curve per basis family; that the tests of a pair share their
        # adjusted decisions is checked by acceptance criterion 8
        out = power_experiment(
            DgpSpec(t=60, rho=0.3), deltas=(0.0, 0.6), k_policy=4,
            reps=500, master_seed=23,
        )
        assert set(out["power"]) == {"fourier-raw", "fourier-transformed"}


def test_csv_formatting_stable():
    specs = [DgpSpec(t=60, rho=0.0)]
    results = size_experiment(
        specs, ("f-transformed",), k_policy=4, reps=500, master_seed=2
    )
    table = size_table_csv(results)
    header, row = table.strip().split("\n")
    assert header.startswith("T,rho,psi,delta,variant")
    assert row.split(",")[4] == "f-transformed"


class TestAdditionalSurfaces:
    def test_nonstandard_variant_in_size_experiment(self):
        # fixed K so a single simulated reference serves every replication
        from harchow.fixedlimit import CriticalValueCache

        cache = CriticalValueCache()
        results = size_experiment(
            [DgpSpec(t=60, rho=0.0)], ("nonstandard-fourier",), k_policy=4,
            reps=500, master_seed=31, cv_cache=cache,
            cv_replications=1000, cv_grid=150,
        )
        assert 0.0 < results[0].rejection < 0.2
        assert results[0].failures == 0

    def test_stable_covariates_keep_f_test_calibrated(self):
        # residualizing a covariate with a stable coefficient leaves the
        # break test's null behavior intact
        from harchow.numkit import RngStream
        from harchow.regression import RegressionData

        rejections = 0
        reps = 400
        for rep in range(reps):
            rng = RngStream(777, rep)
            t = 200
            y0, x = simulate_dgp(DgpSpec(t=t, rho=0.3), rng)
            z = rng.normals(t)[:, None]
            y = y0 + 1.5 * z[:, 0]
            data = RegressionData(y, x, z, 0.4)
            rep_out = run_test(data, variant="f-transformed", k=8)
            rejections += rep_out.reject
        rate = rejections / reps
        assert 0.02 <= rate <= 0.10


def _no_replications(*args, **kwargs):
    raise AssertionError("a replication ran before the inputs were checked")


class TestStudyFrontEnd:
    """Each study parses its K policy once and checks its variants, level
    and K against every cell before the first replication."""

    @pytest.mark.parametrize("study", [
        lambda: size_experiment([DgpSpec(t=60, rho=0.0)], k_policy=4.5, reps=500),
        lambda: size_experiment([DgpSpec(t=60, rho=0.0)], k_policy="8", reps=500),
        lambda: power_experiment(DgpSpec(t=60, rho=0.0), (0.5,), k_policy="bogus"),
        lambda: k_grid_experiment(DgpSpec(t=60, rho=0.0), (4.5,)),
        lambda: k_grid_experiment(DgpSpec(t=60, rho=0.0), ()),
        lambda: power_experiment(DgpSpec(t=200, rho=0.0), (0.5,), reps=2000, alpha=1.5),
        lambda: size_experiment(
            [DgpSpec(t=200, rho=0.0), DgpSpec(t=60, rho=0.0)], k_policy=100, reps=500
        ),
        lambda: power_experiment(DgpSpec(t=60, rho=0.0), (0.5, np.inf), k_policy=4),
        # every study tests p = 2 restrictions, so K = 1 has no Wald form
        lambda: size_experiment([DgpSpec(t=60, rho=0.0)], k_policy=1, reps=500),
        lambda: power_experiment(DgpSpec(t=60, rho=0.0), (0.5,), k_policy=1),
        lambda: k_grid_experiment(DgpSpec(t=60, rho=0.0), (1, 4)),
        # a break that leaves a regime below m + 2 = 4 points, or none at all
        lambda: size_experiment([DgpSpec(t=100, rho=0.0, lam=0.02)], reps=500),
        lambda: k_grid_experiment(DgpSpec(t=100, rho=0.0, lam=0.98), (4,)),
        lambda: power_experiment(DgpSpec(t=100, rho=0.0, lam=0.02), (0.5,)),
        lambda: size_experiment([DgpSpec(t=100, rho=0.0, lam=1.5)], reps=500),
        lambda: power_experiment(DgpSpec(t=100, rho=0.0, lam=0.0), (0.5,)),
    ])
    def test_bad_input_fails_before_any_replication(self, study, monkeypatch):
        monkeypatch.setattr(mcstudy, "_run_cell", _no_replications)
        with pytest.raises((ValueError, RegimeTooSmall)):
            study()

    @pytest.mark.parametrize("settings, message", [
        (dict(cv_grid=10**10), "need 100..1000000 grid points"),
        (dict(cv_replications=999), "need 1000..10000000 replications"),
        (dict(cv_seed=-1), "seed must be nonnegative"),
    ])
    def test_simulation_settings_checked_before_any_replication(
        self, settings, message, monkeypatch
    ):
        # checked up front when a variant's reference is simulated, and not
        # at all when none is
        monkeypatch.setattr(mcstudy, "_run_cell", _no_replications)
        spec = DgpSpec(t=60, rho=0.0)
        for variants, raised, match in (
            (("f-transformed", "nonstandard-fourier"), ValueError, message),
            (("f-transformed",), AssertionError, "a replication ran"),
        ):
            with pytest.raises(raised, match=match):
                size_experiment([spec], variants, reps=500, **settings)
            with pytest.raises(raised, match=match):
                k_grid_experiment(spec, (4,), variants, **settings)

    @pytest.mark.parametrize("t, k, settings, message", [
        (200, 150, dict(cv_grid=100), "need K <= n - 2 = 98 on the simulation grid"),
        (2100, 2001, dict(cv_grid=5000), "need K <= 2000 for a simulated law"),
    ])
    def test_fixed_k_of_a_simulated_law_checked_before_any_replication(
        self, t, k, settings, message, monkeypatch
    ):
        # a fixed K the simulated law refuses is refused up front; with
        # analytic references alone, or at K = n - 2, the replications run
        monkeypatch.setattr(mcstudy, "_run_cell", _no_replications)
        spec = DgpSpec(t=t, rho=0.0)
        for variants, raised, match in (
            (("f-transformed", "nonstandard-fourier"), ValueError, message),
            (("f-transformed",), AssertionError, "a replication ran"),
        ):
            with pytest.raises(raised, match=match):
                size_experiment([spec], variants, k_policy=k, reps=500, **settings)
            with pytest.raises(raised, match=match):
                k_grid_experiment(spec, (4, k), variants, **settings)
        with pytest.raises(AssertionError, match="a replication ran"):
            k_grid_experiment(spec, (4, 98), ("nonstandard-fourier",), cv_grid=100)

    @pytest.mark.parametrize("t, grid, bound", [(1000, 100, 98), (2100, 5000, 2000)])
    def test_auto_k_past_a_simulated_law_is_warned_before_any_replication(
        self, t, grid, bound, monkeypatch, caplog
    ):
        # auto K can reach T - 2: the largest cell past the simulated law's
        # bound is warned about once, before the replications that could
        # reach it; cells the bound covers, or analytic references, warn not
        monkeypatch.setattr(mcstudy, "_run_cell", _no_replications)
        small = DgpSpec(t=60, rho=0.0)
        both = [DgpSpec(t=t, rho=0.0), small]
        for cells, variants, warned in (
            (both, ("f-transformed", "nonstandard-fourier"), True),
            ([small], ("nonstandard-fourier",), False),
            (both, ("f-transformed",), False),
        ):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="harchow.mcstudy"):
                with pytest.raises(AssertionError, match="a replication ran"):
                    size_experiment(cells, variants, reps=500, cv_grid=grid)
            records = [r for r in caplog.records if r.name == "harchow.mcstudy"]
            assert len(records) == warned, variants
            if warned:
                message = records[0].getMessage()
                assert f"T = {t}" in message and f"K <= {bound}" in message

    @pytest.mark.parametrize("t, lam, k_star", [
        (100, 0.02, 2), (100, 0.039, 3), (100, 0.97, 97), (50, 0.99, 49),
        (1000, 0.003, 3),
    ])
    def test_design_refuses_a_regime_below_four_points(self, t, lam, k_star):
        # the message of harchow test, which refuses the same break
        with pytest.raises(RegimeTooSmall, match=(
            rf"^break at {k_star} of {t} leaves a regime below m \+ 2 = 4$"
        )):
            DgpSpec(t=t, rho=0.0, lam=lam)
        DgpSpec(t=t, rho=0.0, lam=4 / t)
        DgpSpec(t=t, rho=0.0, lam=(t - 4) / t)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.4, 1.5, np.nan, np.inf])
    def test_design_refuses_a_break_fraction_outside_the_unit_interval(self, lam):
        with pytest.raises(ValueError, match="break fraction must lie in"):
            DgpSpec(t=100, rho=0.0, lam=lam)

    def test_whole_k_is_labelled_as_an_int(self):
        spec = DgpSpec(t=60, rho=0.0)
        tables = [
            size_table_csv(size_experiment(
                [spec], ("f-transformed",), k_policy=k, reps=500, master_seed=3
            ))
            for k in (8, 8.0, np.int64(8))
        ]
        assert tables[0] == tables[1] == tables[2]
        assert tables[0].splitlines()[1].split(",")[5] == "8"
        [row] = k_grid_experiment(spec, (8.0,), ("f-transformed",), reps=500,
                                  master_seed=3)
        assert row.k_policy == "8"

    @pytest.mark.parametrize("field", ["rho", "psi", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_design_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="need finite rho, psi and delta"):
            DgpSpec(**{"t": 60, "rho": 0.0, field: value})

    def test_int_valued_design_prints_in_fixed_precision(self):
        spec = DgpSpec(t=60, rho=0, psi=0)
        [row] = size_experiment([spec], ("f-transformed",), k_policy=4, reps=500)
        assert size_table_csv([row]).splitlines()[1].startswith(
            "60,0.000000,0.000000,0.000000,f-transformed,4,500,"
        )
        power = {"deltas": (0, 1), "power": {"fourier-raw": [0.05, 1]}}
        assert mcstudy.power_table_csv(power, spec).splitlines()[1:] == [
            "60,0.000000,0.000000,0.000000,fourier-raw,0.050000",
            "60,0.000000,0.000000,1.000000,fourier-raw,1.000000",
        ]


# Study tables as the per-K scalar decision loop wrote them, pinned as text:
# deciding all replications of a variant in one array pass, and reusing a
# cell's bases, must not move a byte.
PINNED_SIZE_CSV = (
    "T,rho,psi,delta,variant,k_policy,reps,rejection,mc_se,ave_k,failures\n"
    "60,0.000000,0.000000,0.000000,chisq-fourier,auto,500,0.138000,0.015424,20.090000,0\n"
    "60,0.000000,0.000000,0.000000,chisq-transformed,auto,500,0.132000,0.015138,20.090000,0\n"
    "60,0.000000,0.000000,0.000000,f-transformed,auto,500,0.086000,0.012538,20.090000,0\n"
    "60,0.600000,0.600000,0.000000,chisq-fourier,auto,500,0.400000,0.021909,4.788000,0\n"
    "60,0.600000,0.600000,0.000000,chisq-transformed,auto,500,0.354000,0.021386,4.788000,0\n"
    "60,0.600000,0.600000,0.000000,f-transformed,auto,500,0.102000,0.013535,4.788000,0\n"
)

PINNED_K_GRID_CSV = (
    "T,rho,psi,delta,variant,k_policy,reps,rejection,mc_se,ave_k,failures\n"
    "60,0.300000,0.000000,0.000000,chisq-fourier,4,500,0.328000,0.020996,4.000000,0\n"
    "60,0.300000,0.000000,0.000000,nonstandard-fourier,4,500,0.048000,0.009560,4.000000,0\n"
    "60,0.300000,0.000000,0.000000,f-transformed,4,500,0.052000,0.009929,4.000000,0\n"
    "60,0.300000,0.000000,0.000000,chisq-fourier,8,500,0.198000,0.017821,8.000000,0\n"
    "60,0.300000,0.000000,0.000000,nonstandard-fourier,8,500,0.090000,0.012798,8.000000,0\n"
    "60,0.300000,0.000000,0.000000,f-transformed,8,500,0.070000,0.011411,8.000000,0\n"
    "60,0.300000,0.000000,0.000000,chisq-fourier,16,500,0.146000,0.015791,16.000000,0\n"
    "60,0.300000,0.000000,0.000000,nonstandard-fourier,16,500,0.084000,0.012405,16.000000,0\n"
    "60,0.300000,0.000000,0.000000,f-transformed,16,500,0.078000,0.011993,16.000000,0\n"
)


# Power tables as the per-break-size refits wrote them, pinned as text:
# taking every break size from the null fit must not move a byte.
PINNED_POWER_AUTO_K_CSV = (
    "T,rho,psi,delta,family,power\n"
    "60,0.600000,0.000000,0.000000,fourier-raw,0.046875\n"
    "60,0.600000,0.000000,0.500000,fourier-raw,0.195312\n"
    "60,0.600000,0.000000,1.000000,fourier-raw,0.617188\n"
    "60,0.600000,0.000000,0.000000,fourier-transformed,0.046875\n"
    "60,0.600000,0.000000,0.500000,fourier-transformed,0.187500\n"
    "60,0.600000,0.000000,1.000000,fourier-transformed,0.617188\n"
)

PINNED_POWER_K8_CSV = (
    "T,rho,psi,delta,family,power\n"
    "60,0.600000,0.000000,0.000000,fourier-raw,0.046875\n"
    "60,0.600000,0.000000,0.500000,fourier-raw,0.179688\n"
    "60,0.600000,0.000000,1.000000,fourier-raw,0.546875\n"
    "60,0.600000,0.000000,0.000000,fourier-transformed,0.046875\n"
    "60,0.600000,0.000000,0.500000,fourier-transformed,0.210938\n"
    "60,0.600000,0.000000,1.000000,fourier-transformed,0.617188\n"
)


class TestPinnedTables:
    def test_auto_k_size_table(self):
        results = size_experiment(
            [DgpSpec(t=60, rho=0.0), DgpSpec(t=60, rho=0.6, psi=0.6)],
            ("chisq-fourier", "chisq-transformed", "f-transformed"),
            k_policy="auto", reps=500, master_seed=17,
        )
        assert size_table_csv(results) == PINNED_SIZE_CSV

    def test_k_grid_table_with_a_simulated_reference(self):
        results = k_grid_experiment(
            DgpSpec(t=60, rho=0.3), (4, 8, 16),
            ("chisq-fourier", "nonstandard-fourier", "f-transformed"),
            reps=500, master_seed=23, cv_cache=CriticalValueCache(),
            cv_replications=1000, cv_grid=150,
        )
        assert size_table_csv(results) == PINNED_K_GRID_CSV

    def test_a_size_study_at_a_k_grid_is_the_k_grid_study(self):
        # the inputs of the K-grid table above, through size_experiment
        results = size_experiment(
            [DgpSpec(t=60, rho=0.3)],
            ("chisq-fourier", "nonstandard-fourier", "f-transformed"), (4, 8, 16),
            reps=500, master_seed=23, cv_cache=CriticalValueCache(),
            cv_replications=1000, cv_grid=150,
        )
        assert size_table_csv(results) == PINNED_K_GRID_CSV

    @pytest.mark.parametrize("k_policy, pinned", [
        ("auto", PINNED_POWER_AUTO_K_CSV), (8, PINNED_POWER_K8_CSV),
    ])
    def test_power_table(self, k_policy, pinned):
        spec = DgpSpec(t=60, rho=0.6)
        power = power_experiment(
            spec, (0.0, 0.5, 1.0), k_policy=k_policy, reps=128, master_seed=29
        )
        assert power["n_ok"] == 128
        assert mcstudy.power_table_csv(power, spec) == pinned


_COLD_TABLE = """
from harchow import mcstudy
print(mcstudy.size_table_csv(mcstudy.size_experiment(
    [mcstudy.DgpSpec(t=60, rho=0.3)], ("chisq-fourier", "f-transformed"),
    reps=500, master_seed=5,
)), end="")
"""


class TestNoDesignState:
    """The engine keeps nothing from one design for the next: a cell's
    table and statistics depend on its own inputs only."""

    def _table(self):
        return size_table_csv(size_experiment(
            [DgpSpec(t=60, rho=0.3)], ("chisq-fourier", "f-transformed"),
            reps=500, master_seed=5,
        ))

    def test_cold_and_warm_tables_agree(self):
        # cold in a fresh process; here after another (T, lambda), then again
        done = subprocess.run(
            [sys.executable, "-c", _COLD_TABLE], env=_src_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        size_experiment(
            [DgpSpec(t=90, rho=0.3, lam=0.55)], ("chisq-fourier", "f-transformed"),
            reps=500, master_seed=5,
        )
        after_other = self._table()
        assert done.stdout == after_other == self._table()

    def test_block_statistics_ignore_the_previous_design(self):
        spec, other = DgpSpec(t=60, rho=0.3), DgpSpec(t=90, rho=0.3, lam=0.55)
        run = partial(_run_block, master_seed=5, cell_id=0, k_policy="auto",
                      deltas=(0.0, 0.5), variants=F_VARIANTS, rep_range=(0, 64))
        first = run(spec)
        run(other)
        second = run(spec)
        for field in ("values", "k_used"):
            for name in F_VARIANTS:
                a, b = getattr(first, field)[name], getattr(second, field)[name]
                assert np.array_equal(a, b), (field, name)
        assert np.array_equal(first.failed, second.failed)
        # and they are run_test's, at both break sizes
        for rep in range(3):
            for d_idx, delta in enumerate((0.0, 0.5)):
                y, x = simulate_dgp(replace(spec, delta=delta), _rep_stream(5, 0, rep))
                assert_values_match_run_test(
                    second, F_VARIANTS, y, x, spec.lam, "auto", rep, (rep, d_idx, 0)
                )
        memos = [name for name, obj in vars(mcstudy).items() if hasattr(obj, "cache_info")]
        assert memos == []
