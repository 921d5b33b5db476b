import multiprocessing
from functools import partial

import numpy as np
import pytest

from harchow import mcstudy
from harchow.bases import FOURIER_RAW, FOURIER_TRANSFORMED
from harchow.chowtest import VARIANTS, reference, run_test
from harchow.errors import HarchowError
from harchow.fixedlimit import CriticalValueCache
from harchow.mcstudy import (
    F_VARIANTS,
    DgpSpec,
    _ar1_filter,
    _cell_bases,
    _rejections,
    _rep_stream,
    _run_block,
    _run_cell,
    k_grid_experiment,
    power_experiment,
    simulate_dgp,
    size_experiment,
    size_table_csv,
)
from harchow.numkit import RngStream
from harchow.regression import RegressionData


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


class TestRunCellConsistency:
    def test_block_statistic_matches_run_test(self):
        spec = DgpSpec(t=100, rho=0.3)
        bases = _cell_bases(spec.t, spec.lam)
        out = _run_block(
            spec, bases, master_seed=9, cell_id=0, rep_range=(0, 3),
            k_policy=[8], deltas=(0.0,),
        )
        for rep in range(3):
            y, x = simulate_dgp(
                DgpSpec(t=100, rho=0.3, delta=0.0), _rep_stream(9, 0, rep)
            )
            data = RegressionData(y, x, None, spec.lam)
            rep_trans = run_test(data, variant="f-transformed", k=8)
            rep_raw = run_test(data, variant="chisq-fourier", k=8)
            assert out.wald[FOURIER_TRANSFORMED][rep, 0, 0] == pytest.approx(
                rep_trans.statistic_raw, rel=1e-10
            )
            assert out.wald[FOURIER_RAW][rep, 0, 0] == pytest.approx(
                rep_raw.statistic_raw, rel=1e-10
            )

    @pytest.mark.parametrize("rho", [0.0, 0.6, 0.9])
    def test_decisions_match_run_test_under_auto_k(self, rho):
        # the engine decides every F variant, replication by replication,
        # exactly as run_test does on the regenerated series
        spec = DgpSpec(t=100, rho=rho)
        bases = _cell_bases(spec.t, spec.lam)
        cache = CriticalValueCache()
        references = partial(
            reference, alpha=0.05, cv_seed=0, cv_replications=1000, cv_grid=150,
            cache=cache,
        )
        stats = _run_block(
            spec, bases, master_seed=13, cell_id=0, rep_range=(0, 60),
            k_policy="auto", deltas=(0.0,),
        )
        ok = ~stats.failed[:, 0]
        reps = np.nonzero(ok)[0]
        assert len(reps) >= 50
        for name in F_VARIANTS:
            reject, k_used = _rejections(
                VARIANTS[name], stats, bases, spec.lam, (ok, 0, 0), references
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
        bases = _cell_bases(spec.t, spec.lam)
        serial = _run_cell(spec, bases, 3, 0, 130, [4], (0.0,), workers=1)
        parallel = _run_cell(spec, bases, 3, 0, 130, [4], (0.0,), workers=3)
        for family in bases:
            assert np.array_equal(serial.wald[family], parallel.wald[family])
            assert np.array_equal(serial.k_used[family], parallel.k_used[family])
        assert np.array_equal(serial.failed, parallel.failed)


class _ZeroStream:
    """A replication stream whose innovations are all zero: its regressor is
    constant, so its break design is singular."""

    def normals(self, n):
        return np.zeros(n)


class TestFailedReplications:
    PLANTED = 70  # second block of 64, with 63 block-mates

    def _plant(self, monkeypatch):
        real = mcstudy._rep_stream

        def stream(seed, cell, rep):
            return _ZeroStream() if rep == self.PLANTED else real(seed, cell, rep)

        monkeypatch.setattr(mcstudy, "_rep_stream", stream)
        return real

    def test_planted_failure_is_flagged_alone(self, monkeypatch):
        real = self._plant(monkeypatch)
        spec = DgpSpec(t=100, rho=0.3)
        bases = _cell_bases(spec.t, spec.lam)
        deltas = (0.0, 0.5)
        stats = _run_cell(spec, bases, 9, 0, 130, "auto", deltas)
        expected = np.zeros((130, 2), dtype=bool)
        expected[self.PLANTED] = True
        assert np.array_equal(stats.failed, expected)
        y, x = simulate_dgp(spec, _ZeroStream())
        with pytest.raises(HarchowError):
            run_test(RegressionData(y, x, None, spec.lam), k="auto")
        # its block-mates keep run_test's statistics and K
        for rep in range(64, 128):
            if rep == self.PLANTED:
                continue
            for d_idx, delta in enumerate(deltas):
                shifted = DgpSpec(t=100, rho=0.3, delta=delta)
                y, x = simulate_dgp(shifted, real(9, 0, rep))
                data = RegressionData(y, x, None, spec.lam)
                for name in ("chisq-fourier", "f-transformed"):
                    report = run_test(data, variant=name, k="auto")
                    family = VARIANTS[name].basis_family
                    assert stats.wald[family][rep, d_idx, 0] == pytest.approx(
                        report.statistic_raw, rel=1e-10
                    )
                    assert stats.k_used[family][rep, d_idx, 0] == report.k

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
        spec = DgpSpec(t=60, rho=0.0)
        bases = _cell_bases(spec.t, spec.lam)
        for reps, workers in ((130, 10**6), (640, 10**6), (130, 2), (64, 8)):
            _run_cell(spec, bases, 3, 0, reps, [4], (0.0,), workers=workers)
        # 3 blocks; 10 blocks on 4 CPUs; 2 workers; one block runs serially
        assert sizes == [3, 4, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        spec = DgpSpec(t=60, rho=0.0)
        with pytest.raises(ValueError, match="at least one worker"):
            _run_cell(
                spec, _cell_bases(spec.t, spec.lam), 3, 0, 64, [4], (0.0,),
                workers=workers,
            )


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
        with pytest.raises(ValueError):
            size_experiment([], reps=500)
        with pytest.raises(ValueError):
            size_experiment([DgpSpec(t=60, rho=0.0)], reps=100)
        with pytest.raises(ValueError):
            size_experiment(
                [DgpSpec(t=60, rho=0.0)], ("t-transformed",), reps=500
            )


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
    ])
    def test_bad_input_fails_before_any_replication(self, study, monkeypatch):
        monkeypatch.setattr(mcstudy, "_run_cell", _no_replications)
        with pytest.raises(ValueError):
            study()

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
