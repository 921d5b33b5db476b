import json
import os

import numpy as np
import pytest

from harchow import cli
from harchow.chowtest import run_test
from harchow.mcstudy import DgpSpec, simulate_dgp
from harchow.numkit import RngStream
from harchow.regression import RegressionData


@pytest.fixture()
def data_csv(tmp_path):
    y, x = simulate_dgp(DgpSpec(t=200, rho=0.6), RngStream(42, 0))
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        fh.write("y,const,q\n")
        for i in range(200):
            fh.write(f"{y[i]:.17g},{x[i,0]:.17g},{x[i,1]:.17g}\n")
    return str(path), y, x


class TestCmdTest:
    def test_report_matches_library_bitwise(self, data_csv, tmp_path, capsys):
        path, y, x = data_csv
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "test", "--data", path, "--y", "y", "--x", "const,q",
                "--lambda", "0.4", "--k", "8", "--variant", "f-transformed",
                "--json", str(out),
            ]
        )
        assert code == 0
        envelope = json.loads(out.read_text())
        assert envelope["schema"] == 1
        assert envelope["config"]["k"] == 8
        expected = run_test(
            RegressionData(y, x, None, 0.4), variant="f-transformed", k=8
        )
        assert envelope["result"]["statistic_scaled"] == expected.statistic_scaled
        assert envelope["result"]["p_value"] == expected.p_value
        text = capsys.readouterr().out
        assert "df-scaled statistic" in text

    def test_extreme_break_fraction_exits_2(self, data_csv, capsys):
        path, _, _ = data_csv
        code = cli.main(
            [
                "test", "--data", path, "--y", "y", "--x", "const,q",
                "--lambda", "0.99",
            ]
        )
        assert code == 2
        assert "RegimeTooSmall" in capsys.readouterr().err

    def test_auto_k_reports_plugin(self, data_csv, tmp_path):
        path, y, x = data_csv
        out = tmp_path / "auto.json"
        code = cli.main(
            [
                "test", "--data", path, "--y", "y", "--x", "const,q",
                "--lambda", "0.4", "--k", "auto", "--json", str(out),
            ]
        )
        assert code == 0
        envelope = json.loads(out.read_text())
        expected = run_test(RegressionData(y, x, None, 0.4), k="auto")
        assert envelope["result"]["k"] == expected.k
        assert envelope["result"]["plugin"]["a_hat"] == expected.plugin.to_dict()["a_hat"]

    def test_overlapping_roles_rejected(self, data_csv, capsys):
        path, _, _ = data_csv
        code = cli.main(
            ["test", "--data", path, "--y", "y", "--x", "y,q", "--lambda", "0.4"]
        )
        assert code == 2

    def test_missing_column_rejected(self, data_csv, capsys):
        path, _, _ = data_csv
        code = cli.main(
            ["test", "--data", path, "--y", "nope", "--x", "const,q", "--lambda", "0.4"]
        )
        assert code == 2

    def test_z_columns_accepted(self, tmp_path):
        rng = RngStream(7, 0)
        t = 80
        q = rng.normals(t)
        z = rng.normals(t)
        y = rng.normals(t)
        path = tmp_path / "withz.csv"
        with open(path, "w") as fh:
            fh.write("y,const,q,z1\n")
            for i in range(t):
                fh.write(f"{y[i]:.17g},1.0,{q[i]:.17g},{z[i]:.17g}\n")
        code = cli.main(
            [
                "test", "--data", str(path), "--y", "y", "--x", "const,q",
                "--z", "z1", "--lambda", "0.5", "--k", "6",
            ]
        )
        assert code == 0


class TestSimulateCv:
    def test_writes_cache_and_prints_quantiles(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "simulate-cv", "--kind", "scaled_F_inf", "--p", "2", "--k", "6",
            "--lambda", "0.4", "--family", "fourier-transformed",
            "--grid", "200", "--reps", "2000", "--seed", "3",
            "--cache-dir", str(cache),
        ]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "0.05" in out
        files = os.listdir(cache)
        assert len(files) == 1
        first = (cache / files[0]).read_bytes()
        # rerun hits the persisted file and leaves it byte-identical
        assert cli.main(args) == 0
        assert (cache / files[0]).read_bytes() == first

    def test_csv_export(self, tmp_path):
        cache = tmp_path / "cache"
        draws_csv = tmp_path / "draws.csv"
        code = cli.main(
            [
                "simulate-cv", "--p", "1", "--k", "4", "--lambda", "0.5",
                "--grid", "150", "--reps", "1500", "--cache-dir", str(cache),
                "--csv", str(draws_csv),
            ]
        )
        assert code == 0
        assert len(np.loadtxt(draws_csv, skiprows=1)) == 1500

    def test_convergence_diagnostic(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = cli.main(
            [
                "simulate-cv", "--p", "1", "--k", "4", "--lambda", "0.5",
                "--grid", "150", "--reps", "1500", "--cache-dir", str(cache),
                "--convergence-grid", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "grid convergence check against n=300" in out
        assert "delta" in out
        assert len(os.listdir(cache)) == 2

    def test_io_failure_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code = cli.main(
            [
                "simulate-cv", "--p", "1", "--k", "4", "--lambda", "0.5",
                "--grid", "150", "--reps", "1500",
                "--cache-dir", str(blocker / "sub"),
            ]
        )
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_json_to_stdout(self, data_csv, capsys):
        path, _, _ = data_csv
        code = cli.main(
            [
                "test", "--data", path, "--y", "y", "--x", "const,q",
                "--lambda", "0.4", "--k", "6", "--json", "-",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["result"]["k"] == 6


class TestMcCommands:
    def test_mc_size_single_cell(self, tmp_path):
        out = tmp_path / "size.csv"
        code = cli.main(
            [
                "mc-size", "--T", "60", "--cells", "0:0", "--k", "4",
                "--variants", "chisq-fourier,f-transformed",
                "--reps", "500", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 variants
        assert lines[0].startswith("T,rho,psi")

    def test_mc_size_empty_cells_exits_2(self, capsys):
        code = cli.main(["mc-size", "--T", "60", "--cells", "", "--reps", "500"])
        assert code == 2

    @pytest.mark.parametrize("layout", [["--cells", "0:0"], ["--preset", "figure"]])
    @pytest.mark.parametrize("variant", ["bogus", "normal-fourier"])
    def test_mc_size_rejects_unknown_and_t_variants(self, layout, variant, capsys):
        # both layouts validate before simulating: an unknown name or a t
        # variant is a validation error, never a traceback or a silent rate
        code = cli.main(
            ["mc-size", "--T", "60", "--k-grid", "2:6:2", "--reps", "500",
             "--variants", variant] + layout
        )
        assert code == 2
        assert repr(variant) in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mc-size", "--cells", "0:0", "--k", "200"],
        ["mc-size", "--cells", "0:0", "--k", "0"],
        ["mc-size", "--preset", "figure", "--k-grid", "0:4:2"],
        ["mc-size", "--preset", "figure", "--k-grid", "50:60:5"],
        ["mc-power", "--k", "200"],
        ["mc-power", "--k", "0"],
    ])
    def test_mc_fixed_k_outside_range_exits_2(self, args, capsys):
        # every fixed K must satisfy 1 <= K <= T - 2 = 58
        code = cli.main(args + ["--T", "60", "--reps", "500"])
        assert code == 2
        assert "1 <= K <= T - 2" in capsys.readouterr().err

    def test_mc_size_non_integer_k_grid_exits_2(self, capsys):
        # 2:7:2.5 asks for K = 4.5, which must not run (and be labelled) as 4
        code = cli.main(
            ["mc-size", "--preset", "figure", "--T", "60", "--k-grid", "2:7:2.5",
             "--reps", "500", "--variants", "chisq-fourier"]
        )
        assert code == 2
        assert "K grid points must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc-power"],
        ["mc-size", "--preset", "figure", "--k-grid", "2:4:2"],
    ])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_mc_without_replications_exits_2(self, command, reps, capsys):
        code = cli.main(command + ["--T", "60", "--reps", reps])
        assert code == 2
        assert "need at least one replication" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc-size", "--cells", "0", "--k", "4", "--alpha", "1.5"],
        ["mc-size", "--preset", "figure", "--k-grid", "2:4:2", "--alpha", "-1"],
    ])
    def test_mc_size_level_outside_unit_interval_exits_2(self, command, capsys):
        # a level of 1.5 used to report rejection 1.000, and -1 0.000
        code = cli.main(
            command + ["--T", "60", "--reps", "500", "--variants", "f-transformed"]
        )
        assert code == 2
        assert "level must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc-power", "--k", "4"],
        ["mc-size", "--cells", "0", "--k", "4", "--variants", "f-transformed"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_mc_without_workers_exits_2(self, command, workers, capsys):
        # fewer than one worker used to run serially and exit 0
        code = cli.main(command + ["--T", "60", "--reps", "500", "--workers", workers])
        assert code == 2
        assert "need at least one worker" in capsys.readouterr().err

    def test_mc_size_figure_preset(self, tmp_path):
        out = tmp_path / "figure.csv"
        code = cli.main(
            [
                "mc-size", "--preset", "figure", "--T", "60", "--rho", "0.0",
                "--k-grid", "2:6:2", "--reps", "500",
                "--variants", "chisq-fourier,f-transformed",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # header + 3 K values x 2 variants
        assert len(lines) == 7
        assert {row.split(",")[5] for row in lines[1:]} == {"2", "4", "6"}

    def test_mc_power(self, tmp_path):
        out = tmp_path / "power.csv"
        code = cli.main(
            [
                "mc-power", "--T", "60", "--rho", "0.0", "--deltas", "0:0.8:0.4",
                "--k", "4", "--reps", "500", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7  # header + 2 families x 3 deltas


class TestParsing:
    def test_parse_range(self):
        assert cli._parse_range("2:20:2") == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
        assert cli._parse_range("0:1.2:0.2") == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
        with pytest.raises(ValueError):
            cli._parse_range("1:2")

    def test_table1_preset_cells(self):
        class Args:
            preset = "table1"
            cells = None
            T = 100
            break_fraction = 0.4

        specs = cli._parse_cells(Args())
        assert len(specs) == 8
        assert (specs[3].rho, specs[3].psi) == (0.9, 0.0)
        assert (specs[7].rho, specs[7].psi) == (0.9, 0.9)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


def test_cache_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code = cli.main(
        [
            "simulate-cv", "--p", "1", "--k", "4", "--lambda", "0.5",
            "--grid", "150", "--reps", "1500",
        ]
    )
    assert code == 0
    assert len(os.listdir(tmp_path / "envcache")) == 1


class TestStudyFrontEnd:
    """Every bad study input exits 2 with one validation line, before any
    replication runs."""

    def test_k_beyond_the_simulation_grid_names_the_grid(self, data_csv, capsys):
        path, _, _ = data_csv
        code = cli.main([
            "test", "--data", path, "--y", "y", "--x", "const,q", "--lambda", "0.4",
            "--k", "120", "--variant", "nonstandard-fourier", "--cv-grid", "100",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "simulation grid of n = 100 points" in err
        assert "T - 2" not in err

    @pytest.mark.parametrize("args", [
        ["mc-power", "--deltas", "0:inf:0.2"],
        ["mc-power", "--deltas", "0:1:nan"],
        ["mc-size", "--preset", "figure", "--k-grid", "2:inf:2"],
    ])
    def test_non_finite_grid_exits_2(self, args, capsys):
        code = cli.main(args + ["--T", "60", "--reps", "500"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_oversized_k_grid_exits_2_before_expanding(self, capsys):
        code = cli.main(
            ["mc-size", "--preset", "figure", "--T", "60", "--k-grid", "2:1e10:2"]
        )
        assert code == 2
        assert "more than 58" in capsys.readouterr().err

    def test_parse_range_limits_points_before_building(self):
        assert cli._parse_range("2:6:2", max_points=3) == (2, 4, 6)
        assert cli._parse_range("3:1:1") == ()
        for text in ("2:1e10:2", "-1e308:1e308:1e-300"):
            with pytest.raises(ValueError, match="more than 58"):
                cli._parse_range(text, max_points=58)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["mc-size", "--cells", "nan"],
        ["mc-size", "--cells", "0:nan"],
        ["mc-power", "--psi", "inf"],
        ["mc-power", "--rho", "nan"],
    ])
    def test_non_finite_design_exits_2(self, args, monkeypatch, capsys):
        monkeypatch.setattr(cli.mcstudy, "_run_cell", _no_replications)
        code = cli.main(args + ["--T", "60", "--reps", "500"])
        assert code == 2
        assert "need finite rho, psi and delta" in capsys.readouterr().err

    def test_shared_options_keep_their_defaults(self):
        parser = cli.build_parser()
        size = parser.parse_args(["mc-size", "--T", "60"])
        power = parser.parse_args(["mc-power", "--T", "60"])
        shared = ("T", "psi", "break_fraction", "k", "reps", "seed", "alpha",
                  "workers", "out")
        assert [getattr(size, n) for n in shared] == [getattr(power, n) for n in shared]
        assert (size.rho, power.rho) == (0.0, 0.6)
        assert power.deltas == "0:1.2:0.2" and size.k_grid == "2:20:2"

    def test_figure_preset_notes_stay_on_mc_size(self, capsys):
        for command, notes in (("mc-size", 2), ("mc-power", 0)):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            assert capsys.readouterr().out.count("figure preset only") == notes


def _no_replications(*args, **kwargs):
    raise AssertionError("a replication ran before the inputs were checked")
