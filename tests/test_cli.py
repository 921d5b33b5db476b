import json
import os

import numpy as np
import pytest

from harchow import bases, cli, longrun, mcstudy
from harchow.chowtest import VARIANTS, run_test
from harchow.mcstudy import DgpSpec, simulate_dgp
from harchow.numkit import RngStream
from harchow.regression import RegressionData
import oracles


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

    @pytest.mark.parametrize("k", ["8", "8.0"])
    def test_whole_k_runs_and_is_echoed_as_int(self, data_csv, k, capsys):
        path, _, _ = data_csv
        code = cli.main(
            ["test", "--data", path, "--y", "y", "--x", "const,q",
             "--lambda", "0.4", "--k", k, "--json", "-"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["config"]["k"] == 8
        assert type(envelope["config"]["k"]) is int
        assert envelope["result"]["k_requested"] == 8

    @pytest.mark.parametrize("k", ["4.5", "abc", "nan"])
    def test_bad_k_is_a_k_policy_validation_error(self, data_csv, k, capsys):
        path, _, _ = data_csv
        code = cli.main(
            ["test", "--data", path, "--y", "y", "--x", "const,q",
             "--lambda", "0.4", "--k", k]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: need an integer K or 'auto'")
        assert "_parse_k" not in err

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

    def test_column_named_twice_rejected(self, data_csv, tmp_path, capsys):
        # header y,const,q,q: which q would be tested is ambiguous
        path, _, _ = data_csv
        lines = open(path).read().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("".join(f"{line},{line.split(',')[2]}\n" for line in lines))
        argv = ["test", "--data", str(twice), "--y", "y", "--x", "const,q"]
        code = cli.main(argv + ["--lambda", "0.4"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("validation error")
        assert "'q'" in err[0]

    def test_row_with_extra_field_rejected(self, data_csv, tmp_path, capsys):
        path, _, _ = data_csv
        lines = open(path).read().splitlines()
        lines[10] += ",1.5"
        extra = tmp_path / "extra.csv"
        extra.write_text("\n".join(lines) + "\n")
        argv = ["test", "--data", str(extra), "--y", "y", "--x", "const,q"]
        code = cli.main(argv + ["--lambda", "0.4"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("validation error")
        assert "data rows [10]" in err[0]

    def test_byte_order_mark_is_dropped(self, data_csv, tmp_path, capsys):
        # a spreadsheet's UTF-8 export starts with a BOM; the report is the
        # plain file's, byte for byte
        path, _, _ = data_csv
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
        reports = []
        for data in (path, str(bom)):
            argv = ["test", "--data", data, "--y", "y", "--x", "const,q"]
            assert cli.main(argv + ["--lambda", "0.4", "--json", "-"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["config"].pop("data") == str(bom)
        reports[0]["config"].pop("data")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("edit", [
        "blank-lines", "crlf", "quoted-numbers", "quoted-text-column",
    ])
    def test_tolerated_layouts_give_the_plain_report(
        self, data_csv, tmp_path, edit, capsys
    ):
        path, _, _ = data_csv
        lines = open(path).read().splitlines()
        if edit == "blank-lines":
            text = "\n\n" + lines[0] + "\n\n" + "\n\n".join(lines[1:]) + "\n\n"
        elif edit == "crlf":
            text = "\r\n".join(lines) + "\r\n"
        elif edit == "quoted-numbers":
            quoted = [",".join(f'"{f}"' for f in line.split(",")) for line in lines[1:]]
            text = "\n".join([lines[0]] + quoted) + "\n"
        else:
            text = "\n".join(
                [lines[0] + ",note"] + [line + ',"a, b"' for line in lines[1:]]
            ) + "\n"
        edited = tmp_path / "edited.csv"
        edited.write_bytes(text.encode())
        reports = []
        for data in (path, str(edited)):
            argv = ["test", "--data", data, "--y", "y", "--x", "const,q"]
            assert cli.main(argv + ["--lambda", "0.4", "--json", "-"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(out.replace(json.dumps(data), '"<data>"'))
        assert reports[0] == reports[1]

    def test_plain_file_is_read_without_the_row_reader(self, data_csv, monkeypatch):
        path, y, x = data_csv
        monkeypatch.setattr(cli, "_read_csv_rows", None)
        columns = cli._read_csv_columns(path, ["q", "y"])
        assert list(columns) == ["q", "y"]
        assert np.array_equal(columns["y"], y) and np.array_equal(columns["q"], x[:, 1])

    @pytest.mark.parametrize("edit, message", [
        ("empty", "edited.csv: missing header row"),
        ("header-only", "edited.csv: no data rows"),
        ("short-row", "edited.csv: data rows [6] do not have 3 fields"),
        ("long-first-row", "edited.csv: data rows [1] do not have 3 fields"),
        ("text-in-named-column", "edited.csv: non-numeric value in columns"),
        ("hash-field", "edited.csv: non-numeric value in columns"),
        ("nan-in-y", "data must be finite"),
        # past csv.field_size_limit(): numpy refuses the field, then csv.Error
        ("huge-field", "edited.csv: field larger than field limit"),
        ("huge-header-field", "edited.csv: field larger than field limit"),
    ])
    def test_refused_files_exit_2_with_one_line(
        self, data_csv, tmp_path, edit, message, capsys
    ):
        path, _, _ = data_csv
        lines = open(path).read().splitlines()
        if edit == "empty":
            lines = []
        elif edit == "header-only":
            lines = lines[:1]
        elif edit == "short-row":
            lines[6] = lines[6].rsplit(",", 1)[0]
        elif edit == "long-first-row":
            lines[1] += ",1.5"
        elif edit == "text-in-named-column":
            lines[3] = "abc," + lines[3].split(",", 1)[1]
        elif edit == "hash-field":
            lines[3] = lines[3].rsplit(",", 1)[0] + ",#1"
        elif edit == "huge-field":
            lines[3] = "a" * 140_000 + "," + lines[3].split(",", 1)[1]
        elif edit == "huge-header-field":
            lines[0] = "y" * 140_000 + ",y,const,q"
            lines[1:] = [line + ",0" for line in lines[1:]]
        else:
            lines[3] = "nan," + lines[3].split(",", 1)[1]
        edited = tmp_path / "edited.csv"
        edited.write_text("".join(line + "\n" for line in lines))
        argv = ["test", "--data", str(edited), "--y", "y", "--x", "const,q"]
        code = cli.main(argv + ["--lambda", "0.4"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "Traceback" not in err
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert message in err[0]

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

    def test_mc_size_takes_k_through_the_k_policy(self, capsys):
        # 8.0 runs as K = 8 (and is labelled 8); 4.5 is a K-policy error
        code = cli.main(
            ["mc-size", "--T", "60", "--cells", "0:0", "--k", "8.0",
             "--variants", "chisq-fourier", "--reps", "500"]
        )
        assert code == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert "8" in row
        code = cli.main(["mc-size", "--T", "60", "--cells", "0:0", "--k", "4.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: need an integer K or 'auto'")
        assert "_parse_k" not in err

    def test_mc_power_bad_k_is_a_k_policy_error(self, capsys):
        code = cli.main(["mc-power", "--T", "60", "--k", "abc", "--reps", "500"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: need an integer K or 'auto'")
        assert "_parse_k" not in err

    def test_mc_size_empty_cells_exits_2(self, capsys):
        code = cli.main(["mc-size", "--T", "60", "--cells", "", "--reps", "500"])
        assert code == 2

    @pytest.mark.parametrize("layout", [[], ["--k", "2:6:2"]])
    @pytest.mark.parametrize("variant", ["bogus", "normal-fourier"])
    def test_mc_size_rejects_unknown_and_t_variants(self, layout, variant, capsys):
        # auto K and a K grid validate before simulating: an unknown name or
        # a t variant is a validation error, never a traceback or a silent rate
        code = cli.main(
            ["mc-size", "--T", "60", "--cells", "0:0", "--reps", "500",
             "--variants", variant] + layout
        )
        assert code == 2
        assert repr(variant) in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mc-size", "--cells", "0:0", "--k", "200"],
        ["mc-size", "--cells", "0:0", "--k", "0"],
        ["mc-size", "--cells", "0:0", "--k", "0:4:2"],
        ["mc-size", "--cells", "0:0", "--k", "50:60:5"],
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
            ["mc-size", "--cells", "0:0", "--T", "60", "--k", "2:7:2.5",
             "--reps", "500", "--variants", "chisq-fourier"]
        )
        assert code == 2
        assert "K grid points must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc-power"],
        ["mc-size", "--cells", "0:0", "--k", "2:4:2"],
    ])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_mc_without_replications_exits_2(self, command, reps, capsys):
        code = cli.main(command + ["--T", "60", "--reps", reps])
        assert code == 2
        assert "need at least one replication" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc-size", "--cells", "0", "--k", "4", "--alpha", "1.5"],
        ["mc-size", "--cells", "0:0", "--k", "2:4:2", "--alpha", "-1"],
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
        # the size-against-K figure: one cell over a K grid
        out = tmp_path / "figure.csv"
        code = cli.main(
            [
                "mc-size", "--cells", "0:0", "--T", "60", "--k", "2:6:2",
                "--reps", "500",
                "--variants", "chisq-fourier,f-transformed",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # header + 3 K values x 2 variants
        assert len(lines) == 7
        assert {row.split(",")[5] for row in lines[1:]} == {"2", "4", "6"}

    def test_mc_size_table1_at_a_k_grid(self, capsys):
        # the 8 table-1 cells at K = 4 and 8: cell by cell, then K by K
        variants = ("chisq-fourier", "f-transformed")
        code = cli.main(
            ["mc-size", "--preset", "table1", "--T", "60", "--k", "4:8:4",
             "--reps", "64", "--variants", ",".join(variants)]
        )
        assert code == 0
        rows = [row.split(",") for row in capsys.readouterr().out.split()[1:]]
        assert [(row[1], row[2], row[5], row[4]) for row in rows] == [
            (f"{rho:.6f}", f"{psi:.6f}", k, variant)
            for rho, psi in mcstudy.TABLE1_GRID for k in ("4", "8")
            for variant in variants
        ]

    def test_mc_size_cell_at_a_k_grid_is_the_k_grid_study(self, capsys):
        variants = ("chisq-fourier", "f-transformed")
        code = cli.main(
            ["mc-size", "--cells", "0.3:0", "--T", "60", "--k", "4:8:4",
             "--reps", "500", "--variants", ",".join(variants)]
        )
        assert code == 0
        results = mcstudy.k_grid_experiment(
            DgpSpec(60, 0.3), (4, 8), variants, reps=500, master_seed=0
        )
        assert capsys.readouterr().out == mcstudy.size_table_csv(results)

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

    def test_cached_parser_answers_as_a_fresh_one(self, data_csv, monkeypatch, capsys):
        # one parser serves every call in a process; calls on different
        # commands, error exits among them, behave as through a new parser
        path, _, _ = data_csv
        calls = [
            ["test", "--data", path, "--y", "y", "--x", "const,q",
             "--lambda", "0.4", "--k", "6", "--json", "-"],
            ["mc-size", "--T", "60", "--cells", "nan"],
            ["simulate-cv", "--p", "1"],
            ["test", "--data", path, "--y", "y", "--x", "q", "--z", "const",
             "--lambda", "0.5", "--variant", "t-transformed"],
            ["mc-power", "--help"],
            ["test", "--data", path, "--y", "y", "--x", "const,q",
             "--lambda", "0.4", "--variant", "chisq-fourier"],
        ]

        def outcomes():
            seen = []
            for argv in calls:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                seen.append((code, *capsys.readouterr()))
            return seen

        cached = outcomes()
        assert cli.build_parser() is cli.build_parser()
        assert [c[0] for c in cached] == [0, 2, 2, 0, 0, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert outcomes() == cached


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


def test_commands_run_no_kept_reference(data_csv, tmp_path, monkeypatch):
    # the library keeps its dense references only because the benchmark
    # tracer resolves them: with each one made to raise wherever it is
    # bound, every command still runs; the references no tracer names are
    # gone from the library
    for module, name in ((bases, "series_basis"), (bases, "phi_tilde_matrix"),
                         (bases, "norm_factor"), (longrun, "score_sums")):
        assert not hasattr(module, name), name
    path, _, _ = data_csv
    oracles.refuse_references(monkeypatch)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    laws = ["--cv-reps", "1000", "--cv-grid", "150"] + cache
    columns = {"F": ["--x", "const,q"], "t": ["--x", "q", "--z", "const"]}
    runs = [
        ["test", "--data", path, "--y", "y", "--lambda", "0.4", "--variant", name,
         "--k", k] + columns[variant.statistic] + laws
        for name, variant in VARIANTS.items() for k in ("8", "auto")
    ]
    runs += [
        ["simulate-cv", "--p", "1", "--k", "4", "--lambda", "0.4", "--family",
         family, "--grid", "150", "--reps", "1000"] + cache
        for family in (bases.FOURIER_RAW, bases.FOURIER_TRANSFORMED)
    ]
    study = ["--T", "60", "--reps", "500", "--out", str(tmp_path / "study.csv")]
    runs += [
        ["mc-size", "--cells", "0.3:0"] + study + laws,
        ["mc-size", "--cells", "0:0", "--k", "2:10:4"] + study + laws,
        ["mc-power", "--deltas", "0:0.5:0.5"] + study,
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv


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
        ["mc-size", "--cells", "0:0", "--k", "2:inf:2"],
    ])
    def test_non_finite_grid_exits_2(self, args, capsys):
        code = cli.main(args + ["--T", "60", "--reps", "500"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_oversized_deltas_exit_2_before_expanding(self, capsys):
        code = cli.main(["mc-power", "--T", "60", "--deltas", "0:1:1e-9"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "validation error: grid '0:1:1e-9' has 1000000000 points, more than 100\n"
        )
        with pytest.raises(SystemExit):
            cli.main(["mc-power", "--help"])
        assert "at most 100 points" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["simulate-cv", "--grid", "10000000000"],
         "need 100..1000000 grid points, got 10000000000"),
        (["simulate-cv", "--reps", "100000000000"],
         "need 1000..10000000 replications, got 100000000000"),
        (["test", "--cv-grid", "10000000000"],
         "need 100..1000000 grid points, got 10000000000"),
        (["test", "--cv-reps", "100000000000"],
         "need 1000..10000000 replications, got 100000000000"),
        (["mc-size", "--cv-grid", "10000000000"],
         "need 100..1000000 grid points, got 10000000000"),
        (["mc-size", "--cv-reps", "100000000000"],
         "need 1000..10000000 replications, got 100000000000"),
    ])
    def test_oversized_simulation_exits_2(self, args, message, data_csv, capsys):
        # LimitSpec refuses a grid or a replication count it could not
        # allocate, before any draw
        command, *sizes = args
        rest = {
            "simulate-cv": ["--p", "1", "--k", "4", "--lambda", "0.4"],
            "test": ["--data", data_csv[0], "--y", "y", "--x", "const,q",
                     "--lambda", "0.4", "--variant", "nonstandard-fourier"],
            "mc-size": ["--T", "60", "--cells", "0:0", "--reps", "500",
                        "--variants", "nonstandard-fourier"],
        }[command]
        assert cli.main([command] + rest + sizes) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("command", [["mc-size", "--cells", "0:0"], ["mc-power"]])
    def test_negative_seed_exits_2(self, command, capsys):
        # the first block draw refuses it, as a stream does
        code = cli.main(command + ["--T", "60", "--reps", "500", "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "validation error: seed and stream must be nonnegative integers\n"

    def test_oversized_k_of_a_simulated_law_exits_2(self, tmp_path, capsys):
        # K above fixedlimit.MAX_K exits 2 before its K x K Gram is built
        y, x = simulate_dgp(DgpSpec(t=2100, rho=0.3), RngStream(42, 0))
        path = tmp_path / "long.csv"
        np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
                   header="y,const,q", comments="")
        message = "validation error: need K <= 2000 for a simulated law, got K=2001\n"
        for argv in (
            ["simulate-cv", "--p", "1", "--k", "2001", "--lambda", "0.4",
             "--grid", "100000", "--reps", "1000"],
            ["test", "--data", str(path), "--y", "y", "--x", "const,q",
             "--lambda", "0.4", "--variant", "nonstandard-fourier", "--k", "2001",
             "--cv-grid", "5000"],
        ):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == message

    def test_oversized_k_grid_exits_2_before_expanding(self, capsys):
        code = cli.main(
            ["mc-size", "--cells", "0:0", "--T", "60", "--k", "2:1e10:2"]
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

    @pytest.mark.parametrize("args, rule", [
        (["--preset", "table1", "--cells", "0.3:0"],
         "--preset and --cells both name the cells: give one"),
        (["--cells", "0.3:0", "--preset", "table1"],
         "--preset and --cells both name the cells: give one"),
    ])
    def test_mc_size_refuses_an_option_its_layout_ignores(
        self, args, rule, monkeypatch, capsys
    ):
        # argparse's mutually exclusive group refuses the pair in either
        # order, naming the later option, before any replication
        monkeypatch.setattr(cli.mcstudy, "_run_cell", _no_replications)
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc-size", "--T", "60", "--reps", "100"] + args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            f"error: argument {args[2]}: not allowed with argument {args[0]}\n"
        )

    @pytest.mark.parametrize("option", [
        ["--rho", "0.9"], ["--psi", "0.9"], ["--k-grid", "4:4:1"],
    ])
    def test_mc_size_refuses_the_options_only_mc_power_keeps(
        self, option, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.mcstudy, "_run_cell", _no_replications)
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc-size", "--T", "60", "--reps", "100", "--cells", "0:0"] + option)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            f"error: unrecognized arguments: {' '.join(option)}\n"
        )

    @pytest.mark.parametrize("k, grid, message", [
        ("40", "50", "need 100..1000000 grid points, got 50"),
        ("4", "0", "need 100..1000000 grid points, got 0"),
        ("120", "100",
         "need K <= n - 2 = 98 on the simulation grid of n = 100 points, got K=120"),
    ])
    def test_convergence_grid_is_checked_before_the_first_law(
        self, k, grid, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.fixedlimit, "simulate_limit", _no_replications)
        cache = tmp_path / "cache"
        code = cli.main([
            "simulate-cv", "--p", "2", "--k", k, "--lambda", "0.4", "--reps", "200000",
            "--cache-dir", str(cache), "--convergence-grid", grid,
        ])
        assert code == 2
        assert capsys.readouterr() == ("", f"validation error: {message}\n")
        assert not cache.exists()

    def test_shared_options_keep_their_defaults(self):
        parser = cli.build_parser()
        size = parser.parse_args(["mc-size", "--T", "60"])
        power = parser.parse_args(["mc-power", "--T", "60"])
        shared = ("T", "break_fraction", "k", "reps", "seed", "alpha", "workers", "out")
        assert [getattr(size, n) for n in shared] == [getattr(power, n) for n in shared]
        assert not {"rho", "psi", "k_grid"} & set(vars(size))
        assert (power.rho, power.psi, power.deltas) == (0.6, 0.0, "0:1.2:0.2")


def _no_replications(*args, **kwargs):
    raise AssertionError("a replication ran before the inputs were checked")
