"""Command-line interface.

Four subcommands: ``test`` runs one break test on CSV data, ``simulate-cv``
builds and persists a simulated critical-value table, ``mc-size`` and
``mc-power`` drive the Monte Carlo study. The CLI itself computes nothing;
every number in a report comes from a library call. Exit codes: 0 success,
2 parse/validation failure, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import warnings

import numpy as np

from . import __version__, chowtest, fixedlimit, mcstudy
from .errors import BreakTooExtreme, HarchowError, RegimeTooSmall
from .regression import RegressionData

CACHE_ENV = "HARCHOW_CACHE_DIR"
_MAX_DELTAS = 100  # break sizes of one power study


def _cache_dir(args) -> str | None:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get(CACHE_ENV) or None


def _read_csv_columns(path: str, names: list[str]) -> dict[str, np.ndarray]:
    """The named columns of a CSV file with a header row, as float arrays.

    The header comes from the ``csv`` module and the body from numpy's C
    parser. A file that parser may read otherwise than ``float()`` is read
    again by :func:`_read_csv_rows`, which alone defines a valid file: it
    returns the same columns or raises its message."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(row for row in csv.reader(fh) if row)
            body = fh.read()
        except (StopIteration, ValueError, csv.Error):  # no header, not UTF-8, bad row
            header, body = [], ""
    data = _parse_body(body, header, names)
    if data is None:
        return _read_csv_rows(path, names)
    values = data[:, [header.index(n) for n in names]].T
    return dict(zip(names, np.ascontiguousarray(values)))


# ASCII separators that numpy's parser strips as space and float() refuses
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_body(body: str, header: list[str], names: list[str]) -> np.ndarray | None:
    """The rows after the header as one float array, by ``np.loadtxt``; the
    unnamed columns read as 0, so they may hold text. ``None`` where a named
    column is missing or named twice, the body holds a separator in
    ``_NOT_FLOAT_SPACE``, the parser refuses a field or a row's width, or
    the width is not the header's or there is no row."""
    if any(header.count(n) != 1 for n in names) or any(
        c in body for c in _NOT_FLOAT_SPACE
    ):
        return None
    unnamed = (i for i, n in enumerate(header) if n not in names)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            data = np.loadtxt(
                io.StringIO(body), delimiter=",", quotechar='"', comments=None,
                ndmin=2, converters=dict.fromkeys(unnamed, lambda field: 0.0),
            )
    except ValueError:
        return None
    return data if data.shape[1] == len(header) and len(data) else None


def _read_csv_rows(path: str, names: list[str]) -> dict[str, np.ndarray]:
    """:func:`_read_csv_columns` one ``csv`` module row and one ``float()``
    per cell at a time. Each named column must appear once in the header,
    every row must have the header's field count; blank lines and a UTF-8
    byte order mark are skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: missing header row")
    header, rows = rows[0], rows[1:]
    unusable = [n for n in names if header.count(n) != 1]
    if unusable:
        raise ValueError(f"{path}: columns {unusable} missing or named more than once")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ragged = [i for i, row in enumerate(rows, start=1) if len(row) != len(header)]
    if ragged:
        raise ValueError(
            f"{path}: data rows {ragged[:5]} do not have {len(header)} fields"
        )
    columns = list(zip(*rows))
    try:
        values = np.array([columns[header.index(n)] for n in names], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric value in columns {names}: {exc}")
    return dict(zip(names, values))


def _parse_k(text: str):
    """``--k`` as given: an int or a float where the text reads as one, else
    the text. ``mc-size`` reads a text holding ``:`` as a K grid
    (:func:`_parse_range`); the library's K policy (``chowtest._k_policy``)
    accepts the rest or refuses it with a validation error."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def _parse_range(text: str, max_points: int = sys.maxsize) -> tuple[float, ...]:
    """``start:stop:step`` inclusive grid, e.g. ``2:20:2`` or ``0:1.2:0.2``;
    ``ValueError`` for a non-finite number or, before the grid is built,
    for more than ``max_points`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(np.floor((stop - start) / step + 1e-9) + 1, 0)
    if n > max_points:
        raise ValueError(f"grid {text!r} has {n:.0f} points, more than {max_points}")
    return tuple(round(start + i * step, 10) for i in range(int(n)))


def _report_envelope(command: str, config: dict, result: dict) -> dict:
    return {
        "schema": 1,
        "package": "harchow",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_test(args) -> int:
    columns = [args.y] + args.x + args.z
    if len(set(columns)) != len(columns):
        raise ValueError("column roles must be disjoint")
    data_cols = _read_csv_columns(args.data, columns)
    x = np.column_stack([data_cols[name] for name in args.x])
    z = np.column_stack([data_cols[name] for name in args.z]) if args.z else None
    data = RegressionData(data_cols[args.y], x, z, args.break_fraction)
    k = chowtest._k_policy(args.k, data.t)
    k = k if k == "auto" else k[0]
    cache = fixedlimit.CriticalValueCache(_cache_dir(args))
    report = chowtest.run_test(
        data,
        variant=args.variant,
        k=k,
        alpha=args.alpha,
        cv_seed=args.seed,
        cv_replications=args.cv_reps,
        cv_grid=args.cv_grid,
        cache=cache,
    )
    config = {
        "data": args.data,
        "y": args.y,
        "x": args.x,
        "z": args.z,
        "lambda": args.break_fraction,
        "k": k,
        "variant": args.variant,
        "alpha": args.alpha,
        "seed": args.seed,
        "cv_reps": args.cv_reps,
        "cv_grid": args.cv_grid,
        "cache_dir": _cache_dir(args),
    }
    envelope = _report_envelope("test", config, report.to_dict())
    if args.json:
        _emit(json.dumps(envelope, indent=2, sort_keys=True) + "\n", args.json)
    if args.json != "-":
        lines = [
            "structural break test",
            f"  variant:     {report.variant}",
            f"  T={data.t}  m={data.m}  p={report.p}  lambda={report.lam:g}"
            f"  K={report.k} (requested {report.k_requested})",
            f"  raw statistic:       {report.statistic_raw:.6f}",
            f"  modified statistic:  {report.statistic_modified:.6f}",
            f"  df-scaled statistic: {report.statistic_scaled:.6f}",
            f"  reference:           {report.reference}",
            f"  decision statistic:  {report.decision_statistic:.6f}"
            f" ({report.decision_statistic_name})",
            f"  critical value:      {report.critical_value:.6f}"
            f" at alpha={report.alpha:g}",
            f"  p-value:             {report.p_value:.6f}",
            f"  reject H0:           {'yes' if report.reject else 'no'}",
        ]
        print("\n".join(lines))
    return 0


def cmd_simulate_cv(args) -> int:
    spec = fixedlimit.LimitSpec(
        p=args.p,
        k=args.k,
        lam=args.break_fraction,
        family=args.family,
        grid_n=args.grid,
        replications=args.reps,
        seed=args.seed,
    )
    other_spec = None
    if args.convergence_grid is not None:  # checked before the first law is simulated
        other_spec = dataclasses.replace(spec, grid_n=args.convergence_grid)
    directory = _cache_dir(args) or "harchow-cache"
    cache = fixedlimit.CriticalValueCache(directory)
    dist = cache.get(spec, args.kind)
    print(f"cached draws: {len(dist.draws)} (redraws {dist.redraws}) in {directory}")
    print("alpha  critical value")
    for alpha in (0.10, 0.05, 0.01):
        print(f"{alpha:.2f}   {fixedlimit.critical_value(dist, alpha):.6f}")
    if other_spec:
        other = cache.get(other_spec, args.kind)
        print(f"grid convergence check against n={args.convergence_grid}:")
        for alpha in (0.10, 0.05, 0.01):
            a = fixedlimit.critical_value(dist, alpha)
            b = fixedlimit.critical_value(other, alpha)
            print(f"{alpha:.2f}   delta {a - b:+.6f} ({abs(a - b) / a:.3%})")
    if args.csv:
        fixedlimit.export_csv(dist, args.csv)
        print(f"draws exported to {args.csv}")
    return 0


def _spec(args, rho: float, psi: float) -> mcstudy.DgpSpec:
    return mcstudy.DgpSpec(t=args.T, rho=rho, psi=psi, lam=args.break_fraction)


def _parse_cells(args) -> list[mcstudy.DgpSpec]:
    """The cells of ``mc-size``: the table-1 grid or the ``--cells`` pairs."""
    if args.preset == "table1":
        grid = mcstudy.TABLE1_GRID
    else:
        cells = [cell.partition(":") for cell in (args.cells or "").split(",") if cell]
        grid = [(float(rho), float(psi or 0.0)) for rho, _, psi in cells]
    if not grid:
        raise ValueError("no cells requested (use --preset table1 or --cells)")
    return [_spec(args, rho, psi) for rho, psi in grid]


def cmd_mc_size(args) -> int:
    specs = _parse_cells(args)
    k = _parse_range(args.k, args.T - 2) if ":" in str(args.k) else args.k
    results = mcstudy.size_experiment(
        specs, tuple(args.variants.split(",")), k, reps=args.reps,
        master_seed=args.seed, alpha=args.alpha, workers=args.workers,
        cv_cache=fixedlimit.CriticalValueCache(_cache_dir(args)),
        cv_seed=args.cv_seed, cv_replications=args.cv_reps, cv_grid=args.cv_grid,
    )
    _emit(mcstudy.size_table_csv(results), args.out)
    return 0


def cmd_mc_power(args) -> int:
    spec = _spec(args, args.rho, args.psi)
    power = mcstudy.power_experiment(
        spec, _parse_range(args.deltas, _MAX_DELTAS), k_policy=args.k, reps=args.reps,
        master_seed=args.seed, alpha=args.alpha, workers=args.workers,
    )
    _emit(mcstudy.power_table_csv(power, spec), args.out)
    return 0


def _study_options(parser) -> None:
    """The options ``mc-size`` and ``mc-power`` share."""
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--lambda", dest="break_fraction", type=float, default=0.4)
    parser.add_argument("--k", type=_parse_k, default="auto")
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")


@functools.lru_cache(maxsize=1)  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harchow",
        description="Structural break tests robust to heteroscedasticity "
        "and autocorrelation, with a Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run one break test on CSV data")
    test.add_argument("--data", required=True, help="CSV file with a header row")
    test.add_argument("--y", required=True, help="response column name")
    test.add_argument(
        "--x", required=True, type=lambda s: s.split(","),
        help="comma-separated break-regressor column names",
    )
    test.add_argument(
        "--z", default=[], type=lambda s: s.split(","),
        help="comma-separated stable-covariate column names",
    )
    test.add_argument(
        "--lambda", dest="break_fraction", type=float, required=True,
        help="break fraction in (0, 1)",
    )
    test.add_argument("--k", type=_parse_k, default="auto")
    test.add_argument(
        "--variant", default=chowtest.DEFAULT_VARIANT,
        choices=sorted(chowtest.VARIANTS),
    )
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--cv-reps", type=int, default=10_000)
    test.add_argument("--cv-grid", type=int, default=1000)
    test.add_argument("--cache-dir", default=None)
    test.add_argument(
        "--json", default=None,
        help="write a JSON report to this path ('-' for stdout)",
    )
    test.set_defaults(func=cmd_test)

    sim = sub.add_parser("simulate-cv", help="simulate nonstandard critical values")
    sim.add_argument("--kind", default=fixedlimit.F_STAR_INF, choices=fixedlimit.KINDS)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument(
        "--lambda", dest="break_fraction", type=float, required=True
    )
    sim.add_argument(
        "--family", default="fourier-raw",
        choices=["fourier-raw", "fourier-transformed"],
    )
    sim.add_argument("--grid", type=int, default=1000)
    sim.add_argument("--reps", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--cache-dir", default=None)
    sim.add_argument("--csv", default=None, help="also export draws as CSV")
    sim.add_argument(
        "--convergence-grid", type=int, default=None,
        help="simulate a second grid size and report the quantile differences",
    )
    sim.set_defaults(func=cmd_simulate_cv)

    size = sub.add_parser("mc-size", help="null rejection study",
                          description="--k: auto, one K or a start:stop:step K grid")
    _study_options(size)
    cells = size.add_mutually_exclusive_group()
    cells.add_argument("--preset", choices=["table1"], default=None)
    cells.add_argument("--cells", default=None, help="rho:psi pairs, comma separated")
    size.add_argument(
        "--variants", default=",".join(mcstudy.F_VARIANTS),
        help="comma-separated variant names",
    )
    size.add_argument("--cv-seed", type=int, default=0)
    size.add_argument("--cv-reps", type=int, default=10_000)
    size.add_argument("--cv-grid", type=int, default=1000)
    size.add_argument("--cache-dir", default=None)
    size.set_defaults(func=cmd_mc_size)

    power = sub.add_parser("mc-power", help="size-adjusted power study")
    _study_options(power)
    power.add_argument("--rho", type=float, default=0.6)
    power.add_argument("--psi", type=float, default=0.0)
    power.add_argument(
        "--deltas", default="0:1.2:0.2",
        help=f"break sizes start:stop:step, at most {_MAX_DELTAS} points",
    )
    power.set_defaults(func=cmd_mc_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegimeTooSmall, BreakTooExtreme) as exc:
        print(f"validation error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except HarchowError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
