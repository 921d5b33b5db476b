"""Compare what two source trees of harchow compute on fixed inputs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--quick]

Each tree is a checkout of the repository (or its ``src`` directory) and
runs in its own subprocess, importing its own ``harchow``. Both run the same
work through ``harchow.cli.main``:

* ``harchow test`` reports on series written here from fixed seeds: every
  variant, auto K and K = 8, several T, break fractions and AR(1)
  persistences; a refused call keeps its exit code and message: one call
  that argparse refuses (no ``--lambda``) exits 2 with its message, and
  one at K = 1 on two regressors exits 3 with ``KTooSmall``'s;
* ``harchow simulate-cv`` laws at lambda 0.4: both families, p = 1 and 2,
  K = 4, 12 and 40, kinds ``F_star_inf``, ``scaled_F_inf`` and
  ``t_star_inf`` (p = 1 only); each reports its 10%, 5% and 1% critical
  values (``simulated_cv``) and its redraw count;
* the study CSVs of ``mc-size`` (table 1 with auto K and K = 8, the
  figure's one cell over the K grid 2:20:2, one cell each at T = 50 and
  T = 1000, where the engine's stacks are largest and smallest, and two
  cells from a seed of two 32-bit words) and ``mc-power`` (T = 100,
  T = 200, K = 8), each at ``--workers 1`` and ``2``.

It prints the largest relative difference of every numeric report field,
and exits 1 if any CSV byte, exit code, or non-float report field (``k``,
``k_requested``, ``reject``, ``reference``, ``redraws``, ...) differs.
``--quick`` runs a few reports, laws and small studies (a table cell, one
cell over a K grid and a power curve), to check the tool itself in
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

VARIANTS = (
    "chisq-fourier", "nonstandard-fourier", "chisq-transformed", "f-transformed",
    "normal-fourier", "nonstandard-t-fourier", "normal-transformed", "t-transformed",
)
STUDIES = (
    ("size-table1-auto", ["mc-size", "--preset", "table1", "--T", "100"]),
    ("size-table1-k8", ["mc-size", "--preset", "table1", "--T", "100", "--k", "8"]),
    ("size-figure", ["mc-size", "--cells", "0.6:0", "--T", "100", "--k", "2:20:2"]),
    ("power-100", ["mc-power", "--T", "100"]),
    ("power-200", ["mc-power", "--T", "200"]),
    ("power-100-k8", ["mc-power", "--T", "100", "--k", "8"]),
    # both ends of the stack rule: stacks of 640 with a partial last one,
    # and stacks of one 64-replication draw block
    ("size-t50-stacks", ["mc-size", "--T", "50", "--cells", "0.6:0", "--reps", "1500"]),
    ("size-t1000-blocks", ["mc-size", "--T", "1000", "--cells", "0.3:0", "--reps", "640"]),
    # a two-word seed, and cell 1's two-word stream ids: both branches of
    # the block draw's seeding
    ("size-two-word-seed", ["mc-size", "--T", "60", "--cells", "0.3:0,0.6:0",
                            "--reps", "700", "--seed", "4294967297"]),
)
SIMULATIONS = tuple(
    (f"simulate-cv {family} p={p} K={k} {kind}",
     ["simulate-cv", "--kind", kind, "--p", str(p), "--k", str(k), "--lambda", "0.4",
      "--family", family])
    for family in ("fourier-raw", "fourier-transformed")
    for p in (1, 2)
    for k in (4, 12, 40)
    for kind in ("F_star_inf", "scaled_F_inf", "t_star_inf")
    if p == 1 or kind != "t_star_inf"
)
QUICK_SIMULATIONS = tuple(
    (case, argv + ["--reps", "1000", "--grid", "200"])
    for case, argv in SIMULATIONS if " K=4 " in case and "raw p=1" in case
)
QUICK_STUDIES = (
    ("size-cell", ["mc-size", "--cells", "0.6:0", "--T", "100", "--reps", "500",
                   "--variants", "chisq-fourier,f-transformed"]),
    ("power-100-k8", STUDIES[5][1] + ["--reps", "40"]),
    ("size-figure", ["mc-size", "--cells", "0:0", "--T", "60", "--k", "4:8:4",
                     "--reps", "500", "--variants", "chisq-fourier,f-transformed"]),
)


def _series(seed: int, t: int, rho: float, one_regressor: bool) -> np.ndarray:
    """Columns ``y, x...`` of an AR(1)-regressor, AR(1)-error series."""
    rng = np.random.default_rng([seed, t, int(rho * 10)])
    burn = 100
    q, u = np.zeros(t + burn), np.zeros(t + burn)
    for i, (eq, eu) in enumerate(rng.standard_normal((t + burn, 2)).tolist()):
        q[i] = rho * q[i - 1] + eq if i else eq
        u[i] = rho * u[i - 1] + eu if i else eu
    q, u = q[burn:], u[burn:]
    x = q[:, None] if one_regressor else np.column_stack([np.ones(t), q])
    return np.column_stack([x @ np.full(x.shape[1], 0.5) + u, x])


def _cases(workdir: str, quick: bool) -> list[tuple[str, list[str]]]:
    """Write the input series and return ``(case id, argv)`` per report."""
    ts = (80, 203) if quick else (60, 75, 101, 150, 203, 300, 451, 600, 901)
    lams = (0.4,) if quick else (0.4, 0.37, 0.7)
    rhos = (0.6,) if quick else (0.0, 0.6)
    cases = []
    for t in ts:
        for rho in rhos:
            for one in (False, True):
                path = os.path.join(workdir, f"series-{t}-{rho}-{int(one)}.csv")
                columns = ["y", "x1"] if one else ["y", "c", "x1"]
                np.savetxt(path, _series(7, t, rho, one), fmt="%.17g", delimiter=",",
                           header=",".join(columns), comments="")
                variants = VARIANTS[4:] if one else VARIANTS[:4]
                for lam in lams:
                    for variant in variants:
                        for k in ("auto", "8"):
                            argv = [
                                "test", "--data", path, "--y", "y",
                                "--x", ",".join(columns[1:]), "--lambda", str(lam),
                                "--variant", variant, "--k", k, "--json", "-",
                            ]
                            if quick:
                                argv += ["--cv-reps", "1000", "--cv-grid", "200"]
                            cases.append((f"T={t} rho={rho} lam={lam} {variant} k={k}",
                                          argv))
    cases.append(("test without --lambda", [
        "test", "--data", path, "--y", "y", "--x", ",".join(columns[1:]), "--json", "-",
    ]))
    two = os.path.join(workdir, f"series-{ts[0]}-{rhos[0]}-0.csv")
    cases.append(("test --k 1 on two regressors", [
        "test", "--data", two, "--y", "y", "--x", "c,x1", "--lambda", "0.4", "--k", "1",
        "--json", "-",
    ]))
    return cases


def _call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``harchow.cli.main(argv)``; a call
    that argparse refuses exits with argparse's code and message."""
    from harchow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _simulate(workdir: str, argv: list[str]) -> dict:
    """One ``simulate-cv`` run: its exit code, stderr, and as ``result``
    the critical values of its draws and its redraw count."""
    from harchow import fixedlimit

    path = os.path.join(workdir, "draws.txt")
    code, out, err = _call(
        argv + ["--cache-dir", os.path.join(workdir, "cv-cache"), "--csv", path]
    )
    result = None
    if code == 0:
        draws = np.loadtxt(path, skiprows=1)
        redraws = re.search(r"\(redraws (\d+)\)", out).group(1)
        result = {
            "simulated_cv": [
                fixedlimit.upper_quantile(draws, alpha) for alpha in (0.10, 0.05, 0.01)
            ],
            "redraws": int(redraws),
        }
    return {"code": code, "error": err, "result": result}


def _dump(workdir: str, quick: bool) -> None:
    """Run every case, law and study with the ``harchow`` on ``sys.path``
    and write ``reports.json`` and one CSV per study into ``workdir``."""
    from harchow import cli

    with open(os.path.join(workdir, "cases.json")) as fh:
        cases = json.load(fh)
    reports = {}
    for case, argv in cases:
        code, out, err = _call(argv + ["--cache-dir", os.path.join(workdir, "cache")])
        result = json.loads(out)["result"] if code == 0 else None
        reports[case] = {"code": code, "error": err, "result": result}
    for case, argv in QUICK_SIMULATIONS if quick else SIMULATIONS:
        reports[case] = _simulate(workdir, argv)
    with open(os.path.join(workdir, "reports.json"), "w") as fh:
        json.dump(reports, fh)
    for name, argv in QUICK_STUDIES if quick else STUDIES:
        for workers in ("1", "2"):
            path = os.path.join(workdir, f"{name}-w{workers}.csv")
            if cli.main(argv + ["--workers", workers, "--out", path]) != 0:
                raise SystemExit(f"{name} failed at --workers {workers}")


def _src(tree: str) -> str:
    """The directory that holds the ``harchow`` package of a tree."""
    src = os.path.join(tree, "src")
    return os.path.abspath(src if os.path.isdir(os.path.join(src, "harchow")) else tree)


def _run_tree(tree: str, workdir: str, cases, quick: bool) -> None:
    os.makedirs(workdir)
    with open(os.path.join(workdir, "cases.json"), "w") as fh:
        json.dump(cases, fh)
    env = dict(os.environ, PYTHONPATH=_src(tree))
    argv = [sys.executable, os.path.abspath(__file__), "--dump", workdir]
    subprocess.run(argv + ["--quick"] * quick, env=env, check=True)


def _flat(value, name: str = "") -> dict:
    """Every leaf of a report by path: ``plugin.a_hat[0][1]``."""
    if isinstance(value, dict):
        items = ((f"{name}.{key}" if name else key, v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return {name: value}
    return {path: leaf for key, v in items for path, leaf in _flat(v, key).items()}


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _compare(old_dir: str, new_dir: str) -> bool:
    """Print the differences; True where nothing but float rounding moved."""
    same = True
    reports = []
    for d in (old_dir, new_dir):
        with open(os.path.join(d, "reports.json")) as fh:
            reports.append(json.load(fh))
    old, new = reports
    worst: dict[str, tuple[float, str]] = {}
    for case, a in old.items():
        b = new[case]
        if (a["code"], a["error"]) != (b["code"], b["error"]):
            print(f"DIFFERS {case}: exit {a['code']} {a['error']!r} -> "
                  f"{b['code']} {b['error']!r}")
            same = False
            continue
        if a["code"]:
            continue
        fa, fb = _flat(a["result"]), _flat(b["result"])
        for field in sorted(fa.keys() | fb.keys()):
            va, vb = fa.get(field), fb.get(field)
            if isinstance(va, float) and isinstance(vb, float):
                rel, name = _relative(va, vb), field.split("[")[0]
                if rel >= worst.get(name, (-1.0, ""))[0]:
                    worst[name] = (rel, case)
            elif va != vb or type(va) is not type(vb):
                print(f"DIFFERS {case}: {field} {va!r} -> {vb!r}")
                same = False
    codes = [r["code"] for r in old.values()]
    laws = sum(case.startswith("simulate-cv") for case in old)
    print(f"{len(old) - laws} reports and {laws} laws, {codes.count(0)} run, "
          f"{len(codes) - codes.count(0)} refused (exit codes equal: "
          f"{all(old[c]['code'] == new[c]['code'] for c in old)})")
    print("largest relative difference per float field:")
    for field, (rel, case) in sorted(worst.items()):
        print(f"  {field:24s} {rel:.3g}" + (f"  ({case})" if rel else ""))
    csvs = sorted(f for f in os.listdir(old_dir) if f.endswith(".csv"))
    for name in csvs:
        with open(os.path.join(old_dir, name), "rb") as fa, \
                open(os.path.join(new_dir, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            moved = sum(x != y for x, y in zip(a.splitlines(), b.splitlines()))
            print(f"DIFFERS {name}: {moved} rows")
            same = False
    print(f"{len(csvs)} study CSVs compared byte for byte")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the parent tree")
    parser.add_argument("change", nargs="?", help="the changed tree")
    parser.add_argument("--quick", action="store_true", help="a few seconds' subset")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        _dump(args.dump, args.quick)
        return 0
    if not (args.parent and args.change):
        parser.error("need PARENT_SRC and CHANGE_SRC")
    with tempfile.TemporaryDirectory() as workdir:
        cases = _cases(workdir, args.quick)
        dirs = [os.path.join(workdir, side) for side in ("parent", "change")]
        for tree, d in zip((args.parent, args.change), dirs):
            _run_tree(tree, d, cases, args.quick)
        same = _compare(*dirs)
    print("no CSV byte, exit code or non-float field differs" if same
          else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
