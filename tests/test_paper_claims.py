"""The paper's size claim at Table-1 scale (opt in: HARCHOW_PAPER_CLAIMS=1).

On every cell of ``TABLE1_GRID`` at T = 100, 200 and 500, with 10,000
replications at auto K:

* the F test is closer to the nominal 5% than the chi-square test on the
  same transformed basis, and the simulated fixed-K reference is closer than
  the chi-square reference on the raw Fourier basis. The variants of a cell
  share their replications, so each pair's standard error comes from the
  count of discordant replications, ``sqrt(n10 + n01) / n``, and the gap in
  distance to 5% must exceed 3 of them;
* at psi = 0 the chi-square Fourier test over-rejects more as positive
  persistence rises (rho = 0, 0.3, 0.6, 0.9): no step up in rho lowers its
  rate by more than 2 independent standard errors, and the rate at 0.9
  exceeds the rate at 0 by more than 3. Negative rho is left out: there the
  distortion grows with ``|rho|`` (at T = 60 the rate at rho = -0.6 is
  above the rate at 0), so a claim monotone in rho does not hold.

Seeds are fixed (the master seed is T) and a failing cell is a finding, not
a reason to re-seed. Each T writes its table CSV, the same bytes as
``harchow mc-size --preset table1 --T <T> --reps 10000 --seed <T>``.
"""

import os

import numpy as np
import pytest

from harchow import mcstudy
from harchow.fixedlimit import CriticalValueCache

pytestmark = pytest.mark.skipif(
    os.environ.get("HARCHOW_PAPER_CLAIMS") != "1",
    reason="paper-claim gate: set HARCHOW_PAPER_CLAIMS=1 (minutes of simulation)",
)

REPS = 10_000
NOMINAL = 0.05
PAIRS = (
    ("f-transformed", "chisq-transformed"),
    ("nonstandard-fourier", "chisq-fourier"),
)


@pytest.mark.parametrize("t", [100, 200, 500])
def test_table1_size_claims(t, tmp_path, monkeypatch):
    rejects = []
    run = mcstudy._rejections

    def recorded(*args):
        out = run(*args)
        rejects.append(out[0])
        return out

    monkeypatch.setattr(mcstudy, "_rejections", recorded)
    specs = [mcstudy.DgpSpec(t=t, rho=r, psi=p) for r, p in mcstudy.TABLE1_GRID]
    results = mcstudy.size_experiment(
        specs, mcstudy.F_VARIANTS, k_policy="auto", reps=REPS, master_seed=t,
        workers=min(2, os.cpu_count() or 1),
        cv_cache=CriticalValueCache(str(tmp_path)),
    )
    table = tmp_path / f"table1_T{t}.csv"
    table.write_text(mcstudy.size_table_csv(results))
    print(f"\n{table}\n{table.read_text()}")

    n_var = len(mcstudy.F_VARIANTS)
    failures, margins = [], []
    for c, spec in enumerate(specs):
        cell = dict(zip(mcstudy.F_VARIANTS, rejects[c * n_var:(c + 1) * n_var]))
        rows = results[c * n_var:(c + 1) * n_var]
        rate = {r.variant: r.rejection for r in rows}
        for better, worse in PAIRS:
            a, b = cell[better], cell[worse]
            assert rate[better] == a.sum() / len(a)
            assert rate[worse] == b.sum() / len(b)
            se = np.sqrt(np.sum(a != b)) / len(a)
            gap = abs(rate[worse] - NOMINAL) - abs(rate[better] - NOMINAL)
            margins.append(gap / se)
            if not gap > 3 * se:
                failures.append(
                    f"T={t} rho={spec.rho} psi={spec.psi}: {better} {rate[better]:.4f}"
                    f" vs {worse} {rate[worse]:.4f}: gap {gap:.4f} <= 3 SE {3 * se:.4f}"
                )

    chisq = sorted(
        (r.rho, r.rejection, r.mc_se) for r in results
        if r.variant == "chisq-fourier" and r.psi == 0.0 and r.rho >= 0.0
    )
    for (rho0, r0, se0), (rho1, r1, se1) in zip(chisq, chisq[1:]):
        if r1 - r0 < -2 * np.hypot(se0, se1):
            failures.append(f"T={t}: chisq-fourier {r0} at rho={rho0}, then {r1}")
    (_, low, se_low), (_, high, se_high) = chisq[0], chisq[-1]
    if not high - low > 3 * np.hypot(se_low, se_high):
        failures.append(f"T={t}: chisq-fourier rises only from {low} to {high}")
    print(f"T={t}: smallest gap in paired standard errors {min(margins):.1f}")
    assert not failures, "\n".join(failures)
