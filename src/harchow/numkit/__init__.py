"""Self-contained numeric kernel: SPD linear algebra, a discrete Lyapunov
solver, distribution CDFs, upper tails and quantiles built on in-house
special functions, and reproducible random streams."""

from .dists import (
    DistFamily,
    chi_square,
    dist_cdf,
    dist_pdf,
    dist_quantile,
    dist_sf,
    fisher_f,
    normal,
    student_t,
)
from .linalg import (
    cholesky,
    leading_spd_rank,
    lyapunov_solve,
    solve_general,
    solve_triangular,
    spd_solve,
    spectral_radius,
)
from .rng import RngStream
from .special import (
    erfc,
    log_gamma,
    regularized_beta,
    regularized_gamma_p,
    regularized_gamma_q,
)

__all__ = [
    "DistFamily",
    "RngStream",
    "chi_square",
    "cholesky",
    "dist_cdf",
    "dist_pdf",
    "dist_quantile",
    "dist_sf",
    "erfc",
    "fisher_f",
    "leading_spd_rank",
    "log_gamma",
    "lyapunov_solve",
    "normal",
    "regularized_beta",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "solve_general",
    "solve_triangular",
    "spd_solve",
    "spectral_radius",
    "student_t",
]
