"""Per-layer metrics of a traced run and the end-to-end metric each moves.

Times are busy (self) seconds: the spans' durations minus their child spans.
Counts come from the tracer's hooks, span call counts, span errors, or the
classification of cache lookups by their child spans. The ``moves`` column
is the prediction written down before any optimisation: which end-to-end
metric on which workload a change to that layer should move.
"""

from __future__ import annotations

# name, unit, source, spans or counter, moves
#   source "self": summed self time of the spans
#   source "calls": summed call count of the spans
#   source "count": tracer counter
#   source "error": spans that raised the named exception
METRICS = (
    ("bases.kernel_matrix_s", "s", "self", ("bases.kernel_matrix",),
     "op_p90_s, peak_rss_mb on test-series; no change on mc-size"),
    ("bases.gram_transform_s", "s", "self", ("bases.gram_transform",),
     "op_p90_s, peak_rss_mb on test-series; no change on mc-size"),
    ("bases.feasible_k_s", "s", "self", ("bases.feasible_k",),
     "op_p90_s on test-series; no change on mc-size"),
    ("bases.fourier_matrix_s", "s", "self", ("bases.fourier_matrix",),
     "op_p90_s on test-series; no change on mc-size"),
    ("bases.kernel_bytes", "bytes", "count", "bases.kernel_bytes",
     "peak_rss_mb on test-series"),
    ("bases.transform_fallbacks", "count", "error",
     ("bases.gram_transform", "NotPositiveDefinite"), "op_p90_s on test-series"),
    ("numkit.cholesky_s", "s", "self", ("numkit.cholesky", "numkit.leading_spd_rank"),
     "op_p90_s on test-series, work_per_s on mc-size"),
    ("numkit.cholesky.calls", "count", "calls",
     ("numkit.cholesky", "numkit.leading_spd_rank"),
     "op_p90_s on test-series, work_per_s on mc-size"),
    ("numkit.solve_triangular_s", "s", "self", ("numkit.solve_triangular",),
     "op_p90_s on test-series"),
    ("numkit.solve_triangular.calls", "count", "calls", ("numkit.solve_triangular",),
     "op_p90_s on test-series"),
    ("numkit.solve_triangular_rows", "count", "count", "numkit.solve_triangular_rows",
     "op_p90_s on test-series"),
    ("numkit.normals_s", "s", "self", ("numkit.RngStream.normals",),
     "work_per_s on simulate-cv and mc-size"),
    ("numkit.normals_drawn", "count", "count", "numkit.normals_drawn",
     "work_per_s on simulate-cv"),
    ("numkit.rng_streams", "count", "calls", ("numkit.RngStream.__init__",),
     "work_per_s on simulate-cv and mc-size"),
    ("numkit.dist_s", "s", "self", ("numkit.dist_cdf", "numkit.dist_quantile"),
     "op_p50_s on test-series, work_per_s on mc-size"),
    ("numkit.lyapunov_s", "s", "self", ("numkit.lyapunov_solve",),
     "op_p50_s on test-series, work_per_s on mc-size"),
    ("numkit.self_s", "s", "self",
     ("numkit.cholesky", "numkit.leading_spd_rank", "numkit.solve_triangular",
      "numkit.spd_solve", "numkit.solve_general", "numkit.spectral_radius",
      "numkit.lyapunov_solve", "numkit.dist_cdf", "numkit.dist_quantile",
      "numkit.RngStream.__init__", "numkit.RngStream.normals"),
     "work_per_s on simulate-cv and mc-size"),
    ("regression.ols_fit_s", "s", "self", ("regression.ols_fit",),
     "work_per_s on mc-size and mc-power, op_p50_s on test-series"),
    ("regression.ols_fit.calls", "count", "calls", ("regression.ols_fit",),
     "work_per_s on mc-size and mc-power"),
    ("autok.plugin_s", "s", "self",
     ("autok.score_series", "autok.build_plugin_model", "autok.mse_optimal_k"),
     "work_per_s on mc-size, op_p50_s on test-series"),
    ("autok.calls", "count", "calls", ("autok.build_plugin_model",),
     "work_per_s on mc-size, op_p50_s on test-series"),
    ("autok.clamped", "count", "count", "autok.clamped",
     "none (a decision count, not a cost)"),
    ("longrun.series_lrv_s", "s", "self", ("longrun.series_lrv",),
     "op_p50_s on test-series"),
    ("longrun.series_lrv.calls", "count", "calls", ("longrun.series_lrv",),
     "op_p50_s on test-series"),
    ("longrun.sandwich_s", "s", "self", ("longrun.sandwich_variance",),
     "work_per_s on mc-size and mc-power"),
    ("longrun.sandwich.calls", "count", "calls", ("longrun.sandwich_variance",),
     "work_per_s on mc-size and mc-power"),
    ("chowtest.self_s", "s", "self",
     ("chowtest.run_test", "chowtest.wald_stat", "chowtest.t_stat"),
     "op_p50_s on test-series"),
    ("chowtest.run_test.calls", "count", "calls", ("chowtest.run_test",),
     "op_p50_s on test-series"),
    ("cli.self_s", "s", "self", ("cli.main",), "op_p50_s on test-series"),
    ("fixedlimit.simulate_s", "s", "self", ("fixedlimit.simulate_limit",),
     "work_per_s on simulate-cv; no change on test-series and mc-size"),
    ("fixedlimit.simulations", "count", "calls", ("fixedlimit.simulate_limit",),
     "work_per_s on simulate-cv"),
    ("fixedlimit.draws", "count", "count", "fixedlimit.draws", "work_per_s on simulate-cv"),
    ("fixedlimit.redraws", "count", "count", "fixedlimit.redraws",
     "work_per_s on simulate-cv"),
    ("fixedlimit.cache_memory_hits", "count", "count", "fixedlimit.cache_memory_hits",
     "none on the timed ops (warm pass of simulate-cv)"),
    ("fixedlimit.cache_disk_hits", "count", "count", "fixedlimit.cache_disk_hits",
     "none on the timed ops (warm pass of simulate-cv)"),
    ("fixedlimit.cache_misses", "count", "count", "fixedlimit.cache_misses",
     "work_per_s on simulate-cv"),
    ("fixedlimit.save_s", "s", "self", ("fixedlimit.save_distribution",),
     "work_per_s on simulate-cv"),
    ("fixedlimit.load_s", "s", "self", ("fixedlimit.load_distribution",),
     "none on the timed ops (warm pass of simulate-cv)"),
    ("fixedlimit.bytes_written", "bytes", "count", "fixedlimit.bytes_written",
     "work_per_s on simulate-cv"),
    ("mcstudy.simulate_dgp_s", "s", "self", ("mcstudy.simulate_dgp",),
     "work_per_s on mc-size"),
    ("mcstudy.simulate_dgp.calls", "count", "calls", ("mcstudy.simulate_dgp",),
     "work_per_s on mc-size"),
    ("mcstudy.self_s", "s", "self",
     ("mcstudy.size_experiment", "mcstudy.power_experiment", "mcstudy.k_grid_experiment"),
     "work_per_s on mc-power most, then mc-size"),
    ("trace.spans", "count", "calls", None, "none (size of the trace)"),
    ("trace.overhead_ratio", "ratio", "overhead", None,
     "none (traced over untraced op time, minus one)"),
)


def compute(tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Evaluate every metric of :data:`METRICS` from a finished trace."""
    spans = tracer.by_name()
    counts = tracer.counts + tracer.cache_outcomes()
    out = {}
    for name, unit, source, what, _ in METRICS:
        if source == "self":
            value = sum(spans.get(s, {}).get("self_s", 0.0) for s in what)
        elif source == "calls":
            names = what if what is not None else spans
            value = sum(spans.get(s, {}).get("calls", 0) for s in names)
        elif source == "count":
            value = counts[what]
        elif source == "error":
            span, error = what
            value = spans.get(span, {}).get("errors", {}).get(error, 0)
        else:
            value = overhead
        out[name] = (value, unit)
    return out
