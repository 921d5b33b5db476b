"""Outside-in span recorder for the harchow layers.

Nothing here edits the package. ``Tracer.install`` replaces every
module-level binding that *is* one of the traced public function objects
(including the names consumer modules imported, such as
``harchow.bases.cholesky``) and the traced class attributes with a wrapper
that records a span, so a call is timed wherever it is made from.
``Tracer.uninstall`` puts the original objects back.

A span is ``(name, parent, start, end)``; spans live in flat lists in memory
and are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children. Counters are recorded
by small hooks at the same boundaries, from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, defining module, attribute path) of every traced public object.
TRACED = (
    ("cli", "harchow.cli", "main"),
    ("chowtest", "harchow.chowtest", "run_test"),
    ("chowtest", "harchow.chowtest", "wald_stat"),
    ("chowtest", "harchow.chowtest", "t_stat"),
    ("regression", "harchow.regression", "ols_fit"),
    ("autok", "harchow.autok", "score_series"),
    ("autok", "harchow.autok", "build_plugin_model"),
    ("autok", "harchow.autok", "mse_optimal_k"),
    ("bases", "harchow.bases", "fourier_matrix"),
    ("bases", "harchow.bases", "kernel_matrix"),
    ("bases", "harchow.bases", "gram_transform"),
    ("bases", "harchow.bases", "feasible_k"),
    ("longrun", "harchow.longrun", "series_lrv"),
    ("longrun", "harchow.longrun", "sandwich_variance"),
    ("fixedlimit", "harchow.fixedlimit", "simulate_limit"),
    ("fixedlimit", "harchow.fixedlimit", "save_distribution"),
    ("fixedlimit", "harchow.fixedlimit", "load_distribution"),
    ("fixedlimit", "harchow.fixedlimit", "CriticalValueCache.get"),
    ("mcstudy", "harchow.mcstudy", "simulate_dgp"),
    ("mcstudy", "harchow.mcstudy", "size_experiment"),
    ("mcstudy", "harchow.mcstudy", "power_experiment"),
    ("mcstudy", "harchow.mcstudy", "k_grid_experiment"),
    ("numkit", "harchow.numkit.linalg", "cholesky"),
    ("numkit", "harchow.numkit.linalg", "leading_spd_rank"),
    ("numkit", "harchow.numkit.linalg", "solve_triangular"),
    ("numkit", "harchow.numkit.linalg", "spd_solve"),
    ("numkit", "harchow.numkit.linalg", "solve_general"),
    ("numkit", "harchow.numkit.linalg", "spectral_radius"),
    ("numkit", "harchow.numkit.linalg", "lyapunov_solve"),
    ("numkit", "harchow.numkit.dists", "dist_cdf"),
    ("numkit", "harchow.numkit.dists", "dist_quantile"),
    ("numkit", "harchow.numkit.rng", "RngStream.__init__"),
    ("numkit", "harchow.numkit.rng", "RngStream.normals"),
)

ROOT_SPAN = "harness.op"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_kernel(counts, args, kwargs, out):
    t = _arg(args, kwargs, 0, "t")
    counts["bases.kernel_bytes"] += 8 * t * t


def _count_rows(counts, args, kwargs, out):
    counts["numkit.solve_triangular_rows"] += np.shape(_arg(args, kwargs, 0, "t"))[0]


def _count_normals(counts, args, kwargs, out):
    counts["numkit.normals_drawn"] += _arg(args, kwargs, 1, "n")


def _count_plugin(counts, args, kwargs, out):
    counts["autok.clamped"] += bool(out.clamped)


def _count_simulation(counts, args, kwargs, out):
    counts["fixedlimit.draws"] += len(out.draws)
    counts["fixedlimit.redraws"] += out.redraws


def _count_saved(counts, args, kwargs, out):
    counts["fixedlimit.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = {
    "bases.kernel_matrix": _count_kernel,
    "numkit.solve_triangular": _count_rows,
    "numkit.RngStream.normals": _count_normals,
    "autok.build_plugin_model": _count_plugin,
    "fixedlimit.simulate_limit": _count_simulation,
    "fixedlimit.save_distribution": _count_saved,
}


class Tracer:
    """Span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.name_ids = {ROOT_SPAN: 0}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, fn):
        sid = self.name_ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        stack, names, parent = self._stack, self.span_name, self.parent
        start, end, errors, counts = self.start, self.end, self.errors, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                errors[idx] = type(exc).__name__
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return wrapper

    def op(self, fn, *args, **kwargs):
        """Run one workload operation under a root span; return its result."""
        return self._wrap(ROOT_SPAN, fn)(*args, **kwargs)

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "harchow" or n.startswith("harchow."))
        ]
        for layer, module_name, path in TRACED:
            owner = importlib.import_module(module_name)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{layer}.{path}", original)
            if cls_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------
    def arrays(self):
        return (
            np.asarray(self.span_name, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.start),
            np.asarray(self.end),
        )

    def self_times(self) -> np.ndarray:
        names, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - child

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, errors, parent-name counts."""
        names, parent, _, _ = self.arrays()
        self_s = self.self_times()
        out: dict[str, dict] = {}
        parents: dict[int, Counter] = defaultdict(Counter)
        for idx, (sid, par) in enumerate(zip(names.tolist(), parent.tolist())):
            parents[sid][self.names[names[par]] if par >= 0 else "-"] += 1
        for sid, name in enumerate(self.names):
            mask = names == sid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_s[mask].sum()),
                "errors": dict(Counter(
                    err for idx, err in self.errors.items() if names[idx] == sid
                )),
                "parents": dict(parents[sid]),
            }
        return out

    def cache_outcomes(self) -> Counter:
        """Classify each ``CriticalValueCache.get`` span by its children."""
        names, parent, _, _ = self.arrays()
        get_id = self.name_ids.get("fixedlimit.CriticalValueCache.get")
        load_id = self.name_ids.get("fixedlimit.load_distribution")
        sim_id = self.name_ids.get("fixedlimit.simulate_limit")
        outcome = Counter()
        if get_id is None:
            return outcome
        children = defaultdict(set)
        for idx, par in enumerate(parent.tolist()):
            if par >= 0 and names[par] == get_id:
                children[par].add(int(names[idx]))
        for idx in np.nonzero(names == get_id)[0].tolist():
            kids = children[idx]
            if sim_id in kids:
                outcome["fixedlimit.cache_misses"] += 1
            elif load_id in kids:
                outcome["fixedlimit.cache_disk_hits"] += 1
            else:
                outcome["fixedlimit.cache_memory_hits"] += 1
        return outcome

    def write(self, path: str, summary: dict) -> None:
        """Write the spans (npz) and the per-name summary (json) to ``path.*``."""
        names, parent, start, end = self.arrays()
        np.savez_compressed(
            path + ".npz", names=np.array(self.names), span_name=names,
            parent=parent, start=start, end=end,
        )
        with open(path + ".json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
