"""Spans and counters recorded around calls into jointrisk's modules.

The benchmark times the program from outside: ``Instrumentation`` replaces
each traced public function, in every jointrisk module that binds it, with a
wrapper that records a span (name, start, end, parent span, op id) and the
counts named below, then restores the originals.  Spans are kept in memory and
written out when the run ends.

Copula evaluations (``Copula.cdf`` and ``SurvivalCopula.cdf``) are counted and
timed, but they are not spans: one axiom suite makes thousands of them, and
their time stays in the self time of the span that ordered them (the kernel,
the goodness-of-fit grid, the Frechet grid).
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from jointrisk import cli, copula, distortion, portfolio, scalar_risk, signed, vector_risk

_now = time.perf_counter_ns


def _grid_cells(s, keep) -> int:
    """Product over assets of the number of distinct losses ``keep`` selects."""
    sizes = []
    for i in range(s.dim):
        values = np.unique(s.losses[:, i])
        sizes.append(np.count_nonzero(keep(values)))
    return int(np.prod(sizes))


def _survival_cells(s, spec):
    # one cell per distinct positive loss and asset
    return {"scalar_risk.cells": _grid_cells(s, lambda v: v > 0.0), "scalar_risk.gamma_calls": 1}


def _ls_cells(s, spec):
    # one atom per distinct loss and asset
    return {"scalar_risk.cells": _grid_cells(s, lambda v: np.ones(len(v), bool)), "scalar_risk.gamma_calls": 1}


def _signed_cells(s, spec):
    # cells on both sides of zero, over all four quadrants
    return {"signed.cells": _grid_cells(s, lambda v: v != 0.0)}


def _grid_points(c, *rest, **kwargs):
    # gof_distance(e, c, grid_n) and frechet_distances(c, grid_n)
    grid_n = kwargs.get("grid_n", rest[-1] if rest and not hasattr(rest[-1], "dim") else None)
    if grid_n is None:
        grid_n = copula.default_grid_n(c.dim)
    return {"copula.grid_points": (grid_n + 1) ** c.dim}


def _blend_count(*args):
    return {"distortion.blend_calls": 1}


def _kendall_pairs(x, y, weights):
    return {"copula.kendall_pairs": len(x) ** 2}


def _scenarios(losses, *rest, **kw):
    return {"portfolio.scenarios": int(np.shape(losses)[0])}


# (module, function, span name, counter): the counter sees the call's
# arguments and returns counts to add; it runs before the span starts
TARGETS = (
    (scalar_risk, "gamma_survival_form", "scalar_risk.survival_form", _survival_cells),
    (scalar_risk, "gamma_ls_form", "scalar_risk.ls_form", _ls_cells),
    (scalar_risk, "axiom_suite", "scalar_risk.axiom_suite", None),
    (signed, "gamma_signed_2d", "signed.gamma_signed_2d", _signed_cells),
    (copula, "gof_distance", "copula.gof", _grid_points),
    (copula, "frechet_distances", "copula.frechet", _grid_points),
    (copula, "kendall_tau", "copula.kendall", _kendall_pairs),
    (copula, "empirical_copula", "copula.resolve", None),
    (copula, "fit_archimedean", "copula.resolve", None),
    (copula, "survival_copula", "copula.resolve", None),
    (copula, "independence", "copula.resolve", None),
    (copula, "comonotone", "copula.resolve", None),
    (copula, "countermonotone_2d", "copula.resolve", None),
    (copula, "clayton", "copula.resolve", None),
    (copula, "gumbel", "copula.resolve", None),
    (copula, "frank", "copula.resolve", None),
    (distortion, "blend_diagnostics", "distortion.blend", _blend_count),
    # the CSV reader is private, but it is the only ingest step cli.run takes
    (cli, "_read_rows", "portfolio.ingest", None),
    (portfolio, "scenario_set", "portfolio.ingest", _scenarios),
    (vector_risk, "h_vector", "vector_risk.h_vector", None),
    (vector_risk, "mixture_var_cvar", "vector_risk.mixture", None),
    (vector_risk, "mtce", "vector_risk.mtce", None),
    (vector_risk, "mtdrm", "vector_risk.mtdrm", None),
    (cli, "run", "cli.run", None),
    (cli, "render_report", "cli.render", None),
)
CDF_CLASSES = (copula.Copula, copula.SurvivalCopula)
KENDALL_SPAN = "copula.kendall"


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.kendall_peak_bytes = 0
        self._cdf_depth = 0

    def wrap(self, fn, name: str, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        kendall = name == KENDALL_SPAN

        def traced(*args, **kwargs):
            if counter is not None:
                for key, n in counter(*args, **kwargs).items():
                    counts[key] += n
            if kendall:
                tracemalloc.start()
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            spans[idx][1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = _now()
                stack.pop()
                if kendall:
                    self.kendall_peak_bytes = max(self.kendall_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return traced

    def wrap_cdf(self, fn):
        counts = self.counts

        def cdf(c, u):
            counts["copula.cdf_calls"] += 1
            counts["copula.cdf_points"] += 1 if np.ndim(u) == 1 else len(u)
            if self._cdf_depth:
                return fn(c, u)
            # only the outermost evaluation is timed: a survival copula's base
            # evaluations run inside it
            self._cdf_depth = 1
            t0 = _now()
            try:
                return fn(c, u)
            finally:
                counts["copula.cdf_ns"] += _now() - t0
                self._cdf_depth = 0

        return cdf

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the parts covered by child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")


class Instrumentation:
    """Installs a tracer's wrappers into every jointrisk module, and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "jointrisk" or n.startswith("jointrisk.")]
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            wrapped = self.tracer.wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for cls in CDF_CLASSES:
            self._saved.append((cls, "cdf", cls.__dict__["cdf"]))
            cls.cdf = self.tracer.wrap_cdf(cls.__dict__["cdf"])
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()
        return False

