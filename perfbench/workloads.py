"""Seeded inputs and the fixed op list of each benchmark workload.

The workload seed is the only source of randomness.  The program under test
receives only what this module generates: scenario CSV files for the report
workloads, and a copula, a band and a suite seed for ``axiom_suite``.

Every portfolio has a fixed shape (m scenarios, d assets and a fixed number of
distinct losses per asset); the seed changes only the values.  The cost of the
exact grid sums depends on the shape, not the values, so runs with different
seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ops call through module attributes, so that a traced run sees every call
from jointrisk import cli, copula, scalar_risk
from jointrisk.distortion import ConfidenceBand

# share of each asset's scenarios that carry a distinct (rounded) loss; the
# rest repeat one of those values at adjacent ranks, which gives rank ties
DISTINCT_SHARE = 0.85
LATENT_CORRELATION = 0.6

_GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')


@dataclass(frozen=True)
class Portfolio:
    """Shape of one generated scenario file."""

    m: int
    d: int
    signed: bool = False
    weighted: bool = False


@dataclass(frozen=True)
class Losses:
    """A generated portfolio as the benchmark keeps it (raw, unnormalized weights)."""

    losses: np.ndarray
    weights: np.ndarray | None


def generate_losses(rng: np.random.Generator, p: Portfolio) -> Losses:
    """Dependent losses in cents with exactly round(DISTINCT_SHARE * m) distinct values per asset.

    A one-factor Gaussian latent orders the scenarios of every asset, so the
    assets are positively dependent; the sorted multiset of rounded losses is
    then laid out along that order.  Signed portfolios draw from a range that
    is about 30% negative.
    """
    k = max(2, round(DISTINCT_SHARE * p.m))
    lo, hi = (-3000, 7000) if p.signed else (1, 10001)
    common = rng.standard_normal((p.m, 1))
    latent = LATENT_CORRELATION * common + math.sqrt(1 - LATENT_CORRELATION**2) * rng.standard_normal((p.m, p.d))
    losses = np.empty((p.m, p.d))
    for i in range(p.d):
        values = np.sort(rng.choice(np.arange(lo, hi), size=k, replace=False))
        counts = 1 + np.bincount(rng.integers(0, k, size=p.m - k), minlength=k)
        losses[np.argsort(latent[:, i], kind="stable"), i] = np.repeat(values, counts) / 100.0
    weights = rng.integers(1, 5, size=p.m).astype(float) if p.weighted else None
    return Losses(losses, weights)


def write_csv(path: Path, data: Losses) -> None:
    d = data.losses.shape[1]
    header = [f"a{i + 1}" for i in range(d)] + (["weight"] if data.weights is not None else [])
    lines = [",".join(header)]
    for r, row in enumerate(data.losses):
        cells = [repr(float(v)) for v in row]
        if data.weights is not None:
            cells.append(str(int(data.weights[r])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ReportOp:
    """One in-process ``risk <measure>`` report: ``cli.run`` plus ``render_report``."""

    label: str
    measure: str
    path: str
    data: Losses
    copula: str
    distortions: tuple[str, ...] = ()
    band: tuple[float, float] | None = None
    q: float | None = None
    grid_n: int | None = None

    def config(self) -> cli.RunConfig:
        return cli.RunConfig(
            measure=self.measure,
            input_path=self.path,
            copula_choice=self.copula,
            band=None if self.band is None else ConfidenceBand(*self.band),
            q=self.q,
            distortion_kinds=self.distortions,
            grid_n=self.grid_n,
        )

    def __call__(self) -> tuple[dict, str]:
        report = cli.run(self.config())
        return report, cli.render_report(report)

    @staticmethod
    def canonical(text: str) -> str:
        """The rendered report without its only nondeterministic field."""
        return _GENERATED_AT.sub('"generated_at": null', text)

    @staticmethod
    def golden_view(report: dict) -> dict:
        return {"copula": report["copula"], "results": report["results"]}


def parametric_copula(choice: str, d: int):
    """A copula from a CLI-style choice such as ``clayton:2.0`` or ``independence``."""
    name, _, param = choice.partition(":")
    if name in ("independence", "comonotone"):
        return getattr(copula, name)(d)
    return getattr(copula, name)(float(param), d)


@dataclass
class AxiomOp:
    """One library ``axiom_suite`` call on small random portfolios (m <= 8)."""

    label: str
    copulas: tuple[str, ...]
    d: int
    kind: str
    band: tuple[float, float]
    trials: int
    seed: int

    def __call__(self):
        factory = scalar_risk.varcvar_spec_factory(ConfidenceBand(*self.band), self.kind)
        copulas = [parametric_copula(c, self.d) for c in self.copulas]
        report = scalar_risk.axiom_suite(factory, copulas, trials=self.trials, seed=self.seed)
        return report, json.dumps(report.as_dict(), sort_keys=True)

    @staticmethod
    def canonical(text: str) -> str:
        return text

    @staticmethod
    def golden_view(report) -> dict:
        return report.as_dict()


# --------------------------------------------------------------------------
# op tables.  Sizes keep one pass of each workload at a few seconds on one
# core, so a run holds several passes and reports their median.

# measure, copula, portfolio, distortions, band, grid_n.  The empirical
# copula (the CLI default) keeps the default diagnostics grid; the parametric
# ops set --grid-n so that the measure's own grid sum, not the diagnostics
# grid, carries most of their cost.
_SCALAR_GRID = (
    ("scalar", "empirical", Portfolio(90, 2), (), None, None),
    ("scalar", "empirical", Portfolio(60, 2, weighted=True), ("cvar",), (0.9, 0.99), None),
    ("scalar", "empirical", Portfolio(20, 3), (), None, None),
    ("signed2d", "empirical", Portfolio(90, 2, signed=True), (), None, None),
    ("scalar", "clayton:2.0", Portfolio(400, 2), ("var",), (0.9, 0.99), 100),
    ("scalar", "gumbel:1.5", Portfolio(300, 2, weighted=True), ("power:2",), None, 100),
    ("scalar", "clayton:1.0", Portfolio(36, 3), (), None, 30),
    ("scalar", "frank:3.0", Portfolio(36, 3, weighted=True), ("cvar",), (0.9, 0.99), 30),
    ("scalar", "gumbel:2.0", Portfolio(10, 4), (), None, 12),
    ("scalar", "frank:4.0", Portfolio(10, 4), ("var",), (0.9, 0.99), 12),
    ("signed2d", "frank:-3.0", Portfolio(400, 2, signed=True, weighted=True), ("power:0.5",), None, 100),
)

# portfolios shared by several report-mix commands
_MIX_PORTFOLIOS = {
    "p2": Portfolio(2000, 2),
    "p2w": Portfolio(1500, 2, weighted=True),
    "p3": Portfolio(1200, 3),
    "p4": Portfolio(500, 4, weighted=True),
    "p2big": Portfolio(3000, 2),
}

# measure, copula, portfolio key, distortions, band, q, grid_n
_REPORT_MIX = (
    ("copula-fit", "fit:clayton", "p2", (), None, None, 60),
    ("vector", "fit:gumbel", "p2", ("cvar",), (0.9, 0.99), None, 60),
    ("mixture", "fit:frank", "p2", ("var",), (0.95, 0.995), None, 60),
    ("mtce", "fit:clayton", "p2w", (), None, 0.9, 60),
    ("copula-distance", "fit:gumbel", "p3", (), None, None, 20),
    ("mtdrm", "clayton:2.0", "p3", ("power:2",), None, 0.8, 20),
    ("vector", "frank:3.0", "p3", ("cvar",), (0.9, 0.99), None, 20),
    ("mixture", "gumbel:1.5", "p4", ("cvar",), (0.9, 0.99), None, 10),
    ("mtdrm", "frank:2.0", "p4", ("var",), (0.9, 0.99), None, 10),
    ("copula-fit", "fit:gumbel", "p2big", (), None, None, 40),
)

# copulas cycled within one suite, distortion kind, band
_AXIOMS_SMALL = (
    (("clayton:2.0",), "var", (0.9, 0.99)),
    (("gumbel:1.5",), "cvar", (0.9, 0.99)),
    (("frank:4.0",), "var", (0.95, 0.995)),
    (("independence", "clayton:1.0"), "cvar", (0.9, 0.99)),
    (("comonotone", "gumbel:3.0"), "var", (0.9, 0.99)),
)
# suites per row of _AXIOMS_SMALL and dimension: a pass holds 45 suites, so a
# run of a few passes has over 100 op latencies.  Each suite draws its own
# portfolio sizes (m = 2..8) from its seed, so one suite's latency depends on
# the seed; op_p50_ms and op_p90_ms are order statistics within a pass, and
# 30 d=2 and 15 d=3 suites keep them from resting on one or two suites
AXIOM_REPEATS = {2: 6, 3: 3}
AXIOM_TRIALS = 10


def _scalar_grid(seed: int, workdir: Path) -> list:
    ops = []
    for j, (measure, choice, p, kinds, band, grid_n) in enumerate(_SCALAR_GRID):
        data = generate_losses(np.random.default_rng([seed, 0, j]), p)
        path = workdir / f"op{j}.csv"
        write_csv(path, data)
        label = f"{measure} {choice} d={p.d} m={p.m}"
        ops.append(ReportOp(label, measure, str(path), data, choice, kinds, band, None, grid_n))
    return ops


def _report_mix(seed: int, workdir: Path) -> list:
    files = {}
    for j, (key, p) in enumerate(_MIX_PORTFOLIOS.items()):
        data = generate_losses(np.random.default_rng([seed, 1, j]), p)
        path = workdir / f"{key}.csv"
        write_csv(path, data)
        files[key] = (str(path), data, p)
    ops = []
    for measure, choice, key, kinds, band, q, grid_n in _REPORT_MIX:
        path, data, p = files[key]
        label = f"{measure} {choice} d={p.d} m={p.m}"
        ops.append(ReportOp(label, measure, path, data, choice, kinds, band, q, grid_n))
    return ops


def _axioms_small(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for d, repeats in AXIOM_REPEATS.items():
        for _ in range(repeats):
            for copulas, kind, band in _AXIOMS_SMALL:
                label = f"axioms {'+'.join(copulas)} {kind} d={d}"
                ops.append(AxiomOp(label, copulas, d, kind, band, AXIOM_TRIALS, int(rng.integers(2**31))))
    return ops


_OP_LISTS = {"scalar-grid": _scalar_grid, "report-mix": _report_mix, "axioms-small": _axioms_small}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's op list for ``seed``; scenario files are written under ``workdir``."""
    return _OP_LISTS[workload](seed, workdir)
