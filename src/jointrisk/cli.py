"""Command-line entry point: CSV ingestion, measure dispatch, JSON risk reports.

Commands
--------
``risk scalar|vector|mixture|mtce|mtdrm|signed2d|axioms|copula-fit|copula-distance``

Input is a CSV of loss scenarios (header row of asset names, optional final
``weight`` column).  Output is a versioned JSON report on stdout or ``--out``.
Exit codes: 0 success, 2 validation error, 3 match-assertion failure,
4 degenerate tail.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .copula import (
    CopulaLike,
    clayton,
    comonotone,
    countermonotone_2d,
    empirical_copula,
    fit_archimedean,
    frank,
    frechet_distances,
    gof_distance,
    gumbel,
    independence,
    survival_copula,
)
from .distortion import ConfidenceBand, blend_diagnostics, build_distortions
from .errors import (
    DataError,
    DegenerateTailError,
    JointRiskError,
    MatchError,
    ParameterError,
)
from .portfolio import ScenarioSet, _cvar_at, _var_at, scenario_set
from .scalar_risk import JointRiskSpec, axiom_suite, gamma_forms
from .signed import gamma_signed_2d
from .vector_risk import h_vector, mixture_var_cvar, mtce, mtdrm

SCHEMA_VERSION = 1
DEFAULT_MATCH_THRESHOLD = 0.05

MEASURES = (
    "scalar",
    "vector",
    "mixture",
    "mtce",
    "mtdrm",
    "signed2d",
    "axioms",
    "copula-fit",
    "copula-distance",
)


@dataclass
class RunConfig:
    measure: str
    input_path: str
    copula_choice: str = "empirical"
    band: ConfidenceBand | None = None
    q: float | None = None
    distortion_kinds: tuple[str, ...] = ()
    grid_n: int | None = None
    seed: int = 0
    match_policy: str = "warn"
    match_threshold: float = DEFAULT_MATCH_THRESHOLD
    out_path: str | None = None

    def echo(self) -> dict:
        d = asdict(self)
        d["band"] = None if self.band is None else [self.band.alpha1, self.band.alpha2]
        d["distortion_kinds"] = list(self.distortion_kinds)
        return d


def _read_rows(path: str) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"--input: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"--input: {path} is not UTF-8 text: {exc}") from exc
    rows = [r for r in rows if "".join(r).strip()]
    if not rows:
        raise DataError(f"--input: {path} is empty")
    header = [h.strip() for h in rows[0]]
    has_weights = bool(header) and header[-1].lower() == "weight"
    names = header[:-1] if has_weights else header
    if not names:
        raise DataError(f"--input: {path} has no asset columns")
    if len(rows) < 2:
        raise DataError(f"--input: {path} has a header but no data rows")

    table = _parse_table(path, rows[1:], len(header), has_weights)
    if not has_weights:
        return names, table, None
    return names, np.ascontiguousarray(table[:, :-1]), table[:, -1].copy()


def _parse_table(path: str, body: list[list[str]], ncols: int, has_weights: bool) -> np.ndarray:
    """The data rows as one (rows, ncols) float array, each cell through ``float()``.

    On success no Python code runs per cell.  On failure the rows are checked
    one at a time, in file order, and the first bad row raises: its cell
    count, then its cells from left to right, then its weight (a NaN weight
    passes here and is rejected by ``scenario_set``).
    """
    if set(map(len, body)) == {ncols}:
        try:
            cells = map(float, itertools.chain.from_iterable(body))
            table = np.fromiter(cells, float, count=len(body) * ncols).reshape(len(body), ncols)
        except ValueError:
            pass
        else:
            if not (has_weights and np.any(table[:, -1] <= 0.0)):
                return table
    for r, row in enumerate(body, start=2):
        if len(row) != ncols:
            raise DataError(f"--input: {path}: row {r} has {len(row)} cells, expected {ncols}")
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"--input: {path}: row {r}, column {c}: cannot parse {cell.strip()!r} as a number"
                ) from None
        if has_weights and value <= 0.0:
            raise DataError(f"--input: {path}: row {r}: weight must be positive")
    raise AssertionError("a table that failed to parse has a bad row")


def ingest_csv(path: str) -> ScenarioSet:
    """Read a scenario CSV: header of asset names, optional final weight column."""
    names, data, weights = _read_rows(path)
    return scenario_set(data, weights, names)


def _parse_band(raw: str | None) -> ConfidenceBand | None:
    if raw is None:
        return None
    parts = raw.split(",")
    try:
        a1, a2 = (float(p) for p in parts)
        return ConfidenceBand(a1, a2)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"--band: expected 'a1,a2' with 0 < a1 <= a2 < 1, got {raw!r}") from exc


def _parse_match(raw: str) -> tuple[str, float]:
    if raw == "warn":
        return "warn", DEFAULT_MATCH_THRESHOLD
    if raw == "assert":
        return "assert", DEFAULT_MATCH_THRESHOLD
    if raw.startswith("assert:"):
        try:
            thr = float(raw.split(":", 1)[1])
        except ValueError:
            thr = -1.0
        # written so that a NaN fails the test
        if not 0.0 < thr < np.inf:
            raise ParameterError(f"--match: threshold must be a positive number, got {raw!r}")
        return "assert", thr
    raise ParameterError(f"--match: expected 'warn' or 'assert:<threshold>', got {raw!r}")


def _resolve_copula(config: RunConfig, s: ScenarioSet) -> tuple[CopulaLike, dict]:
    """Build the declared copula and its descriptive info from the config string."""
    choice = config.copula_choice.strip().lower()
    info: dict = {"choice": config.copula_choice}
    if choice == "empirical":
        cop = empirical_copula(s)
        info.update(family="empirical", params={})
        return cop, info
    if choice.startswith("fit:"):
        family = choice.split(":", 1)[1]
        cop = fit_archimedean(s, family)
        info.update(family=cop.family, params={"theta": cop.theta}, fitted=True)
        return cop, info
    name, _, param = choice.partition(":")
    if name == "independence":
        cop = independence(s.dim)
    elif name == "comonotone":
        cop = comonotone(s.dim)
    elif name == "countermonotone":
        cop = countermonotone_2d()
        if s.dim != 2:
            raise ParameterError("--copula: countermonotone requires two-column data")
    elif name in ("clayton", "gumbel", "frank"):
        try:
            theta = float(param)
        except ValueError:
            raise ParameterError(
                f"--copula: {name} needs a parameter, e.g. '{name}:2.0'"
            ) from None
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[name](theta, s.dim)
    else:
        raise ParameterError(f"--copula: unknown choice {config.copula_choice!r}")
    info.update(family=cop.family, params={} if cop.theta is None else {"theta": cop.theta})
    return cop, info


def _scenario_summary(s: ScenarioSet, band: ConfidenceBand | None) -> dict:
    means = (s.weights @ s.losses).tolist()
    summary = {
        "d": s.dim,
        "m": s.m,
        "names": list(s.names),
        "nonnegative": s.nonnegative,
        "means": means,
    }
    if band is not None:
        # the band levels lie in (0, 1)
        columns = s.steps.columns()
        for label, lvl in (("alpha1", band.alpha1), ("alpha2", band.alpha2)):
            summary[f"var_{label}"] = [_var_at(values, tail, lvl) for values, tail in columns]
            summary[f"cvar_{label}"] = [_cvar_at(values, tail, lvl) for values, tail in columns]
    return summary


def _copula_diagnostics(
    config: RunConfig, s: ScenarioSet, cop: CopulaLike, info: dict
) -> tuple[dict, dict | None]:
    """The report's copula block, and the blend it holds when a band is set."""
    diag = dict(info)
    if s.m < 2:
        diag["gof_distance"] = None
    elif info["family"] == "empirical":
        # the declared copula is the data's own empirical copula
        diag["gof_distance"] = 0.0
    else:
        diag["gof_distance"] = gof_distance(empirical_copula(s), cop, config.grid_n)
    blend = None
    if config.band is not None:
        # the blend carries d_ul and d_uc from the same Frechet grid; on
        # one-column data there is no dependence spread, and the blend sits
        # at the high endpoint
        blend = blend_diagnostics(cop, config.band, config.grid_n)
        diag.update(blend)
    elif s.dim >= 2:
        d_ul, d_uc = frechet_distances(cop, config.grid_n)
        diag.update(d_ul=d_ul, d_uc=d_uc)
    return diag, blend


def _poor_fit(config: RunConfig, diag: dict) -> float | None:
    """The report's gof distance when it exceeds the --match threshold, else None."""
    dist = diag.get("gof_distance")
    return dist if dist is not None and dist > config.match_threshold else None


def run(config: RunConfig) -> dict:
    """Execute one configured computation and assemble the JSON-ready report.

    The options that need no data are checked before the input is read.
    """
    measure, kinds = config.measure, config.distortion_kinds
    if measure not in MEASURES:
        raise ParameterError(f"unknown measure {measure!r}")
    option = {"mixture": "band", "axioms": "band", "mtce": "q"}.get(measure)
    if option is not None and getattr(config, option) is None:
        raise ParameterError(f"{measure}: --{option} is required")
    if kinds and measure in ("mtce", "copula-fit", "copula-distance"):
        raise ParameterError(f"{measure}: takes no --distortion")
    if config.seed < 0:
        raise ParameterError(f"--seed: must be >= 0, got {config.seed}")

    names, data, raw_weights = _read_rows(config.input_path)
    s = scenario_set(data, raw_weights, names)
    notes = []
    if raw_weights is not None and abs(float(raw_weights.sum()) - 1.0) > 1e-12:
        notes.append(f"weights renormalized from sum {float(raw_weights.sum()):g}")
    cop, info = _resolve_copula(config, s)
    if info.get("fitted") and s.dim > 2:
        notes.append(
            f"{info['family']} theta fitted to the average of the {s.dim * (s.dim - 1) // 2} "
            "pairwise Kendall taus (exchangeable approximation for d > 2)"
        )
    diag, blend = _copula_diagnostics(config, s, cop, info)
    dist = _poor_fit(config, diag)
    if config.match_policy == "assert" and dist is not None:
        raise MatchError(
            f"declared copula rejected: gof distance {dist:.6g} exceeds "
            f"threshold {config.match_threshold:.6g}"
        )

    # every measure takes the report's one blend; none makes its own
    level = None if blend is None else blend["alpha_c"]
    gs = None
    if measure in ("scalar", "vector", "mtdrm", "signed2d"):
        gs = build_distortions(kinds or "identity", level, s.dim)
        spec = JointRiskSpec(survival_copula(cop), gs)
    if measure == "scalar":
        if not s.nonnegative:
            raise DataError(
                "scalar: data has negative losses; use the signed2d command (d = 2 only)"
            )
        # both forms from one coupling grid
        value, value_ls = gamma_forms(s, spec)
        gap = abs(value - value_ls) / max(abs(value), abs(value_ls), 1e-12)
        results = {"gamma": value, "gamma_ls": value_ls, "formulation_gap": gap}
    elif measure == "vector":
        results = h_vector(s, spec).as_dict()
    elif measure == "mixture":
        results = mixture_var_cvar(s, cop, config.band, kinds or "var", config.grid_n, blend).as_dict()
    elif measure == "mtce":
        results = mtce(s, cop, config.q).as_dict()
    elif measure == "mtdrm":
        results = mtdrm(s, gs, config.q).as_dict()
    elif measure == "signed2d":
        results = {"gamma_signed": gamma_signed_2d(s, spec)}
    elif measure == "axioms":
        tail = build_distortions(kinds or "var", level, s.dim, tail_only=True)
        report = axiom_suite(lambda c: JointRiskSpec(survival_copula(c), tail), [cop], seed=config.seed)
        results = report.as_dict()
    elif measure == "copula-fit":
        results = {k: diag.get(k) for k in ("family", "params", "gof_distance")}
    else:  # copula-distance
        results = {k: diag.get(k) for k in ("gof_distance", "d_ul", "d_uc")}
    if gs is not None:
        results["distortions"] = [g.label() for g in gs]

    summary = _scenario_summary(s, config.band)
    summary["notes"] = notes
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "scenarios": summary,
        "copula": diag,
        "results": {measure: results},
        "provenance": {
            "package": "jointrisk",
            "version": __version__,
            "seed": config.seed,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if np.isfinite(f) else None
    return value


def render_report(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risk",
        description="Copula-based joint risk measures of scenario loss portfolios",
    )
    sub = parser.add_subparsers(dest="measure", required=True)
    for name in MEASURES:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="scenario CSV (header row, optional weight column)")
        p.add_argument("--copula", default="empirical",
                       help="independence|comonotone|countermonotone|clayton:t|gumbel:t|frank:t|fit:<family>|empirical")
        p.add_argument("--band", default=None, help="confidence band 'a1,a2'")
        p.add_argument("--q", type=float, default=None, help="tail level in (0,1)")
        p.add_argument("--distortion", action="append", default=None,
                       help="var|cvar|identity|power:<k>; repeat per component")
        p.add_argument("--grid-n", type=int, default=None, help="unit-grid resolution for copula maxima")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--match", default="warn", help="warn (default) or assert:<threshold>")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    policy, threshold = _parse_match(args.match)
    kinds = tuple(k.strip().lower() for k in args.distortion or [])
    if args.q is not None and not 0.0 < args.q < 1.0:
        raise ParameterError(f"--q: must lie in (0, 1), got {args.q}")
    if args.grid_n is not None and args.grid_n < 2:
        raise ParameterError(f"--grid-n: must be >= 2, got {args.grid_n}")
    return RunConfig(
        measure=args.measure,
        input_path=args.input,
        copula_choice=args.copula,
        band=_parse_band(args.band),
        q=args.q,
        distortion_kinds=kinds,
        grid_n=args.grid_n,
        seed=args.seed,
        match_policy=policy,
        match_threshold=threshold,
        out_path=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
    except MatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateTailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except JointRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dist = _poor_fit(config, report["copula"])
    if config.match_policy == "warn" and dist is not None:
        print(
            f"warning: declared copula fits the data poorly: gof distance {dist:.6g} "
            f"exceeds {config.match_threshold:.6g}",
            file=sys.stderr,
        )
    text = render_report(report)
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out: cannot write {config.out_path}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
